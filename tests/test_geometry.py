import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import raster_union_area
from roipack.geometry import (
    FrameSpec,
    Rect,
    box_iou,
    clip_box,
    enclosing,
    intersection,
    intersects,
    iou,
    union_area,
)

coords = st.floats(min_value=0.0, max_value=280.0, allow_nan=False)
sides = st.floats(min_value=0.5, max_value=120.0, allow_nan=False)
rect_st = st.builds(lambda x, y, w, h: Rect(x, y, x + w, y + h), coords, coords, sides, sides)


class TestRect:
    def test_area(self):
        assert Rect(0, 0, 300, 300).area == 90000
        assert Rect(0, 0, 2, 2).area == 4
        assert Rect(100, 120, 180, 180).area == 4800

    def test_width_height_center(self):
        r = Rect(10, 20, 40, 100)
        assert (r.width, r.height) == (30, 80)
        assert r.center == (25, 60)

    @pytest.mark.parametrize(
        "bad", [(1, 0, 1, 5), (0, 3, 5, 3), (2, 0, 1, 5), (0, 0, math.nan, 1)]
    )
    def test_degenerate_rejected(self, bad):
        with pytest.raises(ValueError):
            Rect(*bad)

    def test_contains_point_closed(self):
        r = Rect(0, 0, 10, 10)
        assert r.contains_point(0, 0)
        assert r.contains_point(10, 10)
        assert not r.contains_point(10.0001, 5)

    def test_contains_allows_shared_edges(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains(Rect(0, 0, 10, 10))
        assert outer.contains(Rect(2, 0, 10, 5))
        assert not outer.contains(Rect(2, 0, 10.5, 5))


class TestFrameSpec:
    def test_area_and_bounds(self):
        f = FrameSpec(300.0)
        assert f.area == 90000
        assert f.bounds == Rect(0, 0, 300, 300)

    @pytest.mark.parametrize("side", [0.0, -1.0, math.inf])
    def test_invalid_side(self, side):
        with pytest.raises(ValueError):
            FrameSpec(side)


class TestIntersection:
    def test_overlap(self):
        assert intersection(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)) == Rect(1, 1, 2, 2)

    def test_disjoint(self):
        assert intersection(Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)) is None

    def test_edge_contact_is_not_overlap(self):
        assert intersection(Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)) is None
        assert not intersects(Rect(0, 0, 1, 1), Rect(1, 0, 2, 1))
        # Corner contact too.
        assert intersection(Rect(0, 0, 1, 1), Rect(1, 1, 2, 2)) is None

    @given(rect_st, rect_st)
    @settings(max_examples=200, deadline=None)
    def test_consistent_with_predicate(self, a, b):
        inter = intersection(a, b)
        assert (inter is not None) == intersects(a, b)
        if inter is not None:
            assert a.contains(inter) and b.contains(inter)


class TestClipBox:
    def test_a_tie_keeps_the_first_box_value(self):
        x0, y0, x1, y1 = clip_box(-0.0, 0.0, 1.0, 1.0, 0.0, -0.0, 2.0, 2.0)
        assert math.copysign(1.0, x0) == -1.0 and math.copysign(1.0, y0) == 1.0
        x0, y0, _, _ = clip_box(0.0, -0.0, 2.0, 2.0, -0.0, 0.0, 1.0, 1.0)
        assert math.copysign(1.0, x0) == 1.0 and math.copysign(1.0, y0) == -1.0

    @given(rect_st, rect_st)
    @settings(max_examples=200, deadline=None)
    def test_bounds_are_max_and_min_of_a_then_b(self, a, b):
        box = clip_box(a.x_min, a.y_min, a.x_max, a.y_max, b.x_min, b.y_min, b.x_max, b.y_max)
        want = (max(a.x_min, b.x_min), max(a.y_min, b.y_min),
                min(a.x_max, b.x_max), min(a.y_max, b.y_max))
        if want[0] < want[2] and want[1] < want[3]:
            assert [v.hex() for v in box] == [v.hex() for v in want]
        else:
            assert box is None


class TestIou:
    def test_worked_example(self):
        assert iou(Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)) == 1 / 7

    def test_a_union_of_zero_area_has_iou_zero(self):
        # At a 300 px side this annotated box is 3e-14 by 1.5e-321 px, and
        # its area underflows to 0.0; it used to divide 0.0 by 0.0.
        r = Rect(0.5 * 300, 0.0, 0.5000000000000001 * 300, 5e-324 * 300)
        assert r.area == 0.0
        assert iou(r, r) == 0.0
        corners = (r.x_min, r.y_min, r.x_max, r.y_max)
        assert box_iou(*corners, *corners) == 0.0

    def test_identity_and_disjoint(self):
        r = Rect(3, 4, 10, 12)
        assert iou(r, r) == 1.0
        assert iou(Rect(0, 0, 1, 1), Rect(5, 5, 6, 6)) == 0.0

    @given(rect_st, rect_st)
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        v = iou(a, b)
        assert v == iou(b, a)
        assert 0.0 <= v <= 1.0


class TestEnclosing:
    def test_examples(self):
        assert enclosing([Rect(0, 0, 1, 1)]) == Rect(0, 0, 1, 1)
        assert enclosing([Rect(0, 0, 1, 1), Rect(0.5, 0.5, 1.5, 1.5)]) == Rect(0, 0, 1.5, 1.5)
        assert enclosing([Rect(0, 0, 1, 2), Rect(2, 0, 3, 1)]) == Rect(0, 0, 3, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            enclosing([])

    @given(st.lists(rect_st, min_size=1, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_contains_all(self, rs):
        box = enclosing(rs)
        assert all(box.contains(r) for r in rs)


class TestUnionArea:
    def test_examples(self):
        assert union_area([]) == 0.0
        assert union_area([Rect(0, 0, 2, 2), Rect(1, 1, 3, 3)]) == 7.0
        assert union_area([Rect(0, 0, 150, 150), Rect(150, 150, 300, 300)]) == 45000.0

    def test_contained_box_counted_once(self):
        assert union_area([Rect(0, 0, 10, 10), Rect(2, 2, 5, 5)]) == 100.0

    def test_cross_shape(self):
        # 10x2 and 2x10 crossing: 20 + 20 - 4 by inclusion-exclusion.
        rs = [Rect(0, 4, 10, 6), Rect(4, 0, 6, 10)]
        assert union_area(rs) == 36.0

    @given(st.lists(rect_st, min_size=0, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_bounds(self, rs):
        total = union_area(rs)
        assert total <= sum(r.area for r in rs) + 1e-6
        if rs:
            assert total >= max(r.area for r in rs) - 1e-6
            assert total <= enclosing(rs).area + 1e-6

    def test_disjoint_equals_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            rs = []
            x = 0.0
            for _ in range(n):
                w = float(rng.uniform(1, 30))
                h = float(rng.uniform(1, 30))
                y = float(rng.uniform(0, 50))
                rs.append(Rect(x, y, x + w, y + h))
                x += w + float(rng.uniform(0.5, 5))
            assert union_area(rs) == pytest.approx(sum(r.area for r in rs), rel=1e-12)

    def test_overlapping_strictly_below_sum(self):
        rs = [Rect(0, 0, 10, 10), Rect(5, 5, 15, 15)]
        assert union_area(rs) < sum(r.area for r in rs)

    def test_matches_rasterization(self):
        rng = np.random.default_rng(17)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            rs = []
            for _ in range(n):
                w, h = rng.uniform(20, 120, 2)
                x = float(rng.uniform(0, 300 - w))
                y = float(rng.uniform(0, 300 - h))
                rs.append(Rect(x, y, x + w, y + h))
            approx = raster_union_area(rs, resolution=1000)
            exact = union_area(rs)
            assert abs(exact - approx) <= 0.01 * approx
