import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from allocation import blocks_left_by
from oracles import _grow_interval as reference_grow_interval
from oracles import brute_components, reference_merge_overlaps, reference_pack
from roipack import packing
from roipack.geometry import FrameSpec, Rect
from roipack.packing import (
    MAX_SLOTS,
    Layout,
    PackMethod,
    PackPlan,
    PackSlot,
    _first_hit,
    _flush,
    _repeat_add,
    choose_layout,
    connected_components,
    expand_greedy,
    merge_overlaps,
    pack,
    pack_naive,
    place_and_fit,
)

SRC = FrameSpec(300.0)
DST = FrameSpec(150.0)


def random_rois(rng, n, lo=4.0, hi=160.0):
    out = []
    for _ in range(n):
        w = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        h = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        x = float(rng.uniform(0.0, 300.0 - w))
        y = float(rng.uniform(0.0, 300.0 - h))
        out.append(Rect(x, y, x + w, y + h))
    return out


class TestMergeOverlaps:
    def test_single_round(self):
        boxes = [Rect(0, 0, 1, 1), Rect(0.5, 0.5, 1.5, 1.5), Rect(3, 3, 4, 4)]
        assert merge_overlaps(boxes) == [Rect(0, 0, 1.5, 1.5), Rect(3, 3, 4, 4)]

    def test_merged_boxes_can_swallow_bystanders(self):
        # The third box overlaps neither input, but it overlaps their union,
        # so a second round collapses everything into one box.
        boxes = [Rect(0, 0, 1, 1), Rect(0.5, 0, 2, 0.4), Rect(1.2, 0.6, 1.8, 0.9)]
        assert merge_overlaps(boxes) == [Rect(0, 0, 2, 1)]

    def test_disjoint_left_alone(self):
        boxes = [Rect(0, 0, 1, 1), Rect(2, 2, 3, 3), Rect(5, 0, 6, 1)]
        assert merge_overlaps(boxes) == boxes

    def test_a_box_that_overlaps_nothing_is_kept_as_it_is(self):
        lone = Rect(3, 3, 4, 4)
        merged = merge_overlaps([Rect(0, 0, 1, 1), Rect(0.5, 0.5, 1.5, 1.5), lone])
        assert merged == [Rect(0, 0, 1.5, 1.5), lone]

    def test_empty(self):
        assert merge_overlaps([]) == []

    def test_result_is_pairwise_disjoint_and_covers(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            boxes = random_rois(rng, int(rng.integers(1, 9)))
            merged = merge_overlaps(boxes)
            for i, a in enumerate(merged):
                for b in merged[i + 1 :]:
                    assert not (a.x_min < b.x_max and b.x_min < a.x_max
                                and a.y_min < b.y_max and b.y_min < a.y_max)
            for box in boxes:
                assert any(m.contains(box) for m in merged)


def box_bits(boxes):
    """Each coordinate's exact float, sign of zero included."""
    return [tuple(v.hex() for v in (b.x_min, b.y_min, b.x_max, b.y_max)) for b in boxes]


@st.composite
def crowded_boxes(draw):
    """Boxes on a small integer grid, so that edges touch, boxes repeat or
    nest often, and any zero coordinate may be 0.0 or -0.0."""

    def signed(v):
        return -0.0 if v == 0 and draw(st.booleans()) else float(v)

    boxes = []
    for _ in range(draw(st.integers(0, 9))):
        if boxes and draw(st.integers(0, 3)) == 0:
            boxes.append(draw(st.sampled_from(boxes)))
            continue
        x0, y0 = draw(st.integers(-3, 4)), draw(st.integers(-3, 4))
        x1, y1 = draw(st.integers(x0 + 1, 5)), draw(st.integers(y0 + 1, 5))
        boxes.append(Rect(signed(x0), signed(y0), signed(x1), signed(y1)))
    return boxes


class TestMergeMatchesReference:
    """merge_overlaps keeps the rounds of reference_merge_overlaps, and with
    them which of 0.0 and -0.0 each merged box keeps."""

    @settings(max_examples=400, deadline=None)
    @given(crowded_boxes())
    def test_bit_identical_boxes(self, boxes):
        assert box_bits(merge_overlaps(boxes)) == box_bits(reference_merge_overlaps(boxes))

    def test_rounds_decide_the_sign_of_zero(self):
        # Round 1 joins boxes 0 and 3 (x_min 5 and -0.0); box 1 (x_min 0.0)
        # overlaps only their enclosing box and joins it in round 2, so the
        # merged x_min is min(-0.0, 0.0) = -0.0. One min() over the members
        # 0, 1, 3 would give min(5, 0.0, -0.0) = 0.0.
        boxes = [
            Rect(5.0, 0.0, 10.0, 6.0),
            Rect(0.0, 3.0, 1.0, 5.0),
            Rect(20.0, 20.0, 21.0, 21.0),
            Rect(-0.0, 0.0, 6.0, 2.0),
        ]
        merged = merge_overlaps(boxes)
        assert box_bits(merged) == box_bits(reference_merge_overlaps(boxes))
        assert merged[0] == Rect(0.0, 0.0, 10.0, 6.0)
        assert math.copysign(1.0, merged[0].x_min) == -1.0


class TestConnectedComponents:
    def test_chain(self):
        boxes = [Rect(0, 0, 1, 1), Rect(0.5, 0.5, 1.5, 1.5), Rect(3, 3, 4, 4)]
        assert connected_components(boxes) == [[0, 1], [2]]

    def test_singleton(self):
        assert connected_components([Rect(0, 0, 1, 1)]) == [[0]]

    def test_all_disjoint(self):
        boxes = [Rect(0, 0, 1, 1), Rect(2, 0, 3, 1), Rect(4, 0, 5, 1)]
        assert connected_components(boxes) == [[0], [1], [2]]

    def test_edge_contact_does_not_connect(self):
        assert connected_components([Rect(0, 0, 1, 1), Rect(1, 0, 2, 1)]) == [[0], [1]]

    def test_matches_transitive_closure_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            boxes = random_rois(rng, int(rng.integers(1, 13)), lo=10.0, hi=200.0)
            assert connected_components(boxes) == brute_components(boxes)


class TestChooseLayout:
    def test_single_box(self):
        layout = choose_layout([Rect(0, 0, 40, 90)])
        assert layout.axis == 0
        assert layout.groups == ((0,),)

    def test_tall_boxes_go_to_columns(self):
        layout = choose_layout([Rect(0, 0, 30, 100), Rect(50, 0, 80, 90)])
        assert layout.axis == 0
        assert layout.groups == ((0,), (1,))

    def test_wide_boxes_go_to_rows(self):
        layout = choose_layout([Rect(0, 0, 120, 40), Rect(150, 200, 260, 240)])
        assert layout.axis == 1
        assert layout.groups == ((0,), (1,))

    def test_square_tie_prefers_columns(self):
        assert choose_layout([Rect(0, 0, 50, 50)]).axis == 0

    def test_four_boxes_pair_tall_with_short(self):
        # Heights 60, 100, 40, 80 (widths all 30): the tallest and the
        # third-tallest share the first column, the rest the second.
        boxes = [
            Rect(0, 0, 30, 60),
            Rect(40, 0, 70, 100),
            Rect(80, 0, 110, 40),
            Rect(120, 0, 150, 80),
        ]
        layout = choose_layout(boxes)
        assert layout.axis == 0
        assert layout.groups == ((1, 0), (3, 2))

    def test_three_boxes_tallest_alone(self):
        # Heights 70, 150, 75: the tallest gets the first column, the other
        # two stack in the second, taller first.
        boxes = [Rect(100, 0, 160, 70), Rect(0, 0, 80, 150), Rect(200, 0, 265, 75)]
        assert choose_layout(boxes).groups == ((1,), (2, 0))

    def test_rank_ties_broken_by_index(self):
        layout = choose_layout([Rect(0, 0, 30, 100), Rect(50, 0, 80, 100)])
        assert layout.groups == ((0,), (1,))

    def test_repeated_calls_leave_no_blocks_behind(self):
        # Three boxes give groups of one and two, the sizes whose free
        # lists a tuple built from a generator fed.
        boxes = [Rect(100, 0, 160, 70), Rect(0, 0, 80, 150), Rect(200, 0, 265, 75)]
        assert blocks_left_by(lambda: choose_layout(boxes), 2000) < 50

    @pytest.mark.parametrize("count", [0, MAX_SLOTS + 1])
    def test_box_count_out_of_range(self, count):
        with pytest.raises(ValueError):
            choose_layout([Rect(0, 0, 1, 1)] * count if count else [])

    def test_layout_validation(self):
        bad = [
            (2, ((0,), (1,))),  # axis outside {0, 1}
            (-1, ((0,),)),
            (0, ((0,), (0,))),  # an index twice
            (0, ((0,), (2,))),  # a gap in the indices
            (1, ((1,), (2,))),  # no index 0
            (0, ((0,), ())),  # an empty group
            (0, ()),  # no members
            (1, ((),)),
            (0, ((0, 2, 4), (1, 3))),  # five members
        ]
        for axis, groups in bad:
            with pytest.raises(ValueError):
                Layout(axis=axis, groups=groups)

    def test_layout_accepts_any_partition(self):
        assert Layout(axis=1, groups=((3, 1), (0,), (2,))).groups == ((3, 1), (0,), (2,))


def as_lists(boxes):
    return [[b.x_min, b.y_min, b.x_max, b.y_max] for b in boxes]


def flush_dsts(boxes):
    """Each box's destination rect from its _flush corner, at its own size,
    under the layout chosen for the boxes."""
    corners, _ = _flush(as_lists(boxes), choose_layout(boxes))
    return [Rect(x, y, x + b.width, y + b.height) for b, (x, y) in zip(boxes, corners)]


def fits(boxes):
    return place_and_fit(boxes, choose_layout(boxes), DST)


class TestPlaceAndFit:
    def test_single_box_flush_at_origin(self):
        box = Rect(100, 120, 180, 180)
        assert fits([box]) == [[100, 120, 180, 180]]
        assert _flush(as_lists([box]), choose_layout([box])) == ([(0.0, 0.0)], 80.0)
        assert flush_dsts([box]) == [Rect(0, 0, 80, 60)]

    def test_plan_keeps_the_given_source_frame(self):
        box = Rect(100, 120, 180, 180)
        source = FrameSpec(400.0)
        plan = pack([box], source, DST)
        assert plan is not None
        assert plan.source is source and plan.dest is DST

    def test_single_box_too_wide(self):
        assert fits([Rect(0, 0, 200, 90)]) is None

    def test_pair_exceeding_width_budget(self):
        assert fits([Rect(0, 0, 100, 140), Rect(120, 0, 180, 130)]) is None

    def test_pair_within_budget(self):
        boxes = [Rect(0, 0, 100, 140), Rect(120, 0, 170, 130)]
        assert fits(boxes) == as_lists(boxes)
        assert flush_dsts(boxes) == [Rect(0, 0, 100, 140), Rect(100, 0, 150, 130)]

    def test_rows_stack_downward(self):
        boxes = [Rect(0, 0, 120, 40), Rect(150, 200, 260, 240)]
        assert fits(boxes) is not None
        assert flush_dsts(boxes) == [Rect(0, 0, 120, 40), Rect(0, 40, 110, 80)]

    def test_three_boxes_second_column_stacks(self):
        boxes = [Rect(0, 0, 80, 150), Rect(100, 0, 160, 70), Rect(200, 0, 265, 75)]
        assert fits(boxes) is not None
        dsts = flush_dsts(boxes)
        assert dsts[0] == Rect(0, 0, 80, 150)
        assert dsts[2] == Rect(80, 0, 145, 75)
        assert dsts[1] == Rect(80, 75, 140, 145)

    def test_stack_height_budget_enforced(self):
        # Column widths fit (80 + 70 <= 150) but the second column stacks
        # 90 + 80 = 170 > 150.
        boxes = [Rect(0, 0, 80, 150), Rect(100, 0, 170, 90), Rect(200, 100, 265, 180)]
        assert fits(boxes) is None

    @pytest.mark.parametrize("flip", [False, True], ids=["columns", "rows"])
    def test_stack_exactly_the_destination_side_fits(self, flip):
        # The second group stacks 90 + 60 = 150, the destination side; one
        # more pixel does not fit. Transposed, the groups are rows.
        orient = transposed if flip else (lambda r: r)
        pair = [Rect(0, 0, 60, 100), Rect(100, 0, 160, 90)]
        boxes = [orient(b) for b in pair + [Rect(200, 100, 260, 160)]]
        assert fits(boxes) == as_lists(boxes)
        assert _flush(as_lists(boxes), choose_layout(boxes))[1] == 150.0
        assert flush_dsts(boxes) == [
            orient(Rect(0, 0, 60, 100)),
            orient(Rect(60, 0, 120, 90)),
            orient(Rect(60, 90, 120, 150)),
        ]
        assert fits([orient(b) for b in pair + [Rect(200, 100, 260, 161)]]) is None

    def test_box_count_must_match_layout(self):
        boxes = [Rect(0, 0, 30, 100), Rect(50, 0, 80, 90)]
        with pytest.raises(ValueError):
            place_and_fit(boxes[:1], choose_layout(boxes), DST)

    def test_returns_fresh_lists(self):
        boxes = [Rect(0, 0, 30, 100), Rect(50, 0, 80, 90)]
        first, second = fits(boxes), fits(boxes)
        assert first == second and first is not second
        assert all(a is not b for a, b in zip(first, second))


class TestSlotsBuiltOnce:
    """The fit test builds no slot, rect or plan; a packed frame builds each
    slot and its plan once, and a frame that does not fit builds none."""

    @pytest.fixture
    def built(self, monkeypatch):
        counts = dict.fromkeys(("Rect", "PackSlot", "PackPlan"), 0)
        for name in counts:
            cls = getattr(packing, name)

            def counted(*args, _cls=cls, _name=name, **kwargs):
                counts[_name] += 1
                return _cls(*args, **kwargs)

            monkeypatch.setattr(packing, name, counted)
        return counts

    def test_place_and_fit_builds_no_rect_slot_or_plan(self, built):
        rng = np.random.default_rng(11)
        cases = [merge_overlaps(random_rois(rng, int(rng.integers(1, 5)))) for _ in range(300)]
        cases = [(m, choose_layout(m)) for m in cases if len(m) <= MAX_SLOTS]
        built.update(dict.fromkeys(built, 0))
        outcomes = {place_and_fit(m, layout, DST) is None for m, layout in cases}
        assert outcomes == {False, True}
        assert built == {"Rect": 0, "PackSlot": 0, "PackPlan": 0}

    def test_pack_builds_each_slot_once(self, built):
        rng = np.random.default_rng(12)
        packed = unfit = 0
        for _ in range(300):
            boxes = random_rois(rng, int(rng.integers(1, 5)))
            built.update(dict.fromkeys(built, 0))
            plan = pack(boxes, SRC, DST)
            if plan is None:
                unfit += len(merge_overlaps(boxes)) <= MAX_SLOTS
                assert built["PackSlot"] == built["PackPlan"] == 0
            else:
                packed += 1
                assert built["PackSlot"] == len(plan.slots) and built["PackPlan"] == 1
                assert all(s.scale_x == s.scale_y == 1.0 for s in plan.slots)
        assert packed > 50 and unfit > 50


class TestExpandGreedy:
    def test_centered_box_grows_symmetrically(self):
        plan = pack([Rect(100, 120, 180, 180)], SRC, DST)
        assert plan is not None
        (slot,) = plan.slots
        assert slot.src == Rect(65, 75, 215, 225)
        assert slot.dst == Rect(0, 0, 150, 150)

    def test_corner_box_spills_inward(self):
        plan = pack([Rect(0, 0, 80, 60)], SRC, DST)
        assert plan is not None
        (slot,) = plan.slots
        assert slot.src == Rect(0, 0, 150, 150)
        assert slot.dst == Rect(0, 0, 150, 150)

    def test_no_headroom_leaves_slots_unchanged(self):
        boxes = [Rect(0, 0, 75, 150), Rect(150, 0, 225, 150)]
        plan = pack(boxes, SRC, DST)
        assert plan is not None
        assert [s.src for s in plan.slots] == boxes
        assert plan.slots[0].dst == Rect(0, 0, 75, 150)
        assert plan.slots[1].dst == Rect(75, 0, 150, 150)

    def test_growth_contains_original(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            boxes = random_rois(rng, int(rng.integers(1, 5)))
            merged = merge_overlaps(boxes)
            if len(merged) > MAX_SLOTS:
                continue
            layout = choose_layout(merged)
            src = place_and_fit(merged, layout, DST)
            if src is None:
                continue
            grown = expand_greedy(src, layout, SRC, DST)
            for before, after in zip(merged, grown.slots):
                assert after.src.contains(before)
                assert after.src.area >= before.area

    def test_neighbors_freeze_on_contact(self):
        boxes = [Rect(0, 0, 30, 100), Rect(40, 0, 70, 100)]
        plan = pack(boxes, SRC, DST)
        assert plan is not None
        a, b = (s.src for s in plan.slots)
        # Growth closed the 10px gap and stopped, well short of the width
        # budget; heights kept growing to the full destination side.
        assert a.x_max <= b.x_min
        assert b.x_min - a.x_max < 1.5
        assert a.width + b.width < 150.0
        assert a.height == b.height == 150.0

    def test_full_source_span_freezes(self):
        plan = pack([Rect(120, 100, 190, 180)], FrameSpec(300.0), FrameSpec(300.0))
        assert plan is not None
        assert plan.slots[0].src == Rect(0, 0, 300, 300)


def flush_to_edge(rng, box):
    x = box.x_min if rng.random() < 0.5 else float(rng.choice([0.0, 300.0 - box.width]))
    y = box.y_min if rng.random() < 0.5 else float(rng.choice([0.0, 300.0 - box.height]))
    return Rect(x, y, x + box.width, y + box.height)


def same_plan(a, b):
    return [(s.src, s.dst) for s in a.slots] == [(s.src, s.dst) for s in b.slots]


class TestExpandMatchesReference:
    """expand_greedy skips quiet rounds in bulk; its plans must equal, to the
    last bit, those of the unit-round reference in tests/oracles.py."""

    @pytest.mark.parametrize("side", [100.0, 150.0, 200.0])
    @pytest.mark.parametrize("flush", [False, True], ids=["inside", "flush"])
    def test_fuzz_plans_identical(self, side, flush):
        # "flush" moves ROIs against the frame edges, where slots grow pinned
        # to one side.
        rng = np.random.default_rng(int(side) + flush)
        dest = FrameSpec(side)
        packed = 0
        for case in range(1200):
            boxes = random_rois(rng, int(rng.integers(1, 9)))
            if flush:
                boxes = [flush_to_edge(rng, b) for b in boxes]
            plan = pack(boxes, SRC, dest)
            ref = reference_pack(boxes, SRC, dest)
            assert (plan is None) == (ref is None), case
            if plan is not None:
                packed += 1
                assert same_plan(plan, ref), (case, boxes)
        assert packed > 200

    def test_survivor_of_a_mid_round_freeze_jumps_in_that_round(self):
        # Second pass (x): slot 0 reaches the full destination width and
        # freezes partway through a round. Slot 1, now the only grower, takes
        # its lone full-size jump in that same round, runs into slot 0 and
        # bisects. Deciding "lone" once per round would leave x_min at 4.0.
        boxes = [Rect(258, 4, 299, 29), Rect(59, 96, 95, 116)]
        plan = pack(boxes, SRC, DST)
        assert plan == reference_pack(boxes, SRC, DST)
        assert plan.slots[1].src == Rect(3.999999999999986, 70.0, 150.0, 142.0)


def plan_bits(plan):
    """Each slot's src and dst as exact floats, sign of zero included."""
    return [
        tuple(float(v).hex() for r in (s.src, s.dst) for v in (r.x_min, r.y_min, r.x_max, r.y_max))
        for s in plan.slots
    ]


class TestLoneSlotMatchesReference:
    """A lone slot grows by its own loop, without the group, blocker and
    quiet-round bookkeeping; its plans must equal the unit-round
    reference's to the last bit."""

    @pytest.mark.parametrize(
        "rois",
        [
            [Rect(0, 100, 40, 140)],  # pinned at the left edge
            [Rect(260, 100, 300, 140)],  # the right edge
            [Rect(100, 0, 140, 40)],  # the top edge
            [Rect(100, 260, 140, 300)],  # the bottom edge
            [Rect(0, 0, 40, 30)],  # a corner
            [Rect(10, 10, 50, 50), Rect(40, 40, 80, 80)],  # one box once merged
        ],
    )
    @pytest.mark.parametrize("side", [150.0, 149.7])
    def test_edges_and_merged(self, rois, side):
        dest = FrameSpec(side)
        plan = pack(rois, SRC, dest)
        assert len(plan.slots) == 1
        assert plan_bits(plan) == plan_bits(reference_pack(rois, SRC, dest))

    def test_box_as_wide_as_the_dest_grows_only_in_height(self):
        rois = [Rect(75, 100, 225, 130)]
        plan = pack(rois, SRC, DST)
        assert plan.slots[0].src == Rect(75, 40, 225, 190)
        assert plan_bits(plan) == plan_bits(reference_pack(rois, SRC, DST))

    def test_a_first_jump_that_leaves_headroom_jumps_again(self):
        # At a source side of 2**24 an ulp of the grown edges is ~1.9e-9,
        # so the first jump's rounding leaves more than _EPS to take.
        source, dest = FrameSpec(2.0**24), FrameSpec(2.0**23)
        lo, hi = 2902305.6, 10952185.8
        allowed = min(dest.side - (hi - lo), lo + (source.side - hi))
        grown_lo, grown_hi = packing._grow_interval(lo, hi, allowed, source.side)
        assert dest.side - (grown_hi - grown_lo) > packing._EPS
        assert grown_lo + (source.side - grown_hi) > packing._EPS
        rois = [Rect(lo, 100.0, hi, 200.0)]
        plan = pack(rois, source, dest)
        assert plan.slots[0].src.width > grown_hi - grown_lo
        assert plan_bits(plan) == plan_bits(reference_pack(rois, source, dest))


def rois_at_side(rng, side, n):
    """n ROIs in a source frame of the given side: 40% snapped to a grid of
    sixteenths, so that neighbours share edges, and 20% moved flush against
    a frame edge."""
    cell = side / 16.0
    out = []
    for _ in range(n):
        if rng.random() < 0.4:
            x0, y0 = (int(v) for v in rng.integers(0, 15, size=2))
            x1, y1 = (min(16, v + int(rng.integers(1, 5))) for v in (x0, y0))
            x0, y0, x1, y1 = (side if v == 16 else v * cell for v in (x0, y0, x1, y1))
        else:
            w, h = (side * float(np.exp(rng.uniform(np.log(0.013), np.log(0.53)))) for _ in "wh")
            x0, y0 = float(rng.uniform(0.0, side - w)), float(rng.uniform(0.0, side - h))
            x1, y1 = x0 + w, y0 + h
        if rng.random() < 0.2:
            if rng.random() < 0.5:
                x0, x1 = (0.0, x1 - x0) if rng.random() < 0.5 else (side - (x1 - x0), side)
            else:
                y0, y1 = (0.0, y1 - y0) if rng.random() < 0.5 else (side - (y1 - y0), side)
        out.append(Rect(x0, y0, x1, y1))
    return out


class TestExpandEventsMatchReference:
    """The per-event arithmetic (the freeze test, the exact collision point
    and one addition per quiet run) at source sides where hi crosses powers
    of two during quiet runs, with boxes that touch on a grid or sit flush
    against a frame edge."""

    @pytest.mark.parametrize("side, cases", [(97.3, 600), (1000.0, 150), (4096.0, 40)])
    def test_fuzz_plans_identical(self, side, cases):
        rng = np.random.default_rng(int(side * 10))
        source, dest = FrameSpec(side), FrameSpec(side / 2.0)
        packed = 0
        for case in range(cases):
            boxes = rois_at_side(rng, side, int(rng.integers(1, 7)))
            plan = pack(boxes, source, dest)
            ref = reference_pack(boxes, source, dest)
            assert (plan is None) == (ref is None), case
            if plan is not None:
                packed += 1
                assert same_plan(plan, ref), (case, boxes)
        assert packed > cases // 4

    def test_repeat_add_equals_sequential_additions(self):
        rounded = 0
        for m in (0, 1, 7, 10, 12, 16):
            top = 2.0**m
            for step in (0.5, 1.0):
                for x in (math.nextafter(top, 0.0), top - 0.3, top - 3 * step - 1e-7):
                    if x <= 0.0:
                        continue
                    for k in (0, 1, 2, 3, 7, 100, 1000, 10_000):
                        y = x
                        for _ in range(k):
                            y += step
                        assert _repeat_add(x, step, k) == y, (x, step, k)
                        rounded += x + k * step != y
        # Some runs cross more than one power of two, and there a single
        # closed-form addition rounds differently from the k additions.
        assert rounded

    def test_first_hit_is_the_least_float_growth_that_hits(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(3000):
            side = float(rng.choice([97.3, 300.0, 4096.0, 65536.0]))
            lo, hi = sorted(float(v) for v in rng.uniform(0.0, side, size=2))
            if rng.random() < 0.2:
                lo, hi = (0.0, hi) if rng.random() < 0.5 else (lo, side)
            blocking = []
            for _ in range(int(rng.integers(1, 3))):
                gap = float(np.exp(rng.uniform(np.log(1e-9), np.log(side / 4))))
                if rng.random() < 0.5 and hi + gap < side:
                    blocking.append((hi + gap, float(rng.uniform(hi + gap, side)) + 1e-9))
                elif lo - gap > 0.0:
                    blocking.append((float(rng.uniform(0.0, lo - gap)) - 1e-9, lo - gap))
            allowed = lo + (side - hi)

            def hits(g):
                grown_lo, grown_hi = reference_grow_interval(lo, hi, g, side)
                return any(grown_lo < b_hi and b_lo < grown_hi for b_lo, b_hi in blocking)

            if not blocking or hits(1e-9) or not hits(allowed):
                continue
            first = _first_hit(lo, hi, allowed, side, blocking)
            assert hits(first) and not hits(math.nextafter(first, 0.0)), (lo, hi, side, blocking)
            checked += 1
        assert checked > 1000


def transposed(r):
    return Rect(r.y_min, r.x_min, r.y_max, r.x_max)


roi_st = st.builds(
    lambda x, y, w, h: Rect(x, y, min(300.0, x + w), min(300.0, y + h)),
    st.floats(0.0, 296.0),
    st.floats(0.0, 296.0),
    st.floats(4.0, 80.0),
    st.floats(4.0, 80.0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(roi_st, min_size=1, max_size=6))
def test_transposing_rois_transposes_the_plan(rois):
    # choose_layout breaks a tallest == widest tie toward columns, the one
    # asymmetry of the packer.
    merged = merge_overlaps(rois)
    assume(max(b.height for b in merged) != max(b.width for b in merged))
    plan = pack(rois, SRC, DST)
    flipped = pack([transposed(r) for r in rois], SRC, DST)
    assert (plan is None) == (flipped is None)
    if plan is not None:
        assert [(transposed(s.src), transposed(s.dst)) for s in plan.slots] == [
            (s.src, s.dst) for s in flipped.slots
        ]


def mirrored(r, side=SRC.side):
    return Rect(side - r.x_max, r.y_min, side - r.x_min, r.y_max)


int_roi_st = st.builds(
    lambda x, y, w, h: Rect(x, y, min(300, x + w), min(300, y + h)),
    st.integers(0, 296),
    st.integers(0, 296),
    st.integers(4, 80),
    st.integers(4, 80),
)


def close(a, b, tol=1e-9):
    return all(
        abs(p - q) <= tol
        for p, q in zip((a.x_min, a.y_min, a.x_max, a.y_max), (b.x_min, b.y_min, b.x_max, b.y_max))
    )


@settings(max_examples=200, deadline=None)
@given(st.lists(int_roi_st, min_size=1, max_size=6))
# Slots 2 and 3 grow toward each other along x and meet exactly in one
# orientation, but overlap by an ulp in the mirror, where slot 2's collision
# with slot 1 rounds its far edge past the contact. Blocking on y only by an
# overlap above _EPS keeps that sliver from freezing slot 2 at 5 px tall.
@example([Rect(0, 0, 4, 61), Rect(74, 0, 89, 4), Rect(132, 0, 148, 5), Rect(191, 5, 252, 9)])
def test_mirroring_rois_mirrors_each_src_and_keeps_each_dst(rois):
    # What holds under x -> side - x, for integer ROIs (so the mirror and
    # every width are exact):
    # - merging, the layout and the fit test see only overlaps, widths,
    #   heights and input order, so the same slots exist in the same order;
    # - placement starts the groups at dst x = 0 whatever the src positions,
    #   so each slot keeps its dst: the packed frame is not mirrored;
    # - expansion grows an interval half per side, spills growth clipped at
    #   one frame edge to the other side, and stops at the same neighbours,
    #   so each grown src is the mirror of the original's.
    # Only the collision bisection's fractional steps round differently on
    # the two sides, by a few ulps, hence the tolerance.
    plan = pack(rois, SRC, DST)
    flipped = pack([mirrored(r) for r in rois], SRC, DST)
    assert (plan is None) == (flipped is None)
    if plan is not None:
        flipped_layout = choose_layout(merge_overlaps([mirrored(r) for r in rois]))
        assert flipped_layout == choose_layout(merge_overlaps(rois))
        assert len(flipped.slots) == len(plan.slots)
        for s, f in zip(plan.slots, flipped.slots):
            assert close(f.dst, s.dst)
            assert close(f.src, mirrored(s.src))
            assert (f.scale_x, f.scale_y) == (s.scale_x, s.scale_y)


class TestPack:
    def test_empty_and_overflow(self):
        assert pack([], SRC, DST) is None
        five = [Rect(60 * i, 0, 60 * i + 20, 20) for i in range(5)]
        assert pack(five, SRC, DST) is None

    def test_overlapping_clusters_merge_below_limit(self):
        # Six boxes forming two overlapping clusters pack fine.
        cluster = lambda x, y: [
            Rect(x, y, x + 30, y + 30),
            Rect(x + 20, y + 20, x + 50, y + 50),
            Rect(x + 40, y + 40, x + 70, y + 70),
        ]
        plan = pack(cluster(0, 0) + cluster(200, 200), SRC, DST)
        assert plan is not None
        assert len(plan.slots) == 2
        assert plan.method is PackMethod.GREEDY

    def test_unpackable_cluster_returns_none(self):
        assert pack([Rect(0, 0, 200, 140)], SRC, DST) is None

    def test_repeated_calls_leave_no_blocks_behind(self):
        rois = [Rect(10, 10, 40, 50), Rect(200, 200, 230, 220), Rect(100, 20, 120, 60)]
        plan = pack(rois, SRC, DST)
        assert plan is not None and len(plan.slots) == 3
        assert blocks_left_by(lambda: pack(rois, SRC, DST), 2000) < 50

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            boxes = random_rois(rng, int(rng.integers(1, 5)))
            assert pack(boxes, SRC, DST) == pack(boxes, SRC, DST)

    def test_records_inputs(self):
        boxes = [Rect(10, 10, 50, 50)]
        plan = pack(boxes, SRC, DST)
        assert plan is not None
        assert plan.source == SRC
        assert plan.dest == DST
        assert plan.method is PackMethod.GREEDY

    def test_plan_invariants_fuzz(self):
        rng = np.random.default_rng(2)
        packed = 0
        for _ in range(300):
            boxes = random_rois(rng, int(rng.integers(1, 9)))
            plan = pack(boxes, SRC, DST)
            if plan is None:
                continue
            packed += 1
            slots = plan.slots
            for s in slots:
                assert s.scale_x == 1.0 and s.scale_y == 1.0
                assert SRC.bounds.contains(s.src)
                d = s.dst
                assert d.x_min >= 0 and d.y_min >= 0
                assert d.x_max <= 150.0 + 1e-9 and d.y_max <= 150.0 + 1e-9
                assert abs(d.width - s.src.width) < 1e-9
                assert abs(d.height - s.src.height) < 1e-9
            for i, a in enumerate(slots):
                for b in slots[i + 1 :]:
                    assert not (a.src.x_min < b.src.x_max and b.src.x_min < a.src.x_max
                                and a.src.y_min < b.src.y_max and b.src.y_min < a.src.y_max)
                    assert not (a.dst.x_min < b.dst.x_max and b.dst.x_min < a.dst.x_max
                                and a.dst.y_min < b.dst.y_max and b.dst.y_min < a.dst.y_max)
            for box in merge_overlaps(boxes):
                hits = [s for s in slots if s.src.contains(box)]
                assert len(hits) == 1
        assert packed > 60


class TestPackSlot:
    def test_round_trip(self):
        slot = PackSlot(src=Rect(65, 75, 215, 225), dst=Rect(0, 0, 150, 150),
                        scale_x=1.0, scale_y=1.0)
        box = Rect(100, 120, 180, 180)
        moved = slot.to_dest(box)
        assert moved == Rect(35, 45, 115, 105)
        assert slot.to_source(moved) == box

    def test_scaling_maps_extents(self):
        slot = PackSlot(src=Rect(90, 95, 210, 155), dst=Rect(0, 0, 75, 75),
                        scale_x=0.625, scale_y=1.25)
        moved = slot.to_dest(Rect(90, 95, 210, 155))
        assert moved == Rect(0, 0, 75, 75)


class TestPackNaive:
    def test_single_roi_fills_destination(self):
        plan = pack_naive([Rect(100, 100, 200, 150)], SRC, DST)
        assert plan is not None
        (slot,) = plan.slots
        assert slot.src == Rect(90, 95, 210, 155)
        assert slot.dst == Rect(0, 0, 150, 150)
        assert slot.scale_x == 1.25
        assert slot.scale_y == pytest.approx(2.5, rel=1e-12)
        assert plan.method is PackMethod.NAIVE

    def test_two_rois_split_into_columns(self):
        plan = pack_naive([Rect(0, 0, 50, 50), Rect(200, 200, 250, 250)], SRC, DST)
        assert plan is not None
        assert plan.slots[0].dst == Rect(0, 0, 75, 150)
        assert plan.slots[1].dst == Rect(75, 0, 150, 150)

    def test_three_rois_use_quadrants(self):
        rois = [Rect(0, 0, 40, 40), Rect(100, 100, 200, 150), Rect(250, 250, 290, 290)]
        plan = pack_naive(rois, SRC, DST)
        assert plan is not None
        assert [s.dst for s in plan.slots] == [
            Rect(0, 0, 75, 75),
            Rect(75, 0, 150, 75),
            Rect(0, 75, 75, 150),
        ]
        mid = plan.slots[1]
        assert mid.src == Rect(90, 95, 210, 155)
        assert mid.scale_x == 0.625
        assert mid.scale_y == 1.25

    def test_expansion_clipped_at_frame_edge(self):
        plan = pack_naive([Rect(0, 0, 100, 100)], SRC, DST)
        assert plan is not None
        assert plan.slots[0].src == Rect(0, 0, 110, 110)

    def test_no_merging_of_overlapping_rois(self):
        rois = [Rect(0, 0, 60, 60), Rect(30, 30, 90, 90)]
        plan = pack_naive(rois, SRC, DST)
        assert plan is not None
        assert len(plan.slots) == 2

    def test_empty_and_overflow(self):
        assert pack_naive([], SRC, DST) is None
        five = [Rect(50 * i, 0, 50 * i + 10, 10) for i in range(5)]
        assert pack_naive(five, SRC, DST) is None
