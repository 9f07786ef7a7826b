import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import brute_components, reference_pack
from roipack.geometry import FrameSpec, Rect
from roipack.packing import (
    MAX_SLOTS,
    Axis,
    Layout,
    PackMethod,
    PackPlan,
    PackSlot,
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
        assert layout.slot_count == 1
        assert layout.assignment == ((0, 0),)

    def test_tall_boxes_go_to_columns(self):
        layout = choose_layout([Rect(0, 0, 30, 100), Rect(50, 0, 80, 90)])
        assert layout.primary_axis is Axis.HORIZONTAL
        assert layout.assignment == ((0, 0), (1, 0))

    def test_wide_boxes_go_to_rows(self):
        layout = choose_layout([Rect(0, 0, 120, 40), Rect(150, 200, 260, 240)])
        assert layout.primary_axis is Axis.VERTICAL
        assert layout.assignment == ((0, 0), (1, 0))

    def test_square_tie_prefers_columns(self):
        assert choose_layout([Rect(0, 0, 50, 50)]).primary_axis is Axis.HORIZONTAL

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
        assert layout.primary_axis is Axis.HORIZONTAL
        assert layout.assignment == ((0, 1), (0, 0), (1, 1), (1, 0))

    def test_rank_ties_broken_by_index(self):
        layout = choose_layout([Rect(0, 0, 30, 100), Rect(50, 0, 80, 100)])
        assert layout.assignment == ((0, 0), (1, 0))

    @pytest.mark.parametrize("count", [0, MAX_SLOTS + 1])
    def test_box_count_out_of_range(self, count):
        with pytest.raises(ValueError):
            choose_layout([Rect(0, 0, 1, 1)] * count if count else [])

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            Layout(slot_count=2, primary_axis=Axis.HORIZONTAL, assignment=((0, 0),))


class TestPlaceAndFit:
    def test_single_box_flush_at_origin(self):
        box = Rect(100, 120, 180, 180)
        plan = place_and_fit([box], choose_layout([box]), SRC, DST)
        assert plan is not None
        (slot,) = plan.slots
        assert slot.src == Rect(100, 120, 180, 180)
        assert slot.dst == Rect(0, 0, 80, 60)
        assert slot.scale_x == 1.0 and slot.scale_y == 1.0

    def test_plan_keeps_the_given_source_frame(self):
        box = Rect(100, 120, 180, 180)
        source = FrameSpec(400.0)
        plan = place_and_fit([box], choose_layout([box]), source, DST)
        assert plan is not None
        assert plan.source is source

    def test_single_box_too_wide(self):
        box = Rect(0, 0, 200, 90)
        assert place_and_fit([box], choose_layout([box]), SRC, DST) is None

    def test_pair_exceeding_width_budget(self):
        boxes = [Rect(0, 0, 100, 140), Rect(120, 0, 180, 130)]
        assert place_and_fit(boxes, choose_layout(boxes), SRC, DST) is None

    def test_pair_within_budget(self):
        boxes = [Rect(0, 0, 100, 140), Rect(120, 0, 170, 130)]
        plan = place_and_fit(boxes, choose_layout(boxes), SRC, DST)
        assert plan is not None
        assert plan.slots[0].dst == Rect(0, 0, 100, 140)
        assert plan.slots[1].dst == Rect(100, 0, 150, 130)

    def test_rows_stack_downward(self):
        boxes = [Rect(0, 0, 120, 40), Rect(150, 200, 260, 240)]
        plan = place_and_fit(boxes, choose_layout(boxes), SRC, DST)
        assert plan is not None
        assert plan.slots[0].dst == Rect(0, 0, 120, 40)
        assert plan.slots[1].dst == Rect(0, 40, 110, 80)

    def test_three_boxes_second_column_stacks(self):
        boxes = [Rect(0, 0, 80, 150), Rect(100, 0, 160, 70), Rect(200, 0, 265, 75)]
        plan = place_and_fit(boxes, choose_layout(boxes), SRC, DST)
        assert plan is not None
        assert plan.slots[0].dst == Rect(0, 0, 80, 150)
        assert plan.slots[2].dst == Rect(80, 0, 145, 75)
        assert plan.slots[1].dst == Rect(80, 75, 140, 145)

    def test_stack_height_budget_enforced(self):
        # Column widths fit (80 + 70 <= 150) but the second column stacks
        # 90 + 80 = 170 > 150.
        boxes = [Rect(0, 0, 80, 150), Rect(100, 0, 170, 90), Rect(200, 100, 265, 180)]
        assert place_and_fit(boxes, choose_layout(boxes), SRC, DST) is None


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
            placed = place_and_fit(merged, layout, SRC, DST)
            if placed is None:
                continue
            grown = expand_greedy(placed)
            for before, after in zip(placed.slots, grown.slots):
                assert after.src.contains(before.src)
                assert after.src.area >= before.src.area

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
        assert flipped.layout == plan.layout
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
        assert plan.layout is not None

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
