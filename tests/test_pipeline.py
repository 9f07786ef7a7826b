import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from allocation import blocks_left_by
from oracles import detection_bits, reference_map_back
from roipack.costmodel import CostParams, CostReport, DecisionKind, FrameDecision
from roipack import packing
from roipack.geometry import FrameSpec, Rect
from roipack.packing import PackMethod, PackPlan, PackSlot, pack, pack_naive
from roipack.pipeline import (
    Detection,
    FrameRecord,
    FullView,
    PipelineConfig,
    ReducedView,
    map_back,
    rois_from_detections,
    run_video,
    step,
)
from roipack.simdet import NoiseModel, SimulatedDetector, SyntheticParams, gen_synthetic

CFG = PipelineConfig()


def det(x0, y0, x1, y1, conf=0.9, cls=0):
    return Detection(rect=Rect(x0, y0, x1, y1), class_id=cls, confidence=conf)


class ScriptedDetector:
    """Canned per-frame outputs; records every call for assertions."""

    def __init__(self, full=None, reduced=None):
        self.full = dict(full or {})
        self.reduced = dict(reduced or {})
        self.calls = []

    def detect(self, frame_index, view):
        if isinstance(view, FullView):
            self.calls.append((frame_index, "full"))
            return list(self.full.get(frame_index, []))
        assert isinstance(view, ReducedView)
        self.calls.append((frame_index, "reduced"))
        return list(self.reduced.get(frame_index, []))


class ConstantDetector:
    def __init__(self, detections):
        self.detections = detections

    def detect(self, frame_index, view):
        return list(self.detections)


class TestValidation:
    def test_detection_confidence_range(self):
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, conf=1.5)
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, conf=-0.1)
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, cls=-1)

    def test_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PipelineConfig(anchor_interval=0)
        with pytest.raises(ValueError):
            PipelineConfig(tau=1.5)
        with pytest.raises(ValueError):
            PipelineConfig(s1=FrameSpec(150.0), s2=FrameSpec(300.0))

    def test_packed_decision_requires_plan(self):
        plan = pack([Rect(10, 10, 50, 50)], CFG.s1, CFG.s2)
        assert FrameRecord(1, FrameDecision.packed(), (), plan).plan is plan
        with pytest.raises(ValueError):
            FrameRecord(1, FrameDecision.packed(), ())
        for decision in (FrameDecision.anchor(), FrameDecision.fallback_full(),
                         FrameDecision.skipped()):
            with pytest.raises(ValueError):
                FrameRecord(1, decision, (), plan)

    def test_a_decision_is_one_shared_kind(self):
        makers = (FrameDecision.anchor, FrameDecision.packed,
                  FrameDecision.fallback_full, FrameDecision.skipped)
        assert [make().kind for make in makers] == list(DecisionKind)
        assert all(make() is make() for make in makers)
        assert FrameDecision.__slots__ == ("kind",)


class TestRoisFromDetections:
    def test_threshold_is_inclusive(self):
        dets = [det(0, 0, 1, 1, conf=0.9), det(2, 2, 3, 3, conf=0.2), det(4, 4, 5, 5, conf=0.19)]
        assert rois_from_detections(dets, 0.2) == [Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)]

    def test_low_confidence_dropped(self):
        dets = [det(0, 0, 1, 1, conf=0.9), det(2, 2, 3, 3, conf=0.19)]
        assert len(rois_from_detections(dets, 0.2)) == 1


class TestMapBack:
    def test_translation_only_slot(self):
        plan = pack([Rect(100, 120, 180, 180)], CFG.s1, CFG.s2)
        assert plan is not None  # src (65, 75, 215, 225), dst (0, 0, 150, 150)
        out = map_back([det(10, 10, 40, 40, conf=0.7, cls=2)], plan)
        assert out == [det(75, 85, 105, 115, conf=0.7, cls=2)]

    def test_straddling_detection_follows_greater_overlap(self):
        plan = pack([Rect(0, 0, 75, 150), Rect(150, 0, 225, 150)], CFG.s1, CFG.s2)
        assert plan is not None
        assert plan.slots[0].dst == Rect(0, 0, 75, 150)
        assert plan.slots[1].dst == Rect(75, 0, 150, 150)
        out = map_back([det(70, 10, 82, 20)], plan)
        # Mapped through the second slot, then clipped to that slot's src.
        assert out[0].rect == Rect(150, 10, 157, 20)

    def test_straddle_tie_takes_first_slot_and_clips(self):
        plan = pack([Rect(0, 0, 75, 150), Rect(150, 0, 225, 150)], CFG.s1, CFG.s2)
        out = map_back([det(70, 10, 80, 20)], plan)
        assert out[0].rect == Rect(70, 10, 75, 20)

    def test_detection_outside_all_slots_dropped(self):
        plan = pack([Rect(100, 120, 180, 180)], CFG.s1, CFG.s2)
        assert map_back([det(200, 200, 210, 210)], plan) == []

    def test_metadata_preserved(self):
        plan = pack([Rect(0, 0, 80, 60)], CFG.s1, CFG.s2)
        out = map_back([det(1, 2, 3, 4, conf=0.42, cls=7)], plan)
        assert out[0].class_id == 7 and out[0].confidence == 0.42


# (source side, reduced side): the defaults, an inexact reduced side, and
# the largest side the command line accepts, where an ulp is ~7e-12 px.
SIDES = [(300.0, 150.0), (300.0, 149.7), (65536.0, 32768.0)]


@st.composite
def plans(draw):
    """A greedy or a naive (scaled) plan of 1..4 ROIs."""
    source, dest = map(FrameSpec, draw(st.sampled_from(SIDES)))
    side = source.side
    rois = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.floats(side / 600, side / 6))
        h = draw(st.floats(side / 600, side / 6))
        x0 = draw(st.floats(0.0, side - w))
        y0 = draw(st.floats(0.0, side - h))
        rois.append(Rect(x0, y0, min(x0 + w, side), min(y0 + h, side)))
    packer = draw(st.sampled_from([pack, pack_naive]))
    plan = packer(rois, source, dest)
    if plan is None:  # greedy fallback: a naive plan of the same ROIs
        plan = pack_naive(rois, source, dest)
    return plan


@st.composite
def reduced_detections(draw, plan):
    """Detections in the reduced frame: anywhere, centred on an edge
    shared by two slots (equal overlaps when the slots span the same
    rows), or narrower than an ulp at the frame's far end."""
    side = plan.dest.side
    kind = draw(st.sampled_from(["anywhere", "straddle", "sliver"]))
    slot = draw(st.sampled_from(plan.slots)).dst
    if kind == "anywhere":
        x0, y0 = draw(st.floats(-1.0, side)), draw(st.floats(-1.0, side))
        x1 = x0 + draw(st.floats(1e-3, side / 2))
        y1 = y0 + draw(st.floats(1e-3, side / 2))
    elif kind == "straddle":
        edge = slot.x_max
        half = draw(st.sampled_from([0.5, 1.0, 2.25, 10.0]))
        x0, x1 = edge - half, edge + half
        y0 = draw(st.floats(slot.y_min, slot.y_max - 1e-3))
        y1 = draw(st.floats(y0 + 1e-3, slot.y_max))
    else:
        x0 = draw(st.floats(0.5 * side, side))
        x1 = math.nextafter(x0, math.inf)
        y0 = draw(st.floats(slot.y_min, slot.y_max - 1e-3))
        y1 = y0 + draw(st.sampled_from([math.ulp(y0), 1e-3, 5.0]))
    conf = draw(st.floats(0.0, 1.0))
    return Detection(Rect(x0, y0, x1, y1), draw(st.integers(0, 3)), conf)


@st.composite
def plans_and_detections(draw):
    plan = draw(plans())
    return plan, draw(st.lists(reduced_detections(plan), min_size=1, max_size=6))


def naive_pair(side):
    """A naive plan of two ROIs: dst cells split at side / 2, full height."""
    rois = [Rect(0, 0, 40, 40), Rect(200, 200, 260, 280)]
    return pack_naive(rois, FrameSpec(300.0), FrameSpec(side))


class TestMapBackMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(plans_and_detections())
    @example(
        (naive_pair(150.0), [det(70, 10, 80, 20), det(74.5, 0, 75.5, 150, conf=0.5, cls=1)])
    )
    @example((naive_pair(149.7), [det(70, 10, 79.7, 20), det(74.85, 3, 74.85000000000002, 4)]))
    def test_bit_identical(self, case):
        plan, detections = case
        got = map_back(detections, plan)
        assert detection_bits(got) == detection_bits(reference_map_back(detections, plan))

    @pytest.mark.parametrize("side", [150.0, 149.7])
    def test_tied_overlaps_go_to_the_first_slot(self, side):
        plan = naive_pair(side)
        half = 0.5 * side
        dets = [det(half - 2.0, 10, half + 2.0, 20)]
        first, second = plan.slots[0].dst, plan.slots[1].dst
        assert first.x_max == second.x_min == half
        # Equal overlap widths, so the areas tie.
        assert half - (half - 2.0) == (half + 2.0) - half
        (got,) = map_back(dets, plan)
        assert got.rect.x_max == plan.slots[0].src.x_max
        assert detection_bits([got]) == detection_bits(reference_map_back(dets, plan))

    def test_a_box_mapping_to_nothing_is_dropped(self):
        # A greedy slot translating dst x ~1 to src x ~65000: a box one ulp
        # wide at x ~1 is far narrower than an ulp at 65000.
        src, dst = Rect(65000.0, 0.0, 65100.0, 100.0), Rect(0.0, 0.0, 100.0, 100.0)
        plan = PackPlan(
            slots=(PackSlot(src, dst, 1.0, 1.0),),
            dest=FrameSpec(32768.0),
            method=PackMethod.GREEDY,
            source=FrameSpec(65536.0),
        )
        sliver = det(1.0, 1.0, math.nextafter(1.0, 2.0), 2.0)
        wide = det(1.0, 1.0, 3.0, 2.0)
        assert map_back([sliver, wide], plan) == [det(65001.0, 1.0, 65003.0, 2.0)]
        assert reference_map_back([sliver, wide], plan) == map_back([sliver, wide], plan)


class TestStep:
    def test_anchor_every_interval(self):
        detector = ConstantDetector([det(10, 10, 50, 50)])
        for i in (0, 5, 10, 100):
            assert step([det(10, 10, 50, 50)], i, CFG, detector).decision is FrameDecision.anchor()
        assert step([det(10, 10, 50, 50)], 7, CFG, detector).decision is FrameDecision.packed()

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            step([], -1, CFG, ConstantDetector([]))

    def test_no_rois_skips_without_calling_detector(self):
        detector = ScriptedDetector()
        record = step([], 3, CFG, detector)
        assert record.decision.kind is DecisionKind.SKIPPED
        assert record.detections == ()
        assert detector.calls == []

    def test_below_threshold_rois_also_skip(self):
        detector = ScriptedDetector()
        record = step([det(0, 0, 50, 50, conf=0.1)], 2, CFG, detector)
        assert record.decision.kind is DecisionKind.SKIPPED

    def test_unpackable_rois_fall_back_to_full(self):
        prev = [det(0, 0, 200, 140), det(210, 160, 300, 300)]
        detector = ScriptedDetector(full={4: [det(5, 5, 20, 20)]})
        record = step(prev, 4, CFG, detector)
        assert record.decision.kind is DecisionKind.FALLBACK_FULL
        assert record.plan is None
        assert detector.calls == [(4, "full")]
        assert record.detections == (det(5, 5, 20, 20),)

    def test_injected_packer_controls_fallback(self):
        prev = [det(10, 10, 50, 50)]
        record = step(prev, 1, CFG, ScriptedDetector(), packer=lambda rois, s1, s2: None)
        assert record.decision.kind is DecisionKind.FALLBACK_FULL

    def test_packed_frame_maps_detections_back(self):
        prev = [det(100, 120, 180, 180)]
        detector = ScriptedDetector(reduced={1: [det(10, 10, 40, 40, conf=0.8)]})
        record = step(prev, 1, CFG, detector)
        assert record.decision.kind is DecisionKind.PACKED
        assert record.plan == pack([Rect(100, 120, 180, 180)], CFG.s1, CFG.s2)
        assert record.detections == (det(75, 85, 105, 115, conf=0.8),)
        assert detector.calls == [(1, "reduced")]


class TestRunVideo:
    def test_video_needs_a_frame(self):
        with pytest.raises(ValueError, match="at least one frame"):
            run_video(0, CFG, ConstantDetector([]))
        run = run_video(1, CFG, ConstantDetector([]))
        assert [r.decision.kind for r in run.records] == [DecisionKind.ANCHOR]
        assert isinstance(run.cost, CostReport)

    def test_skip_cascade_until_next_anchor(self):
        detector = ScriptedDetector(full={0: [det(10, 10, 50, 50)]})
        run = run_video(6, CFG, detector)
        kinds = [r.decision.kind for r in run.records]
        assert kinds == [
            DecisionKind.ANCHOR,
            DecisionKind.PACKED,
            DecisionKind.SKIPPED,
            DecisionKind.SKIPPED,
            DecisionKind.SKIPPED,
            DecisionKind.ANCHOR,
        ]
        assert detector.calls == [(0, "full"), (1, "reduced"), (5, "full")]

    def test_steady_packing_with_persistent_detector(self):
        detector = ConstantDetector([det(10, 10, 50, 50)])
        run = run_video(12, CFG, detector)
        kinds = [r.decision.kind for r in run.records]
        anchors = [i for i, k in enumerate(kinds) if k is DecisionKind.ANCHOR]
        assert anchors == [0, 5, 10]
        assert all(k is DecisionKind.PACKED for i, k in enumerate(kinds) if i not in anchors)

    def test_records_are_indexed_and_replayable(self):
        params = SyntheticParams(frames=25, seed=3)
        video = gen_synthetic(params)
        detector = SimulatedDetector(video, NoiseModel(seed=3))
        run = run_video(len(video), CFG, detector)
        assert [r.index for r in run.records] == list(range(25))
        for i in range(1, 25):
            assert step(run.records[i - 1].detections, i, CFG, detector) == run.records[i]

    def test_repeated_videos_leave_no_blocks_behind(self):
        # TestRunMemory.test_live_objects_do_not_grow_with_the_run counts
        # gc.get_objects(), and a tuple parked on a free list is on no gc
        # list, so it could not see the tuples each video left there.
        video = gen_synthetic(SyntheticParams(frames=20, seed=4))
        noise = NoiseModel(seed=7)

        def one_video():
            return run_video(len(video), CFG, SimulatedDetector(video, noise))

        kinds = {r.decision.kind for r in one_video().records}
        assert {DecisionKind.PACKED, DecisionKind.FALLBACK_FULL} <= kinds
        assert blocks_left_by(one_video, 500) < 50

    def test_cost_aggregation_uses_frame_sizes(self):
        run = run_video(10, CFG, ScriptedDetector())  # nothing ever detected
        kinds = [r.decision.kind for r in run.records]
        assert kinds.count(DecisionKind.ANCHOR) == 2
        assert kinds.count(DecisionKind.SKIPPED) == 8
        cost = run.cost
        assert cost is not None
        assert cost.baseline == 900000.0
        assert cost.total == 180000.0
        assert cost.flop_reduction == pytest.approx(0.8, abs=1e-12)
        assert cost.speedup == 1.0 / (1.0 - cost.flop_reduction)
        assert cost.decision_fractions["anchor"] == pytest.approx(0.2)
        assert cost.decision_fractions["skipped"] == pytest.approx(0.8)

    def test_explicit_cost_params_respected(self):
        params = CostParams(flops_full=100.0, flops_reduced=25.0, pack_overhead=0.0)
        run = run_video(5, CFG, ScriptedDetector(), cost_params=params)
        assert run.cost is not None
        assert run.cost.baseline == 500.0
        assert run.cost.total == 100.0


class TestPackingTraceContract:
    """The benchmark's tracer wraps `roipack.packing.place_and_fit` and
    `expand_greedy` by name and derives the fit ratio and the count of
    frames with too many regions from their calls. So `pack` calls both as
    module globals: place_and_fit exactly when the merge leaves at most
    MAX_SLOTS boxes, with a result exactly when they fit, and expand_greedy
    exactly on the frames that are packed."""

    def test_spied_calls_match_the_decisions(self, monkeypatch):
        calls = dict.fromkeys(("pack", "crowded", "placed", "fit", "expanded"), 0)
        place_and_fit, expand_greedy = packing.place_and_fit, packing.expand_greedy

        def spied_place_and_fit(*args):
            result = place_and_fit(*args)
            calls["placed"] += 1
            calls["fit"] += result is not None
            return result

        def spied_expand_greedy(*args):
            calls["expanded"] += 1
            return expand_greedy(*args)

        def packer(rois, source, dest):
            calls["pack"] += 1
            calls["crowded"] += len(packing.merge_overlaps(rois)) > packing.MAX_SLOTS
            return packing.pack(rois, source, dest)

        monkeypatch.setattr(packing, "place_and_fit", spied_place_and_fit)
        monkeypatch.setattr(packing, "expand_greedy", spied_expand_greedy)
        packed = 0
        # One video packs its frames, one does not fit and one has too many
        # regions.
        for seed, objects in [(0, (1, 4)), (2, (1, 4)), (0, (5, 6))]:
            params = SyntheticParams(frames=30, seed=seed, num_objects=objects, occupancy_target=0.1)
            frames = gen_synthetic(params)
            run = run_video(len(frames), CFG, SimulatedDetector(frames, NoiseModel(seed=1)),
                            packer=packer)
            packed += sum(r.decision.kind is DecisionKind.PACKED for r in run.records)
        assert calls["fit"] == calls["expanded"] == packed
        assert calls["pack"] - calls["placed"] == calls["crowded"]
        # Every outcome occurs: packed, too many regions, and boxes that do not fit.
        assert packed > 0 and calls["crowded"] > 0 and calls["placed"] > calls["fit"], calls
