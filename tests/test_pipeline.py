import pytest

from roipack.costmodel import CostParams, DecisionKind, FrameDecision
from roipack.geometry import FrameSpec, Rect
from roipack.packing import pack
from roipack.pipeline import (
    Detection,
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
        with pytest.raises(ValueError):
            FrameDecision(kind=DecisionKind.PACKED)
        with pytest.raises(ValueError):
            plan = pack([Rect(10, 10, 50, 50)], CFG.s1, CFG.s2)
            FrameDecision(kind=DecisionKind.SKIPPED, plan=plan)


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


class TestStep:
    def test_anchor_every_interval(self):
        detector = ConstantDetector([det(10, 10, 50, 50)])
        for i in (0, 5, 10, 100):
            decision, _ = step([det(10, 10, 50, 50)], i, CFG, detector)
            assert decision.kind is DecisionKind.ANCHOR
        decision, _ = step([det(10, 10, 50, 50)], 7, CFG, detector)
        assert decision.kind is DecisionKind.PACKED

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            step([], -1, CFG, ConstantDetector([]))

    def test_no_rois_skips_without_calling_detector(self):
        detector = ScriptedDetector()
        decision, detections = step([], 3, CFG, detector)
        assert decision.kind is DecisionKind.SKIPPED
        assert detections == []
        assert detector.calls == []

    def test_below_threshold_rois_also_skip(self):
        detector = ScriptedDetector()
        decision, _ = step([det(0, 0, 50, 50, conf=0.1)], 2, CFG, detector)
        assert decision.kind is DecisionKind.SKIPPED

    def test_unpackable_rois_fall_back_to_full(self):
        prev = [det(0, 0, 200, 140), det(210, 160, 300, 300)]
        detector = ScriptedDetector(full={4: [det(5, 5, 20, 20)]})
        decision, detections = step(prev, 4, CFG, detector)
        assert decision.kind is DecisionKind.FALLBACK_FULL
        assert decision.plan is None
        assert detector.calls == [(4, "full")]
        assert detections == [det(5, 5, 20, 20)]

    def test_injected_packer_controls_fallback(self):
        prev = [det(10, 10, 50, 50)]
        decision, _ = step(prev, 1, CFG, ScriptedDetector(), packer=lambda rois, s1, s2: None)
        assert decision.kind is DecisionKind.FALLBACK_FULL

    def test_packed_frame_maps_detections_back(self):
        prev = [det(100, 120, 180, 180)]
        detector = ScriptedDetector(reduced={1: [det(10, 10, 40, 40, conf=0.8)]})
        decision, detections = step(prev, 1, CFG, detector)
        assert decision.kind is DecisionKind.PACKED
        assert decision.plan is not None
        assert detections == [det(75, 85, 105, 115, conf=0.8)]
        assert detector.calls == [(1, "reduced")]


class TestRunVideo:
    def test_empty_video(self):
        run = run_video(0, CFG, ConstantDetector([]))
        assert run.records == ()
        assert run.cost is None

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
            decision, detections = step(run.records[i - 1].detections, i, CFG, detector)
            assert decision.kind is run.records[i].decision.kind
            assert detections == list(run.records[i].detections)

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
