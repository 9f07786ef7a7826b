import math

import numpy as np
import pytest
from oracles import reference_oracle_detect

from roipack.geometry import FrameSpec, Rect, union_area
from roipack.packing import PackMethod, PackPlan, PackSlot, pack, pack_naive
from roipack.pipeline import FullView, GroundTruthFrame, GtObject, ReducedView
from roipack.simdet import (
    NoiseModel,
    SimulatedDetector,
    SyntheticParams,
    _detect_draws,
    base_confidence,
    gen_synthetic,
    oracle_detect,
)
from roipack.stats import temporal_region_iou

FRAME = FrameSpec(300.0)
OFF = NoiseModel.disabled()


def gt_frame(frame_id, rects, classes=None):
    classes = classes or [0] * len(rects)
    objects = tuple(GtObject(class_id=c, rect=r) for c, r in zip(classes, rects))
    return GroundTruthFrame(frame_id=frame_id, objects=objects)


def slot_plan(src, dst, scale_x=1.0, scale_y=1.0):
    slot = PackSlot(src=src, dst=dst, scale_x=scale_x, scale_y=scale_y)
    return PackPlan(slots=(slot,), dest=FrameSpec(150.0), method=PackMethod.GREEDY,
                    source=FRAME)


class TestNoiseModel:
    def test_disabled_turns_everything_off(self):
        off = NoiseModel.disabled(seed=5)
        assert off.loc_sigma == 0.0
        assert off.margin_miss == (0.0, 0.0)
        assert off.scale_penalty == 1.0
        assert off.seed == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -1},
            {"loc_sigma": -0.5},
            {"margin_miss": (-1.0, 0.5)},
            {"margin_miss": (4.0, 1.5)},
            {"scale_penalty": 0.0},
            {"scale_penalty": 1.2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)

    def test_base_confidence_formula(self):
        assert base_confidence(OFF, 0.04) == 0.55 + math.sqrt(0.04)
        assert base_confidence(OFF, 1.0) == 1.0  # clipped
        assert base_confidence(OFF, 0.0) == 0.55


class TestFullView:
    def test_noise_off_reports_exact_boxes(self):
        rects = [Rect(30, 40, 70, 90), Rect(150, 150, 210, 210)]
        gt = gt_frame(0, rects, classes=[1, 0])
        dets = oracle_detect(FullView(FRAME), gt, OFF)
        assert [d.rect for d in dets] == rects
        assert [d.class_id for d in dets] == [1, 0]
        expected = [0.55 + math.sqrt(r.area / 90000.0) for r in rects]
        assert [d.confidence for d in dets] == expected

    def test_confidence_caps_at_one(self):
        gt = gt_frame(0, [Rect(0, 0, 300, 300)])
        (d,) = oracle_detect(FullView(FRAME), gt, OFF)
        assert d.confidence == 1.0

    def test_jitter_is_deterministic_and_in_bounds(self):
        rng = np.random.default_rng(12)
        rects = []
        for _ in range(30):
            w, h = rng.uniform(10, 80, 2)
            x = float(rng.uniform(0, 300 - w))
            y = float(rng.uniform(0, 300 - h))
            rects.append(Rect(x, y, x + w, y + h))
        gt = gt_frame(4, rects)
        noisy = NoiseModel(seed=9, loc_sigma=3.0)
        first = oracle_detect(FullView(FRAME), gt, noisy)
        second = oracle_detect(FullView(FRAME), gt, noisy)
        assert first == second
        assert any(d.rect != r for d, r in zip(first, rects))
        for d in first:
            assert FRAME.bounds.contains(d.rect)

    def test_extreme_jitter_can_collapse_boxes(self):
        gt = gt_frame(0, [Rect(140 + i, 140, 141 + i, 141) for i in range(0, 60, 2)])
        wild = NoiseModel(seed=1, loc_sigma=40.0)
        dets = oracle_detect(FullView(FRAME), gt, wild)
        assert len(dets) < len(gt.objects)
        for d in dets:
            assert FRAME.bounds.contains(d.rect)

    def test_different_seeds_differ(self):
        gt = gt_frame(2, [Rect(50, 50, 120, 120)])
        a = oracle_detect(FullView(FRAME), gt, NoiseModel(seed=0))
        b = oracle_detect(FullView(FRAME), gt, NoiseModel(seed=1))
        assert a != b


class TestReducedView:
    def test_noise_off_round_trips_through_slot(self):
        rects = [Rect(100, 120, 180, 180)]
        plan = pack(rects, FRAME, FrameSpec(150.0))
        assert plan is not None
        gt = gt_frame(0, rects, classes=[2])
        (d,) = oracle_detect(ReducedView(plan), gt, OFF)
        slot = plan.slots[0]
        assert d.rect == slot.to_dest(rects[0])
        assert d.class_id == 2
        # Same area fraction as the full view, no scale penalty at scale 1.
        assert d.confidence == 0.55 + math.sqrt(rects[0].area / 90000.0)

    def test_object_center_outside_slots_is_invisible(self):
        plan = slot_plan(Rect(0, 0, 100, 100), Rect(0, 0, 100, 100))
        gt = gt_frame(0, [Rect(150, 150, 200, 200)])
        assert oracle_detect(ReducedView(plan), gt, OFF) == []

    def test_center_on_slot_edge_counts_as_inside(self):
        plan = slot_plan(Rect(0, 0, 100, 100), Rect(0, 0, 100, 100))
        gt = gt_frame(0, [Rect(50, 50, 150, 150)])  # center exactly (100, 100)
        dets = oracle_detect(ReducedView(plan), gt, OFF)
        assert len(dets) == 1
        # Visible part is the slot's portion of the box.
        assert dets[0].rect == Rect(50, 50, 100, 100)

    def test_plan_without_source_rejected(self):
        slot = PackSlot(src=Rect(0, 0, 100, 100), dst=Rect(0, 0, 100, 100),
                        scale_x=1.0, scale_y=1.0)
        with pytest.raises(TypeError):
            PackPlan(slots=(slot,), dest=FrameSpec(150.0), method=PackMethod.GREEDY)


class TestMarginMiss:
    ALWAYS = NoiseModel(seed=0, loc_sigma=0.0, margin_miss=(8.0, 1.0), scale_penalty=1.0)

    def test_tight_crop_always_missed_at_probability_one(self):
        plan = slot_plan(Rect(20, 20, 120, 120), Rect(0, 0, 100, 100))
        gt = gt_frame(0, [Rect(50, 50, 115, 95)])  # 5 px from the crop's right edge
        assert oracle_detect(ReducedView(plan), gt, self.ALWAYS) == []

    def test_roomy_crop_never_missed(self):
        plan = slot_plan(Rect(20, 20, 120, 120), Rect(0, 0, 100, 100))
        gt = gt_frame(0, [Rect(30, 30, 110, 110)])  # 10 px margin all around
        assert len(oracle_detect(ReducedView(plan), gt, self.ALWAYS)) == 1

    def test_frame_boundary_sides_do_not_count(self):
        # The crop touches the frame corner, so its left/top edges provide
        # all the context the frame has; only right/bottom margins matter.
        plan = slot_plan(Rect(0, 0, 150, 150), Rect(0, 0, 150, 150))
        gt = gt_frame(0, [Rect(0.5, 0.5, 10, 10)])
        assert len(oracle_detect(ReducedView(plan), gt, self.ALWAYS)) == 1

    def test_zero_probability_keeps_tight_crops(self):
        never = NoiseModel(seed=0, loc_sigma=0.0, margin_miss=(8.0, 0.0), scale_penalty=1.0)
        plan = slot_plan(Rect(20, 20, 120, 120), Rect(0, 0, 100, 100))
        gt = gt_frame(0, [Rect(21, 21, 119, 119)])
        assert len(oracle_detect(ReducedView(plan), gt, never)) == 1


class TestScalePenalty:
    def test_distorted_slots_lose_confidence(self):
        rects = [Rect(100, 100, 200, 150)]
        plan = pack_naive(rects, FRAME, FrameSpec(150.0))
        assert plan is not None
        noise = NoiseModel(seed=0, loc_sigma=0.0, margin_miss=(0.0, 0.0), scale_penalty=0.35)
        gt = gt_frame(0, rects)
        (d,) = oracle_detect(ReducedView(plan), gt, noise)
        slot = plan.slots[0]
        deviation = abs(slot.scale_x - 1.0) + abs(slot.scale_y - 1.0)
        assert deviation > 0
        base = 0.55 + math.sqrt(rects[0].area / 90000.0)
        assert d.confidence == base * 0.35**deviation
        assert d.confidence < base

    def test_penalty_of_one_is_neutral(self):
        rects = [Rect(100, 100, 200, 150)]
        plan = pack_naive(rects, FRAME, FrameSpec(150.0))
        gt = gt_frame(0, rects)
        (d,) = oracle_detect(ReducedView(plan), gt, OFF)
        assert d.confidence == 0.55 + math.sqrt(rects[0].area / 90000.0)

    def test_sharper_penalty_hurts_more(self):
        rects = [Rect(100, 100, 200, 150)]
        plan = pack_naive(rects, FRAME, FrameSpec(150.0))
        gt = gt_frame(0, rects)
        soft = NoiseModel(seed=0, loc_sigma=0.0, margin_miss=(0.0, 0.0), scale_penalty=0.8)
        hard = NoiseModel(seed=0, loc_sigma=0.0, margin_miss=(0.0, 0.0), scale_penalty=0.2)
        (d_soft,) = oracle_detect(ReducedView(plan), gt, soft)
        (d_hard,) = oracle_detect(ReducedView(plan), gt, hard)
        assert d_hard.confidence < d_soft.confidence


class TestSimulatedDetector:
    def test_wraps_frames_by_position(self):
        frames = [gt_frame(i, [Rect(10 + i, 10, 60 + i, 60)]) for i in range(3)]
        detector = SimulatedDetector(frames, OFF)
        dets = detector.detect(2, FullView(FRAME))
        assert dets == oracle_detect(FullView(FRAME), frames[2], OFF)

    def test_out_of_range_index(self):
        detector = SimulatedDetector([gt_frame(0, [Rect(0, 0, 10, 10)])], OFF)
        with pytest.raises(IndexError):
            detector.detect(1, FullView(FRAME))
        with pytest.raises(IndexError):
            detector.detect(-1, FullView(FRAME))


def _detect_cases():
    """(frame, views) over two videos that share frame ids.

    Reduced views come from packing the previous frame's ground truth, as
    the pipeline packs the previous frame's detections.
    """
    cases = []
    for video_seed in (11, 12):
        params = SyntheticParams(num_objects=(2, 6), occupancy_target=0.08, frames=30,
                                 seed=video_seed)
        video = gen_synthetic(params)
        for i, gt in enumerate(video):
            views = [FullView(FRAME)]
            rois = [obj.rect for obj in video[i - 1].objects] if i else []
            for packer in (pack, pack_naive):
                plan = packer(rois, FRAME, FrameSpec(150.0)) if rois else None
                if plan is not None:
                    views.append(ReducedView(plan))
            cases.append((gt, views))
    return cases


DETECT_CASES = _detect_cases()
NOISE_SEEDS = (0, 5)


def _visit_orders():
    forwards = [(seed, case) for seed in NOISE_SEEDS for case in DETECT_CASES]
    interleaved = [(seed, case) for case in DETECT_CASES for seed in NOISE_SEEDS]
    mixed = [
        pair
        for a, b in zip(DETECT_CASES, reversed(DETECT_CASES))
        for pair in ((NOISE_SEEDS[0], a), (NOISE_SEEDS[1], b))
    ]
    return {
        "forwards": forwards,
        "reversed": forwards[::-1],
        "interleaved": interleaved,
        "mixed": mixed,
    }


class TestDetectMatchesReference:
    """The memoized detector equals the one that draws afresh per object."""

    def test_cases_cover_both_packers(self):
        methods = {
            view.plan.method
            for _, views in DETECT_CASES
            for view in views
            if isinstance(view, ReducedView)
        }
        assert methods == {PackMethod.GREEDY, PackMethod.NAIVE}

    @pytest.mark.parametrize("order", list(_visit_orders()))
    @pytest.mark.parametrize("profile", ["default", "off"])
    def test_equal_detections_in_any_visit_order(self, order, profile):
        _detect_draws.cache_clear()
        for seed, (gt, views) in _visit_orders()[order]:
            noise = NoiseModel(seed=seed) if profile == "default" else NoiseModel.disabled(seed)
            for view in views:
                assert oracle_detect(view, gt, noise) == reference_oracle_detect(view, gt, noise)
        assert _detect_draws.cache_info().hits > 0

    def test_cache_stays_bounded(self):
        _detect_draws.cache_clear()
        maxsize = _detect_draws.cache_info().maxsize
        assert maxsize is not None
        for key in range(maxsize + 500):
            _detect_draws(1, key, 0)
        assert _detect_draws.cache_info().currsize <= maxsize
        _detect_draws.cache_clear()


class TestSyntheticParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_objects": (0, 4)},
            {"num_objects": (3, 2)},
            {"occupancy_target": 0.0},
            {"occupancy_target": 1.0},
            {"velocity": (-0.1, 1.0)},
            {"velocity": (1.0, 0.5)},
            {"jitter_sigma": -1.0},
            {"frames": 0},
            {"seed": -2},
            {"num_classes": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticParams(**kwargs)


class TestGenSynthetic:
    def test_deterministic_per_seed(self):
        params = SyntheticParams(frames=20, seed=6)
        assert gen_synthetic(params) == gen_synthetic(params)
        assert gen_synthetic(params) != gen_synthetic(SyntheticParams(frames=20, seed=7))

    def test_frame_ids_and_object_persistence(self):
        video = gen_synthetic(SyntheticParams(frames=15, seed=1))
        assert [f.frame_id for f in video] == list(range(15))
        counts = {len(f.objects) for f in video}
        assert len(counts) == 1
        first = video[0].objects
        for frame in video:
            assert [o.class_id for o in frame.objects] == [o.class_id for o in first]

    def test_objects_stay_in_frame_with_valid_classes(self):
        for seed in range(8):
            params = SyntheticParams(frames=30, seed=seed, num_classes=3)
            for frame in gen_synthetic(params):
                for obj in frame.objects:
                    assert FRAME.bounds.contains(obj.rect)
                    assert 0 <= obj.class_id < 3

    def test_static_scene_never_moves(self):
        params = SyntheticParams(frames=10, seed=4, velocity=(0.0, 0.0), jitter_sigma=0.0)
        video = gen_synthetic(params)
        for frame in video[1:]:
            assert frame.objects == video[0].objects
        assert temporal_region_iou(video[0], video[1], params.frame) == 1.0

    def test_slow_scenes_have_high_temporal_overlap(self):
        params = SyntheticParams(frames=40, seed=13)
        video = gen_synthetic(params)
        ious = [temporal_region_iou(a, b, params.frame) for a, b in zip(video, video[1:])]
        assert np.mean(ious) >= 0.9

    def test_population_occupancy_near_target(self):
        # Needs full-length videos: short clips stay close to the overlap-free
        # initial placement, which biases occupancy high.
        seeds = np.random.SeedSequence(0).generate_state(100)
        occ = []
        for s in seeds:
            video = gen_synthetic(SyntheticParams(frames=100, seed=int(s)))
            occ.extend(
                union_area([o.rect for o in f.objects]) / 90000.0 for f in video
            )
        assert abs(float(np.mean(occ)) - 0.227) < 0.04

    def test_respects_object_count_range(self):
        for seed in range(10):
            video = gen_synthetic(SyntheticParams(frames=5, seed=seed, num_objects=(2, 3)))
            assert 2 <= len(video[0].objects) <= 3
