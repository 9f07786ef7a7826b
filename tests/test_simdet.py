import math
import random
import time

import numpy as np
import pytest
from oracles import reference_detect_draws, reference_normal_pair, reference_oracle_detect

from roipack._pcg64 import _PCG_MULT, PCG64
from roipack.geometry import FrameSpec, Rect, union_area
from roipack.packing import PackMethod, PackPlan, PackSlot, pack, pack_naive
from roipack.pipeline import FullView, GroundTruthFrame, GtObject, ReducedView
from roipack.simdet import (
    _STREAM_DETECT,
    NoiseModel,
    SimulatedDetector,
    SyntheticParams,
    _detect_draws,
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
        rects = [
            Rect(0.0, 0.0, 60.0, 60.0),  # area fraction 0.04
            Rect(0.0, 0.0, 300.0, 300.0),  # 1.0, which the clip holds at 1
            Rect(0.0, 0.0, 1e-15, 1e-15),  # about 1e-35: 0.55 + its root rounds to 0.55
        ]
        dets = oracle_detect(FullView(FRAME), gt_frame(0, rects), OFF)
        assert [d.confidence for d in dets] == [0.55 + math.sqrt(0.04), 1.0, 0.55]


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


def detection_bits(detections):
    """Each detection's exact floats, sign of zero included."""
    return [
        (
            tuple(float(v).hex() for v in (d.rect.x_min, d.rect.y_min, d.rect.x_max, d.rect.y_max)),
            d.class_id,
            float(d.confidence).hex(),
        )
        for d in detections
    ]


EDGE_KNOBS = [
    {"loc_sigma": 0.0},
    {"loc_sigma": 1.0},
    {"loc_sigma": 5e-324},  # jitter rounds to +-0.0: max/min ties at 0.0 and -0.0
    {"loc_sigma": 400.0},
    {"base_conf": (-3.0, 1.0)},  # clips at 0
    {"base_conf": (0.0, 0.0)},  # exactly 0
    {"base_conf": (-0.0, -0.0)},  # -0.0, which the clip makes 0.0
    {"base_conf": (0.9, 5.0)},  # clips at 1
    {"base_conf": (0.2, -1.0)},  # a negative gain
]


def edge_case_view(kind, frame):
    """A view whose boxes clip at `frame`'s side: the full view, a one-slot
    greedy plan mapping the whole frame onto itself, or a naive plan that
    takes `frame`'s square from the top-left of a source twice its side and
    halves x and keeps y, so that at loc_sigma=5e-324 the x sigma rounds to
    0.0 and the y sigma does not."""
    if kind == "full":
        return FullView(frame)
    whole, source = frame.bounds, frame
    if kind == "identity":
        slot, method = PackSlot(whole, whole, 1.0, 1.0), PackMethod.GREEDY
    else:
        half = Rect(0.0, 0.0, 0.5 * frame.side, frame.side)
        slot, method = PackSlot(whole, half, 0.5, 1.0), PackMethod.NAIVE
        source = FrameSpec(2 * frame.side)
    return ReducedView(PackPlan(slots=(slot,), dest=frame, method=method, source=source))


def check_edge_cases(kind, knobs, side):
    frame = FrameSpec(side)
    view = edge_case_view(kind, frame)
    rects = [
        Rect(0.0, 0.0, 40.0, 30.0),  # flush with the low edges
        Rect(250.0, 260.0, 300.0, 300.0),  # flush with the high edges
        Rect(-0.0, -0.0, 10.0, 10.0),
        Rect(0.0, -0.0, 300.0, 300.0),  # the whole frame
        Rect(120.0, 120.0, 120.0000005, 120.0000005),  # collapses under jitter
        Rect(299.0, 0.0, 300.0, 1.0),  # a corner: large jitter clips it flat
    ]
    dropped = clipped_low = clipped_high = 0
    for frame_id in range(40):
        gt = gt_frame(frame_id, rects, classes=[0, 1, 2, 0, 1, 2])
        noise = NoiseModel(seed=3, **knobs)
        got = oracle_detect(view, gt, noise)
        assert detection_bits(got) == detection_bits(reference_oracle_detect(view, gt, noise))
        if kind == "identity":
            # Equal, not bit-equal: the slot mapping turns -0.0 into 0.0.
            assert got == oracle_detect(FullView(frame), gt, noise)
        dropped += len(rects) - len(got)
        coords = [v for d in got for v in (d.rect.x_min, d.rect.y_min, d.rect.x_max, d.rect.y_max)]
        clipped_low += coords.count(0.0)
        clipped_high += coords.count(side)
    if knobs.get("loc_sigma", 1.0) >= 1.0:
        # Both clips fired and some boxes collapsed below 1e-6.
        assert dropped and clipped_low and clipped_high


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

    @pytest.mark.parametrize("side", [300.0, 300])
    @pytest.mark.parametrize("knobs", EDGE_KNOBS, ids=repr)
    def test_full_view_edge_cases(self, knobs, side):
        check_edge_cases("full", knobs, side)

    # The same cases through the reduced view's slot mapping and dst clip.
    # A separate test keeps the full view's ids as they were.
    @pytest.mark.parametrize("view", ["identity", "naive"])
    @pytest.mark.parametrize("side", [300.0, 300])
    @pytest.mark.parametrize("knobs", EDGE_KNOBS, ids=repr)
    def test_reduced_view_edge_cases(self, knobs, side, view):
        check_edge_cases(view, knobs, side)

    def test_cache_stays_bounded(self):
        _detect_draws.cache_clear()
        maxsize = _detect_draws.cache_info().maxsize
        assert maxsize is not None
        for key in range(maxsize + 500):
            _detect_draws(1, key, 0)
        assert _detect_draws.cache_info().currsize <= maxsize
        _detect_draws.cache_clear()


def numpy_draws(rng: np.random.Generator) -> tuple[tuple[float, ...], float]:
    return reference_normal_pair(rng) + reference_normal_pair(rng), rng.random()


def port_draws(rng: PCG64) -> tuple[tuple[float, ...], float]:
    return rng.normal_pair() + rng.normal_pair(), rng.next_double()


def raw_state_for(first: int, second: int) -> tuple[int, int]:
    """A raw PCG64 (state, inc) whose next two next64 outputs are `first`
    and, but for its lowest bit, `second`: each step lands on the output
    itself, whose high half is 0, so XSL-RR passes it through unrotated. The
    lowest bit of `second` is chosen to make the increment odd."""
    second = second & ~1 | (first & 1) ^ 1
    inc = (second - first * _PCG_MULT) % 2**128
    return (first - inc) * pow(_PCG_MULT, -1, 2**128) % 2**128, inc


def numpy_from_raw(state: int, inc: int) -> np.random.Generator:
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return np.random.Generator(bit_generator)


class TestDrawsEqualNumpy:
    """The generator is numpy's `default_rng(key)` stream to the bit, and its
    normals equal the independent polar-method reference over that stream."""

    def test_keys_of_several_entropy_words(self):
        rnd = random.Random(20261019)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 18446744073709551621, 2**70 + 5]
        frame_ids = [0, 1, 2**32 - 1, 2**32, 2**40 + 3]
        keys = [(s, f, i) for s in seeds for f in frame_ids for i in (0, 3, 2**32)]
        for _ in range(3000):
            keys.append((
                rnd.getrandbits(rnd.choice([1, 16, 32, 33, 64, 65, 70])),
                rnd.getrandbits(rnd.choice([1, 12, 33, 40])),
                rnd.randrange(8),
            ))
        for seed, frame_id, idx in keys:
            want = reference_detect_draws(seed, frame_id, idx)
            assert _detect_draws.__wrapped__(seed, frame_id, idx) == want, (seed, frame_id, idx)

    @pytest.mark.parametrize("length", [0, 1, 3, 4, 5, 9])
    def test_keys_shorter_and_longer_than_the_pool(self, length):
        rnd = random.Random(length)
        for _ in range(50):
            key = [rnd.getrandbits(rnd.choice([1, 32, 64])) for _ in range(length)]
            raw = np.random.default_rng(key).bit_generator.random_raw(8).tolist()
            rng = PCG64.from_key(key)
            assert [rng.next64() for _ in range(8)] == raw, key
            want = numpy_draws(np.random.default_rng(key))
            assert port_draws(PCG64.from_key(key)) == want, key

    def test_negative_key_is_refused_as_numpy_refuses_it(self):
        with pytest.raises(ValueError):
            np.random.default_rng([1, _STREAM_DETECT, -1, 0])
        with pytest.raises(ValueError):
            PCG64.from_key((1, _STREAM_DETECT, -1, 0))

    # (first, second) next64 outputs; `next_double` is the output >> 11 times
    # 2**-53, so 0 gives x = -1, 1 << 63 gives 0 and 1 << 63 | 1 << 11 gives
    # 2**-52.
    @pytest.mark.parametrize(
        "first, second, rejected",
        [
            (1 << 63, 1 << 63, True),  # x = y = 0: s == 0
            (0, 1 << 63, True),  # x = -1, y = 0: s == 1
            (0, 0, True),  # x = y = -1: s == 2
            (1 << 63 | 1 << 11, 1 << 63, False),  # s = 2**-104: a normal near 12
            (3 << 62, 1 << 62, False),  # x = 0.5, y = -0.5
        ],
    )
    def test_polar_rejections_at_their_edges(self, first, second, rejected):
        state, inc = raw_state_for(first, second)
        rng = PCG64(state, inc)
        pair = rng.normal_pair()
        assert pair == reference_normal_pair(numpy_from_raw(state, inc))
        two_steps = PCG64(state, inc)
        two_steps.next64(), two_steps.next64()
        assert (rng.state != two_steps.state) == rejected
        if not rejected:
            assert all(math.isfinite(z) for z in pair) and pair != (0.0, 0.0)

    def test_normals_match_numpy_in_distribution(self):
        # Two-sample Kolmogorov-Smirnov against numpy's standard normals;
        # 1.95 * sqrt(2 / n) is the statistic's 0.1% critical value.
        n = 20_000
        rng = PCG64.from_key((6, 0))
        ours = np.sort([z for _ in range(n // 2) for z in rng.normal_pair()])
        theirs = np.sort(np.random.default_rng(6).standard_normal(n))
        both = np.concatenate([ours, theirs])
        gap = np.searchsorted(ours, both, "right") - np.searchsorted(theirs, both, "right")
        assert np.abs(gap).max() / n < 1.95 * math.sqrt(2.0 / n)


class TestGeneratorDraws:
    """The draws `gen` makes: bounded integers, uniforms and beta."""

    def test_integers_hit_every_value_of_the_range_and_no_other(self):
        rng = PCG64.from_key((5, 0))
        for lo, hi in [(0, 1), (0, 3), (1, 5), (-2, 2), (0, 7)]:
            assert {rng.integers(lo, hi) for _ in range(2000)} == set(range(lo, hi))

    def test_uniform_stays_in_its_range(self):
        rng = PCG64.from_key((5, 0))
        for lo, hi in [(0.5, 1.5), (-2.0, 3.0), (0.0, 2.0 * math.pi)]:
            draws = [rng.uniform(lo, hi) for _ in range(20_000)]
            assert all(lo <= x < hi for x in draws)
            assert min(draws) < lo + 0.01 * (hi - lo) and max(draws) > hi - 0.01 * (hi - lo)

    # (1.2, 7.8) and (2.2, 0.39) are sparse and crowded heavy scenes; (2.2,
    # 7800.0) is a heavy scene at `gen --occupancy 0.0001`.
    @pytest.mark.parametrize("a, b", [(1.2, 7.8), (2.2, 0.39), (0.01, 0.01), (2.2, 7800.0)])
    def test_beta_mean_and_variance_near_theory(self, a, b):
        n = 20_000
        rng = PCG64.from_key((5, 0))
        draws = [rng.beta(a, b) for _ in range(n)]
        assert all(0.0 <= x <= 1.0 for x in draws)
        mean = a / (a + b)
        var = a * b / ((a + b) ** 2 * (a + b + 1.0))
        got_mean = math.fsum(draws) / n
        got_var = math.fsum((x - got_mean) ** 2 for x in draws) / (n - 1)
        assert abs(got_mean - mean) < 4.0 * math.sqrt(var / n), (got_mean, mean)
        assert abs(got_var / var - 1.0) < 0.05, (got_var, var)

    @pytest.mark.parametrize("a, b", [(1.2, 7.8), (2.2, 0.39), (0.39, 2.2), (2.2, 7800.0)])
    def test_beta_matches_numpy_in_distribution(self, a, b):
        # Two-sample Kolmogorov-Smirnov against numpy's beta; 1.95 * sqrt(2 / n)
        # is the statistic's 0.1% critical value.
        n = 20_000
        rng = PCG64.from_key((6, 0))
        ours = np.sort([rng.beta(a, b) for _ in range(n)])
        theirs = np.sort(np.random.default_rng(6).beta(a, b, n))
        both = np.concatenate([ours, theirs])
        gap = np.searchsorted(ours, both, "right") - np.searchsorted(theirs, both, "right")
        assert np.abs(gap).max() / n < 1.95 * math.sqrt(2.0 / n)

    def test_a_tiny_occupancy_generates_promptly(self):
        # Each video draws one beta whose second shape grows as 1 / occupancy.
        start = time.perf_counter()
        for seed in range(20):
            gen_synthetic(SyntheticParams(frames=5, seed=seed, occupancy_target=1e-4))
        assert time.perf_counter() - start < 2.0

    def test_the_same_key_gives_the_same_stream(self):
        def stream(key):
            rng = PCG64.from_key(key)
            return [
                (rng.integers(0, 9), rng.uniform(-1.0, 1.0), rng.beta(2.2, 0.39),
                 rng.normal_pair())
                for _ in range(200)
            ]

        assert stream((7, 0)) == stream((7, 0))
        assert stream((7, 0)) != stream((7, 1))


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

    def test_shorter_video_is_a_prefix_of_a_longer_one(self):
        # Motion is drawn frame-major from one stream per video, so frame f
        # does not depend on how many frames follow it.
        for seed in range(50):
            short = gen_synthetic(SyntheticParams(frames=10, seed=seed, num_objects=(2, 6)))
            long = gen_synthetic(SyntheticParams(frames=25, seed=seed, num_objects=(2, 6)))
            assert short == long[:10]

    def test_jitter_is_independent_noise_of_the_given_sigma(self):
        sigma = 0.5
        margin = 8.0 * sigma  # no step of less than 8 sigma reaches an edge
        steps, pairs_across_objects, pairs_across_frames = [], [], []
        for seed in range(50):
            params = SyntheticParams(
                frames=40, seed=seed, num_objects=(2, 6), velocity=(0.0, 0.0),
                jitter_sigma=sigma,
            )
            video = gen_synthetic(params)
            rects = np.array(
                [[(o.rect.x_min, o.rect.y_min, o.rect.x_max, o.rect.y_max) for o in f.objects]
                 for f in video]
            )
            centers = (rects[..., :2] + rects[..., 2:]) / 2.0
            step = centers[1:] - centers[:-1]
            # A step from a box at least `margin` inside the frame never
            # reflects, so it is the jitter draw itself.
            away = (rects[:-1, :, :2] >= margin).all(-1) & (
                rects[:-1, :, 2:] <= params.frame.side - margin
            ).all(-1)
            for f, i in zip(*np.nonzero(away)):
                steps.append(step[f, i])
                pairs_across_objects += [
                    (step[f, i], step[f, j]) for j in range(i + 1, away.shape[1]) if away[f, j]
                ]
                if f + 1 < len(step) and away[f + 1, i]:
                    pairs_across_frames.append((step[f, i], step[f + 1, i]))
        steps = np.array(steps)
        assert len(steps) > 5000
        assert np.abs(steps.mean(axis=0)).max() < 0.05 * sigma
        assert np.abs(steps.std(axis=0) / sigma - 1.0).max() < 0.05
        assert abs(np.corrcoef(steps[:, 0], steps[:, 1])[0, 1]) < 0.1
        for pairs in (pairs_across_objects, pairs_across_frames):
            pairs = np.array(pairs)
            assert len(pairs) > 2000
            for axis in (0, 1):
                assert abs(np.corrcoef(pairs[:, 0, axis], pairs[:, 1, axis])[0, 1]) < 0.1
