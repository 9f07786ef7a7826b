import math

import numpy as np
import pytest

from roipack.costmodel import CostParams, DecisionKind, FrameDecision, aggregate, frame_cost
from roipack.geometry import FrameSpec


def left_fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


DEFAULT = CostParams()
NO_OVERHEAD = CostParams(pack_overhead=0.0)

ANCHOR = FrameDecision.anchor()
PACKED = FrameDecision.packed()
FALLBACK = FrameDecision.fallback_full()
SKIPPED = FrameDecision.skipped()
ALL_KINDS = (ANCHOR, PACKED, FALLBACK, SKIPPED)


class TestCostParams:
    def test_defaults(self):
        assert DEFAULT.flops_full == 90000.0
        assert DEFAULT.flops_reduced == 22500.0
        assert DEFAULT.pack_overhead == 0.02
        assert DEFAULT.skip_cost == 0.0

    def test_for_frames_squares_sides(self):
        p = CostParams.for_frames(FrameSpec(300.0), FrameSpec(150.0))
        assert p.flops_full == 90000.0
        assert p.flops_reduced == 22500.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"flops_full": 0.0},
            {"flops_reduced": -1.0},
            {"flops_reduced": 100000.0},  # larger than full
            {"pack_overhead": -0.01},
            {"skip_cost": -1.0},
            {"flops_full": math.inf},
            {"flops_reduced": math.nan},
            {"pack_overhead": math.inf},
            {"skip_cost": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CostParams(**kwargs)


class TestFrameCost:
    def test_anchor(self):
        assert frame_cost(ANCHOR, DEFAULT) == 90000.0

    def test_packed_without_overhead(self):
        assert frame_cost(PACKED, NO_OVERHEAD) == 22500.0

    def test_packed_with_default_overhead(self):
        assert frame_cost(PACKED, DEFAULT) == 24300.0

    def test_fallback_pays_overhead_plus_full(self):
        assert frame_cost(FALLBACK, DEFAULT) == 91800.0
        assert frame_cost(FALLBACK, NO_OVERHEAD) == 90000.0

    def test_skipped(self):
        assert frame_cost(SKIPPED, DEFAULT) == 0.0
        assert frame_cost(SKIPPED, CostParams(skip_cost=12.0)) == 12.0

    def test_reduced_to_full_ratio_is_quarter(self):
        assert frame_cost(PACKED, NO_OVERHEAD) / frame_cost(ANCHOR, NO_OVERHEAD) == 0.25


def steady_cycle(n_cycles):
    """Anchor followed by four packed frames, repeated."""
    return [ANCHOR, PACKED, PACKED, PACKED, PACKED] * n_cycles


class TestAggregate:
    def test_steady_state_reduction_without_overhead(self):
        report = aggregate(steady_cycle(1), NO_OVERHEAD)
        assert report.total == 180000.0
        assert report.baseline == 450000.0
        assert report.flop_reduction == 0.6

    def test_steady_state_reduction_with_overhead(self):
        report = aggregate(steady_cycle(1), CostParams(pack_overhead=0.09))
        assert report.total == pytest.approx(212400.0, abs=1e-9)
        assert report.flop_reduction == pytest.approx(0.528, abs=1e-12)

    def test_all_anchors_is_the_baseline(self):
        report = aggregate([ANCHOR] * 7, DEFAULT)
        assert report.flop_reduction == 0.0
        assert report.speedup == 1.0
        assert report.overhead_share == 0.0

    def test_all_skipped_with_free_skips(self):
        report = aggregate([SKIPPED] * 5, DEFAULT)
        assert report.flop_reduction == 1.0
        assert report.speedup == math.inf

    def test_speedup_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            mix = [ALL_KINDS[i] for i in rng.integers(0, 4, size=int(rng.integers(1, 40)))]
            report = aggregate(mix, DEFAULT)
            if report.flop_reduction >= 1.0:
                assert report.speedup == math.inf
            else:
                assert report.speedup == 1.0 / (1.0 - report.flop_reduction)

    def test_order_invariant(self):
        rng = np.random.default_rng(5)
        mix = [ALL_KINDS[i] for i in rng.integers(0, 4, size=30)]
        base = aggregate(mix, DEFAULT)
        for _ in range(5):
            perm = [mix[i] for i in rng.permutation(30)]
            shuffled = aggregate(perm, DEFAULT)
            assert shuffled.total == base.total
            assert shuffled.flop_reduction == base.flop_reduction

    def test_decision_fractions_cover_all_kinds(self):
        report = aggregate(steady_cycle(2), DEFAULT)
        assert set(report.decision_fractions) == {k.value for k in DecisionKind}
        assert sum(report.decision_fractions.values()) == pytest.approx(1.0)
        assert report.decision_fractions["anchor"] == pytest.approx(0.2)
        assert report.decision_fractions["skipped"] == 0.0

    def test_overhead_share(self):
        report = aggregate([ANCHOR, PACKED], DEFAULT)
        assert report.total == 114300.0
        assert report.overhead_share == 1800.0 / 114300.0

    def test_fallback_counts_toward_overhead(self):
        report = aggregate([FALLBACK], DEFAULT)
        assert report.overhead_share == 1800.0 / 91800.0
        assert report.flop_reduction < 0  # worse than the baseline

    def test_per_frame_costs_recorded(self):
        decisions = steady_cycle(1)
        costs = [frame_cost(d, NO_OVERHEAD) for d in decisions]
        assert costs == [90000.0, 22500.0, 22500.0, 22500.0, 22500.0]
        report = aggregate(decisions, NO_OVERHEAD)
        assert report.frames == 5
        assert report.total == left_fold(costs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([], DEFAULT)

    def test_totals_fold_left_to_right(self):
        # Ten frames of 0.2 (0.1 of it overhead) sum to 1.9999999999999998
        # left to right but to 2.0 compensated (math.fsum, and sum() from
        # Python 3.12 on); the reported figures keep the left fold.
        params = CostParams(flops_full=1.0, flops_reduced=0.1, pack_overhead=0.1)
        report = aggregate([PACKED] * 10, params)
        costs = [frame_cost(PACKED, params)] * 10
        assert costs == [0.2] * 10
        assert math.fsum(costs) != left_fold(costs)
        assert report.total == left_fold(costs)
        assert report.overhead_share == left_fold([0.1] * 10) / report.total

    def test_json_dict_fields(self):
        report = aggregate(steady_cycle(1), NO_OVERHEAD)
        payload = report.to_json_dict()
        assert payload["frames"] == 5
        assert payload["total_flops"] == 180000.0
        assert payload["baseline_flops"] == 450000.0
        assert payload["flop_reduction"] == 0.6
        assert payload["speedup"] == 2.5
        assert set(payload["decision_fractions"]) == {k.value for k in DecisionKind}
