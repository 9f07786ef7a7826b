"""Per-frame processing decisions and their FLOP accounting.

Detector cost is modeled as proportional to the squared frame side, so a
half-size frame costs a quarter of a full one. Packing a frame adds a fixed
overhead expressed as a fraction of the full-frame cost; a failed pack
attempt pays that overhead and then the full-frame cost on top.
"""

import math
from enum import Enum
from typing import Mapping, Sequence

from ._record import frozen
from .geometry import FrameSpec


class DecisionKind(str, Enum):
    """How a frame was processed."""

    ANCHOR = "anchor"
    PACKED = "packed"
    FALLBACK_FULL = "fallback_full"
    SKIPPED = "skipped"


@frozen
class FrameDecision:
    """How one frame was processed: its kind and nothing else, so each kind
    has one shared decision. A packed frame's plan stays with the frame's
    record (`pipeline.FrameRecord`) and is dropped with it."""

    kind: DecisionKind

    @classmethod
    def anchor(cls) -> "FrameDecision":
        return _SHARED[DecisionKind.ANCHOR]

    @classmethod
    def packed(cls) -> "FrameDecision":
        return _SHARED[DecisionKind.PACKED]

    @classmethod
    def fallback_full(cls) -> "FrameDecision":
        return _SHARED[DecisionKind.FALLBACK_FULL]

    @classmethod
    def skipped(cls) -> "FrameDecision":
        return _SHARED[DecisionKind.SKIPPED]


_SHARED = {kind: FrameDecision(kind) for kind in DecisionKind}


@frozen
class CostParams:
    """Cost constants, in arbitrary FLOP units.

    pack_overhead is the cost of one pack attempt as a fraction of
    flops_full and is charged on packed frames and on failed attempts
    alike. skip_cost is the (usually zero) cost of emitting nothing.
    """

    flops_full: float = 90000.0
    flops_reduced: float = 22500.0
    pack_overhead: float = 0.02
    skip_cost: float = 0.0

    def __post_init__(self):
        costs = (self.flops_full, self.flops_reduced, self.pack_overhead, self.skip_cost)
        if not all(math.isfinite(c) for c in costs):
            raise ValueError(f"costs must be finite, got {costs}")
        if self.flops_full <= 0 or self.flops_reduced <= 0:
            raise ValueError("frame costs must be positive")
        if self.flops_reduced > self.flops_full:
            raise ValueError("reduced-frame cost cannot exceed full-frame cost")
        if self.pack_overhead < 0 or self.skip_cost < 0:
            raise ValueError("overhead and skip cost must be nonnegative")

    @classmethod
    def for_frames(
        cls,
        full: FrameSpec,
        reduced: FrameSpec,
        pack_overhead: float = 0.02,
        skip_cost: float = 0.0,
    ) -> "CostParams":
        """Derive frame costs from frame sizes (cost proportional to side^2)."""
        return cls(
            flops_full=full.side * full.side,
            flops_reduced=reduced.side * reduced.side,
            pack_overhead=pack_overhead,
            skip_cost=skip_cost,
        )


def frame_cost(decision: FrameDecision, params: CostParams) -> float:
    """FLOP cost of processing one frame under the given decision."""
    kind = decision.kind
    if kind is DecisionKind.ANCHOR:
        return params.flops_full
    if kind is DecisionKind.PACKED:
        return params.pack_overhead * params.flops_full + params.flops_reduced
    if kind is DecisionKind.FALLBACK_FULL:
        return params.pack_overhead * params.flops_full + params.flops_full
    if kind is DecisionKind.SKIPPED:
        return params.skip_cost
    raise ValueError(f"unknown decision kind: {kind!r}")


@frozen
class CostReport:
    """Aggregate cost of a run against the always-full-size baseline.

    speedup is derived from flop_reduction so the identity
    speedup == 1 / (1 - flop_reduction) holds exactly.
    """

    frames: int
    total: float
    baseline: float
    decision_fractions: Mapping[str, float]
    flop_reduction: float
    speedup: float
    overhead_share: float

    def to_json_dict(self) -> dict:
        return {
            "frames": self.frames,
            "total_flops": self.total,
            "baseline_flops": self.baseline,
            "decision_fractions": dict(self.decision_fractions),
            "flop_reduction": self.flop_reduction,
            "speedup": self.speedup,
            "overhead_share": self.overhead_share,
        }


def aggregate(decisions: Sequence[FrameDecision], params: CostParams) -> CostReport:
    """Total a sequence of per-frame decisions into a CostReport.

    Raises:
        ValueError: on an empty decision sequence.
    """
    if not decisions:
        raise ValueError("aggregate() needs at least one decision")
    # Adds left to right, not sum(): from Python 3.12 on, sum() of floats
    # is compensated and can change the last bit of the totals.
    total = overhead = 0.0
    pack_cost = params.pack_overhead * params.flops_full
    counts = {kind: 0 for kind in DecisionKind}
    for d in decisions:
        kind = d.kind
        total += frame_cost(d, params)
        if kind is DecisionKind.PACKED or kind is DecisionKind.FALLBACK_FULL:
            overhead += pack_cost
        counts[kind] += 1
    n = len(decisions)
    baseline = params.flops_full * n
    fractions = {kind.value: counts[kind] / n for kind in DecisionKind}
    reduction = 1.0 - total / baseline
    speedup = math.inf if reduction >= 1.0 else 1.0 / (1.0 - reduction)
    overhead_share = overhead / total if total > 0 else 0.0
    return CostReport(
        frames=n,
        total=total,
        baseline=baseline,
        decision_fractions=fractions,
        flop_reduction=reduction,
        speedup=speedup,
        overhead_share=overhead_share,
    )
