"""Frame scheduling: anchors, packed frames, fallbacks and skips.

It also defines what every detector shares: the Detector protocol, the
views it looks through, its detections and the annotated ground truth.

Every anchor_interval-th frame is an anchor and runs the detector on the
full-size frame. In between, the previous frame's confident detections
become ROIs and are packed into the reduced frame; detections found there
are mapped back to full-frame coordinates before being reported. When
packing fails the frame falls back to full size, and when the previous
frame produced no ROIs the frame is skipped outright (which then cascades
until the next anchor).
"""

from typing import Callable, Optional, Protocol, Sequence, Union

from ._record import frozen
from .costmodel import CostParams, CostReport, DecisionKind, FrameDecision, aggregate
from .geometry import FrameSpec, Rect, clip_box
from .packing import PackPlan, pack

Packer = Callable[[Sequence[Rect], FrameSpec, FrameSpec], Optional[PackPlan]]


@frozen
class Detection:
    """One detected object in the coordinates of the view it came from."""

    rect: Rect
    class_id: int
    confidence: float

    def __post_init__(self):
        if self.class_id < 0:
            raise ValueError("class_id must be nonnegative")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence out of range: {self.confidence}")


@frozen
class GtObject:
    """One annotated object."""

    class_id: int
    rect: Rect


@frozen
class GroundTruthFrame:
    """All annotated objects of one frame."""

    frame_id: int
    objects: tuple[GtObject, ...]

    def __post_init__(self):
        if self.frame_id < 0:
            raise ValueError("frame_id must be nonnegative")


@frozen
class PipelineConfig:
    """Knobs for the frame scheduler."""

    anchor_interval: int = 5
    tau: float = 0.2
    s1: FrameSpec = FrameSpec(300.0)
    s2: FrameSpec = FrameSpec(150.0)

    def __post_init__(self):
        if self.anchor_interval < 1:
            raise ValueError("anchor_interval must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.s2.side > self.s1.side:
            raise ValueError("reduced frame cannot be larger than the full frame")


@frozen
class FullView:
    """Detector input: the whole frame at full size."""

    frame: FrameSpec


@frozen
class ReducedView:
    """Detector input: the reduced frame assembled from a packing plan."""

    plan: PackPlan


View = Union[FullView, ReducedView]


class Detector(Protocol):
    """Anything that can report detections for a frame under a view.

    Returned rects lie within the view: inside (0, 0, s1, s1) for a full
    view and inside (0, 0, s2, s2) for a reduced one.
    """

    def detect(self, frame_index: int, view: View) -> list[Detection]: ...


def rois_from_detections(detections: Sequence[Detection], tau: float) -> list[Rect]:
    """Rects of the detections at or above the confidence threshold."""
    return [d.rect for d in detections if d.confidence >= tau]


def map_back(detections: Sequence[Detection], plan: PackPlan) -> list[Detection]:
    """Translate reduced-frame detections into source-frame coordinates.

    Each detection is assigned to the slot whose dst it overlaps most (a
    detection straddling slots follows the greatest overlap, a tie the
    first slot), inverted through that slot's transform (`to_source`) and
    clipped to the slot's src. Detections overlapping no slot, or mapping
    to nothing inside it, are dropped. Only a kept detection's Rect is
    built.
    """
    out = []
    for det in detections:
        rect = det.rect
        x0, y0, x1, y1 = rect.x_min, rect.y_min, rect.x_max, rect.y_max
        best = None
        best_area = 0.0
        for slot in plan.slots:
            dst = slot.dst
            inter = clip_box(x0, y0, x1, y1, dst.x_min, dst.y_min, dst.x_max, dst.y_max)
            if inter is not None:
                ix0, iy0, ix1, iy1 = inter
                area = (ix1 - ix0) * (iy1 - iy0)
                if area > best_area:
                    best, best_area = slot, area
        if best is None:
            continue
        src = best.src
        mx0, my0, mx1, my1 = best.map_to_source(x0, y0, x1, y1)
        mapped = clip_box(mx0, my0, mx1, my1, src.x_min, src.y_min, src.x_max, src.y_max)
        if mapped is not None:
            out.append(Detection(Rect(*mapped), det.class_id, det.confidence))
    return out


@frozen
class FrameRecord:
    """Outcome of one frame: its schedule index, decision and detections,
    and on a packed frame alone the plan its reduced view was built from."""

    index: int
    decision: FrameDecision
    detections: tuple[Detection, ...]
    plan: Optional[PackPlan] = None

    def __post_init__(self):
        if (self.decision.kind is DecisionKind.PACKED) != (self.plan is not None):
            raise ValueError("exactly a PACKED frame's record carries a plan")


def step(
    prev_detections: Sequence[Detection],
    frame_index: int,
    config: PipelineConfig,
    detector: Detector,
    packer: Packer = pack,
) -> FrameRecord:
    """Decide and process one frame; its record holds source-frame detections."""
    if frame_index < 0:
        raise ValueError("frame_index must be nonnegative")
    if frame_index % config.anchor_interval == 0:
        detections = detector.detect(frame_index, FullView(config.s1))
        return FrameRecord(frame_index, FrameDecision.anchor(), tuple(detections))
    rois = rois_from_detections(prev_detections, config.tau)
    if not rois:
        return FrameRecord(frame_index, FrameDecision.skipped(), ())
    plan = packer(rois, config.s1, config.s2)
    if plan is None:
        detections = detector.detect(frame_index, FullView(config.s1))
        return FrameRecord(frame_index, FrameDecision.fallback_full(), tuple(detections))
    raw = detector.detect(frame_index, ReducedView(plan))
    return FrameRecord(frame_index, FrameDecision.packed(), tuple(map_back(raw, plan)), plan)


@frozen
class VideoRun:
    """All frame records of one video plus the aggregated cost."""

    records: list[FrameRecord]
    cost: CostReport


def run_video(
    n_frames: int,
    config: PipelineConfig,
    detector: Detector,
    cost_params: Optional[CostParams] = None,
    packer: Packer = pack,
) -> VideoRun:
    """Process frames 0..n_frames-1 sequentially, threading detections.

    Frame i's decision depends only on frame i-1's detections and on i
    itself, so a run can be replayed from any checkpoint. A video needs at
    least one frame: n_frames < 1 raises ValueError.

    Frames are scheduled by position: i is the index into the video's frame
    list, not an annotated frame id, so a video subsampled to ids 0, 10,
    20, ... gets an anchor every anchor_interval-th listed frame.
    """
    if n_frames < 1:
        raise ValueError(f"a video needs at least one frame, got {n_frames}")
    records: list[FrameRecord] = []
    prev: Sequence[Detection] = ()
    for i in range(n_frames):
        record = step(prev, i, config, detector, packer)
        records.append(record)
        prev = record.detections
    params = cost_params or CostParams.for_frames(config.s1, config.s2)
    cost = aggregate([r.decision for r in records], params)
    return VideoRun(records=records, cost=cost)
