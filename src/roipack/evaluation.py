"""Detection quality scoring: per-class average precision and its mean.

Detections are ranked by descending confidence (ties broken by frame key,
then by input order) and greedily matched, each to the highest-overlap
still-unmatched ground-truth box of its class in its frame. A match needs
at least the IoU threshold; everything else is a false positive. Average
precision integrates the precision envelope over all recall points.
"""

from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Sequence

from .geometry import iou
from .pipeline import Detection
from .simdet import GtObject

FrameKey = Hashable


def _ranked(
    detections: Sequence[tuple[FrameKey, Detection]], class_id: int
) -> list[tuple[FrameKey, Detection]]:
    indexed = [
        (frame_key, order, det)
        for order, (frame_key, det) in enumerate(detections)
        if det.class_id == class_id
    ]
    indexed.sort(key=lambda item: (-item[2].confidence, item[0], item[1]))
    return [(frame_key, det) for frame_key, _, det in indexed]


def average_precision(
    detections: Sequence[tuple[FrameKey, Detection]],
    ground_truth: Sequence[tuple[FrameKey, GtObject]],
    class_id: int,
    iou_threshold: float = 0.5,
) -> Optional[float]:
    """AP for one class, or None when the class has no ground truth.

    Frame keys must sort consistently; detections and ground truth are
    matched only within the same frame key.
    """
    gt_by_frame: dict[FrameKey, list[GtObject]] = {}
    npos = 0
    for frame_key, gt in ground_truth:
        if gt.class_id != class_id:
            continue
        gt_by_frame.setdefault(frame_key, []).append(gt)
        npos += 1
    if npos == 0:
        return None

    ranked = _ranked(detections, class_id)
    used: set[tuple[FrameKey, int]] = set()
    tp = 0
    recalls: list[float] = []
    precisions: list[float] = []
    for rank, (frame_key, det) in enumerate(ranked, start=1):
        best_iou = 0.0
        best_idx = -1
        for gt_idx, gt in enumerate(gt_by_frame.get(frame_key, [])):
            if (frame_key, gt_idx) in used:
                continue
            overlap = iou(det.rect, gt.rect)
            if overlap > best_iou:
                best_iou, best_idx = overlap, gt_idx
        if best_idx >= 0 and best_iou >= iou_threshold:
            used.add((frame_key, best_idx))
            tp += 1
        recalls.append(tp / npos)
        precisions.append(tp / rank)

    # All-points interpolation: integrate the monotone precision envelope.
    mrec = [0.0] + recalls + [1.0]
    mpre = [0.0] + precisions + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
    return ap


def mean_average_precision(per_class: Mapping[int, Optional[float]]) -> float:
    """Unweighted mean of the defined per-class APs.

    Raises:
        ValueError: when no class has a defined AP.
    """
    defined = [ap for ap in per_class.values() if ap is not None]
    if not defined:
        raise ValueError("no class has ground truth; mAP is undefined")
    return sum(defined) / len(defined)


@dataclass(frozen=True)
class EvalReport:
    """Per-class APs, their mean and the match counts behind them.

    mean_ap is None only on a report built for a run without ground truth,
    where no class has an AP.
    """

    per_class: dict[int, Optional[float]]
    mean_ap: Optional[float]
    num_detections: int
    num_ground_truth: int

    def to_json_dict(self) -> dict:
        return {
            "per_class_ap": {str(k): v for k, v in sorted(self.per_class.items())},
            "mAP": self.mean_ap,
            "num_detections": self.num_detections,
            "num_ground_truth": self.num_ground_truth,
        }


def evaluate_detections(
    detections: Sequence[tuple[FrameKey, Detection]],
    ground_truth: Sequence[tuple[FrameKey, GtObject]],
    iou_threshold: float = 0.5,
) -> EvalReport:
    """Score detections against ground truth over every annotated class."""
    classes = sorted({gt.class_id for _, gt in ground_truth})
    per_class = {
        c: average_precision(detections, ground_truth, c, iou_threshold) for c in classes
    }
    return EvalReport(
        per_class=per_class,
        mean_ap=mean_average_precision(per_class),
        num_detections=len(detections),
        num_ground_truth=len(ground_truth),
    )
