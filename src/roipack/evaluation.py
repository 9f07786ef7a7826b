"""Detection quality scoring: per-class average precision and its mean.

Detections are ranked by descending confidence (ties broken by frame key,
then by input order) and greedily matched, each to the highest-overlap
still-unmatched ground-truth box of its class in its frame. A match needs
at least the IoU threshold; everything else is a false positive. Average
precision integrates the precision envelope over all recall points.

Scoring takes one pass: ground truth is grouped by class and frame once,
each class's detections are ranked once, and IoU is computed inline with
the float operations of `geometry.iou`, so every AP is the same to the bit
as matching class by class with `iou`.
"""

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Hashable, Mapping, Optional, Sequence

from .geometry import Rect
from .pipeline import Detection, GtObject

FrameKey = Hashable


def _class_ap(
    ranked: list[tuple[float, FrameKey, int, Rect]],
    gt_by_frame: dict[FrameKey, list[Rect]],
    iou_threshold: float,
) -> float:
    """AP of one class from its (-confidence, frame key, input order, rect)
    detections and its ground-truth boxes per frame, which it consumes."""
    npos = sum(len(boxes) for boxes in gt_by_frame.values())
    ranked.sort()
    tp = 0
    recalls: list[float] = []
    precisions: list[float] = []
    for rank, (_, frame_key, _, det) in enumerate(ranked, start=1):
        # A matched box is removed from its frame's list, so the boxes left
        # are the unmatched ones in input order and an IoU tie still goes to
        # the first of them.
        boxes = gt_by_frame.get(frame_key)
        if boxes:
            ax0, ay0, ax1, ay1 = det.x_min, det.y_min, det.x_max, det.y_max
            area_a = (ax1 - ax0) * (ay1 - ay0)
            best_iou = 0.0
            best_idx = -1
            for gt_idx, gt in enumerate(boxes):
                # iou(det, gt): max/min keep their first argument on a tie.
                bx0, by0, bx1, by1 = gt.x_min, gt.y_min, gt.x_max, gt.y_max
                x_min = bx0 if bx0 > ax0 else ax0
                y_min = by0 if by0 > ay0 else ay0
                x_max = bx1 if bx1 < ax1 else ax1
                y_max = by1 if by1 < ay1 else ay1
                if x_min >= x_max or y_min >= y_max:
                    continue
                inter_area = (x_max - x_min) * (y_max - y_min)
                overlap = inter_area / (area_a + (bx1 - bx0) * (by1 - by0) - inter_area)
                if overlap > best_iou:
                    best_iou, best_idx = overlap, gt_idx
            if best_idx >= 0 and best_iou >= iou_threshold:
                del boxes[best_idx]
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


def _per_class_ap(
    detections: Sequence[tuple[FrameKey, Detection]],
    ground_truth: Sequence[tuple[FrameKey, GtObject]],
    iou_threshold: float,
) -> dict[int, float]:
    """AP of every class with ground truth, in ascending class order."""
    gt_by_class: dict[int, dict[FrameKey, list[Rect]]] = {}
    for frame_key, gt in ground_truth:
        gt_by_class.setdefault(gt.class_id, {}).setdefault(frame_key, []).append(gt.rect)
    ranked: dict[int, list] = {class_id: [] for class_id in gt_by_class}
    for order, (frame_key, det) in enumerate(detections):
        bucket = ranked.get(det.class_id)
        if bucket is not None:
            bucket.append((-det.confidence, frame_key, order, det.rect))
    return {
        class_id: _class_ap(ranked.pop(class_id), gt_by_class.pop(class_id), iou_threshold)
        for class_id in sorted(gt_by_class)
    }


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
    own = [(frame_key, gt) for frame_key, gt in ground_truth if gt.class_id == class_id]
    return _per_class_ap(detections, own, iou_threshold).get(class_id)


def mean_average_precision(per_class: Mapping[int, Optional[float]]) -> float:
    """Unweighted mean of the defined per-class APs, summed left to right.

    Raises:
        ValueError: when no class has a defined AP.
    """
    defined = [ap for ap in per_class.values() if ap is not None]
    if not defined:
        raise ValueError("no class has ground truth; mAP is undefined")
    # A plain fold, not sum(): from Python 3.12 on, sum() of floats is
    # compensated and can change the last bit of the mean.
    return reduce(add, defined, 0.0) / len(defined)


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
    per_class = _per_class_ap(detections, ground_truth, iou_threshold)
    return EvalReport(
        per_class=per_class,
        mean_ap=mean_average_precision(per_class),
        num_detections=len(detections),
        num_ground_truth=len(ground_truth),
    )
