"""Detection quality scoring: per-class average precision and its mean.

Scoring has two steps. `match_frame` matches one frame as soon as it has
run: its detections, highest confidence first (a stable sort keeps input
order among ties), each take the highest-IoU still-unmatched ground-truth
box of their class in that frame (`geometry.box_iou`), and a match needs
at least the IoU threshold. It returns one (class, confidence, hit) per
detection and the frame's ground-truth count per class, and `Scores`
appends those to per-class columns: the confidences as doubles, the hits
as bytes, and the ground-truth count. `evaluate_detections` then ranks
each class's detections over all frames by (descending confidence, frame
position, rank within the frame) and integrates the precision envelope
over all recall points.

This is exactly greedy matching over the global ranking (descending
confidence, then frame key, then input order). A match removes a box only
from its own frame, so only detections of the same frame can change each
other's match, and within a frame the two orders agree. Fed in frame-key
order, the frames give the same hits in the same ranks, so every AP is the
same to the bit.
"""

from array import array
from functools import reduce
from operator import add, itemgetter
from typing import Iterable, Mapping, Optional

from ._record import frozen
from .geometry import box_iou

# One frame's detections as (class_id, confidence, hit), highest confidence
# first, and its ground-truth count per class.
FrameMatch = tuple[list[tuple[int, float, bool]], dict[int, int]]


def match_frame(frame: tuple, iou_threshold: float = 0.5) -> FrameMatch:
    """Greedily match the detections of a frame in `formats.flat_frame`'s
    form, each (class_id, confidence, box), to its objects, each (class_id,
    box), with every box (x_min, y_min, x_max, y_max)."""
    _, _, _, objects, detections, _ = frame
    boxes_by_class: dict[int, list[tuple[float, float, float, float]]] = {}
    for class_id, box in objects:
        boxes_by_class.setdefault(class_id, []).append(box)
    gt_counts = {class_id: len(boxes) for class_id, boxes in boxes_by_class.items()}
    matched = []
    # A stable sort, reversed, keeps input order among equal confidences.
    for class_id, confidence, box in sorted(detections, key=itemgetter(1), reverse=True):
        hit = False
        # A matched box is removed from its class's list, so the boxes left
        # are the unmatched ones in input order and an IoU tie still goes to
        # the first of them.
        boxes = boxes_by_class.get(class_id)
        if boxes:
            ax0, ay0, ax1, ay1 = box
            best_iou = 0.0
            best_idx = -1
            for gt_idx, (bx0, by0, bx1, by1) in enumerate(boxes):
                overlap = box_iou(ax0, ay0, ax1, ay1, bx0, by0, bx1, by1)
                if overlap > best_iou:
                    best_iou, best_idx = overlap, gt_idx
            if best_idx >= 0 and best_iou >= iou_threshold:
                del boxes[best_idx]
                hit = True
        matched.append((class_id, confidence, hit))
    return matched, gt_counts


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


@frozen
class EvalReport:
    """Per-class APs, their mean and the match counts behind them.

    mean_ap is None exactly when there is no ground truth, and then
    per_class is empty.
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


class Scores:
    """The `match_frame` results of a run, kept as compact columns.

    Per class it holds the confidences (an array of doubles), the hits (a
    bytearray) in the order they were added, and the ground-truth count;
    nothing per frame or per detection is kept as a Python object.
    """

    __slots__ = ("columns", "npos", "num_detections")

    def __init__(self, frames: Iterable[FrameMatch] = ()):
        self.columns: dict[int, tuple[array, bytearray]] = {}
        self.npos: dict[int, int] = {}
        self.num_detections = 0
        for frame in frames:
            self.add(frame)

    def add(self, frame: FrameMatch) -> None:
        """Append one frame's matches; frames must come in frame order."""
        matched, gt_counts = frame
        npos = self.npos
        for class_id, count in gt_counts.items():
            npos[class_id] = npos.get(class_id, 0) + count
        self.num_detections += len(matched)
        columns = self.columns
        for class_id, confidence, hit in matched:
            column = columns.get(class_id)
            if column is None:
                column = columns[class_id] = (array("d"), bytearray())
            column[0].append(confidence)
            column[1].append(hit)


def _average_precision(confidences: array, hits: bytearray, npos: int) -> float:
    """All-points interpolated AP of one class's columns.

    The detections are ranked by descending confidence, and the stable sort
    keeps the order they were added in among equal ones. Recall steps up
    only at a hit and precision falls at every miss, so the precision
    envelope at a hit, the highest precision at its rank or any later one,
    is the highest of the hits' precisions from there on. The recall steps
    are summed left to right with the float operations of a per-detection
    recall/precision table, so the AP is the same to the bit.
    """
    order = sorted(range(len(confidences)), key=confidences.__getitem__, reverse=True)
    precisions = array("d")  # at each hit, in rank order
    tp = 0
    for rank, idx in enumerate(order, start=1):
        if hits[idx]:
            tp += 1
            precisions.append(tp / rank)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = 0.0
    recall = 0.0
    for tp, precision in enumerate(precisions, start=1):
        step = tp / npos
        ap += (step - recall) * precision
        recall = step
    return ap


def evaluate_detections(scores: Scores) -> EvalReport:
    """Score the matches in `scores` over every annotated class; with no
    ground truth, per_class is empty and mean_ap is None."""
    empty = (array("d"), bytearray())
    per_class: dict[int, Optional[float]] = {
        class_id: _average_precision(*scores.columns.get(class_id, empty), class_npos)
        for class_id, class_npos in sorted(scores.npos.items())
    }
    return EvalReport(
        per_class=per_class,
        mean_ap=mean_average_precision(per_class) if per_class else None,
        num_detections=scores.num_detections,
        num_ground_truth=sum(scores.npos.values()),
    )
