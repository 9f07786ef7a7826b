"""Independent reference implementations used to cross-check the package.

Most computations here are done a structurally different way than the
library does them (rasterization instead of sweeps, transitive closure
instead of union-find, per-prefix re-matching instead of one-pass
accumulation), so agreement is meaningful, and they import nothing from the
package beyond plain data types.

The exception is reference_expand_greedy: the plain unit-round greedy
expansion, stepped one round at a time. The package skips quiet rounds in
bulk and must reproduce it bit for bit, so it shares the package's layout
and placement helpers and differs only in the growth loop.

Likewise reference_oracle_detect is the simulated detector as it was before
its per-object draws were memoized: it builds a fresh generator for every
object, and the package must return equal detections. And
reference_evaluate_detections is the evaluator as it was before scoring
became one pass: it re-filters every detection and ground-truth box once per
class and builds a Rect per IoU, and the package must report equal APs.
"""

from fractions import Fraction
from typing import Hashable, Optional, Sequence

import numpy as np

from roipack.evaluation import EvalReport, mean_average_precision
from roipack.geometry import FrameSpec, Rect, intersection, iou
from roipack.packing import (
    GROWTH_STEP,
    MAX_SLOTS,
    Axis,
    Layout,
    PackMethod,
    PackPlan,
    _flush_slots,
    _group_members,
    choose_layout,
    merge_overlaps,
    place_and_fit,
)
from roipack.pipeline import Detection, FullView, GroundTruthFrame, GtObject, View
from roipack.simdet import (
    _STREAM_DETECT,
    NoiseModel,
    _context_margin,
    _covering_slot,
    _jittered,
    _rng,
    base_confidence,
)


def raster_cover(rects, x0, y0, x1, y1, resolution=1000):
    """Boolean grid of cells whose centers are covered by some rect."""
    grid = np.zeros((resolution, resolution), dtype=bool)
    sx = (x1 - x0) / resolution
    sy = (y1 - y0) / resolution
    for r in rects:
        # Cell (i, j) has center (x0 + (j + 0.5) sx, y0 + (i + 0.5) sy).
        j_lo = int(np.ceil((r.x_min - x0) / sx - 0.5))
        j_hi = int(np.floor((r.x_max - x0) / sx - 0.5))
        i_lo = int(np.ceil((r.y_min - y0) / sy - 0.5))
        i_hi = int(np.floor((r.y_max - y0) / sy - 0.5))
        j_lo, i_lo = max(j_lo, 0), max(i_lo, 0)
        j_hi, i_hi = min(j_hi, resolution - 1), min(i_hi, resolution - 1)
        if j_lo <= j_hi and i_lo <= i_hi:
            grid[i_lo : i_hi + 1, j_lo : j_hi + 1] = True
    return grid


def raster_union_area(rects, resolution=1000):
    """Union area estimated by counting covered cell centers."""
    if not rects:
        return 0.0
    x0 = min(r.x_min for r in rects)
    y0 = min(r.y_min for r in rects)
    x1 = max(r.x_max for r in rects)
    y1 = max(r.y_max for r in rects)
    grid = raster_cover(rects, x0, y0, x1, y1, resolution)
    cell = ((x1 - x0) / resolution) * ((y1 - y0) / resolution)
    return float(grid.sum()) * cell


def raster_region_iou(rects_a, rects_b, side, resolution=1000):
    """Region IoU of two box unions, on a shared grid over the frame."""
    if not rects_a and not rects_b:
        return 1.0
    a = raster_cover(rects_a, 0.0, 0.0, side, side, resolution)
    b = raster_cover(rects_b, 0.0, 0.0, side, side, resolution)
    union = float(np.logical_or(a, b).sum())
    if union == 0.0:
        return 1.0
    return float(np.logical_and(a, b).sum()) / union


def brute_components(rects):
    """Connected components by O(n^3) closure of the adjacency matrix."""
    n = len(rects)
    adj = [[i == j for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and _overlaps(rects[i], rects[j]):
                adj[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if adj[i][k] and adj[k][j]:
                    adj[i][j] = True
    seen = set()
    comps = []
    for i in range(n):
        if i in seen:
            continue
        members = [j for j in range(n) if adj[i][j]]
        seen.update(members)
        comps.append(members)
    return comps


def _overlaps(a: Rect, b: Rect) -> bool:
    return (
        a.x_min < b.x_max
        and b.x_min < a.x_max
        and a.y_min < b.y_max
        and b.y_min < a.y_max
    )


def _box_iou(a, b):
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _rank_order(dets, class_id):
    """Indices of the class's detections in evaluation order.

    dets: list of (frame_key, box 4-tuple, class_id, confidence).
    """
    keep = [i for i, d in enumerate(dets) if d[2] == class_id]
    return sorted(keep, key=lambda i: (-dets[i][3], dets[i][0], i))


def _match_prefix(dets, order, gts, class_id, iou_thr):
    """Re-run greedy matching on a rank prefix from scratch; returns TP count."""
    gt_idx = [i for i, g in enumerate(gts) if g[2] == class_id]
    used = set()
    tp = 0
    for det_i in order:
        frame_key, box, _, _ = dets[det_i]
        best, best_iou = None, 0.0
        for gi in gt_idx:
            if gi in used or gts[gi][0] != frame_key:
                continue
            overlap = _box_iou(box, gts[gi][1])
            if overlap > best_iou:
                best, best_iou = gi, overlap
        if best is not None and best_iou >= iou_thr:
            used.add(best)
            tp += 1
    return tp


def reference_ap(dets, gts, class_id, iou_thr=0.5, exact=False):
    """Average precision computed the slow way.

    The PR curve is built by re-running the matching from scratch on every
    rank prefix (one point per threshold), then integrating the monotone
    precision envelope over recall. With exact=True all curve arithmetic is
    rational and the result is a Fraction.

    dets: list of (frame_key, box 4-tuple, class_id, confidence).
    gts: list of (frame_key, box 4-tuple, class_id).
    """
    npos = sum(1 for g in gts if g[2] == class_id)
    if npos == 0:
        return None
    order = _rank_order(dets, class_id)
    num = Fraction if exact else (lambda a, b: a / b)
    recalls, precisions = [0.0], [0.0]
    if exact:
        recalls, precisions = [Fraction(0)], [Fraction(0)]
    for k in range(1, len(order) + 1):
        tp = _match_prefix(dets, order[:k], gts, class_id, iou_thr)
        recalls.append(num(tp, npos))
        precisions.append(num(tp, k))
    recalls.append(Fraction(1) if exact else 1.0)
    precisions.append(Fraction(0) if exact else 0.0)
    for i in range(len(precisions) - 2, -1, -1):
        precisions[i] = max(precisions[i], precisions[i + 1])
    ap = Fraction(0) if exact else 0.0
    for i in range(len(recalls) - 1):
        if recalls[i + 1] != recalls[i]:
            ap += (recalls[i + 1] - recalls[i]) * precisions[i + 1]
    return ap


_EPS = 1e-9


def _grow_interval(
    lo: float, hi: float, g: float, bound: float
) -> tuple[float, float]:
    """Grow [lo, hi] in [0, bound] by g, split half per side; growth clipped
    at a boundary spills to the opposite side."""
    left = right = 0.5 * g
    room_l = lo
    room_r = bound - hi
    if left > room_l:
        right += left - room_l
        left = room_l
    if right > room_r:
        left = min(room_l, left + (right - room_r))
        right = room_r
    return max(0.0, lo - left), min(bound, hi + right)


def _candidate_overlaps(
    src: list[list[float]], i: int, axis: int, grown: tuple[float, float]
) -> bool:
    lo, hi = grown
    o_lo, o_hi = src[i][1 - axis], src[i][3 - axis]
    for j, other in enumerate(src):
        if j == i:
            continue
        if (
            lo < other[axis + 2]
            and other[axis] < hi
            and o_lo < other[3 - axis]
            and other[1 - axis] < o_hi
        ):
            return True
    return False


def _expand_axis(
    src: list[list[float]], axis: int, layout: Layout, dest_side: float, src_side: float
):
    """Grow all slots along one axis in simultaneous rounds until frozen."""
    groups = list(_group_members(layout).values())
    group_of = {i: g for g, members in enumerate(groups) for i in members}
    extent_axis = 0 if layout.primary_axis is Axis.HORIZONTAL else 1

    def size(j: int) -> float:
        return src[j][axis + 2] - src[j][axis]

    def headroom(i: int) -> float:
        if axis == extent_axis:
            # Shared across groups: the sum of group extents is capped, but
            # a slot below its group's current extent grows free up to it.
            extents = [max(size(j) for j in members) for members in groups]
            slack = dest_side - sum(extents)
            return (extents[group_of[i]] - size(i)) + slack
        # Stacking axis: members of one group share the destination side.
        return dest_side - sum(size(j) for j in groups[group_of[i]])

    active = set(range(len(src)))
    while active:
        for i in sorted(active):
            allowance = headroom(i)
            lo, hi = src[i][axis], src[i][axis + 2]
            room = lo + (src_side - hi)
            if len(active) == 1:
                # A lone grower faces only static constraints; one full-size
                # jump lands exactly where unit stepping would.
                allowed = min(allowance, room)
            else:
                allowed = min(GROWTH_STEP, allowance, room)
            if allowed <= _EPS:
                active.discard(i)
                continue
            grown = _grow_interval(lo, hi, allowed, src_side)
            if _candidate_overlaps(src, i, axis, grown):
                feasible, infeasible = 0.0, allowed
                for _ in range(60):
                    mid = 0.5 * (feasible + infeasible)
                    if _candidate_overlaps(
                        src, i, axis, _grow_interval(lo, hi, mid, src_side)
                    ):
                        infeasible = mid
                    else:
                        feasible = mid
                if feasible <= _EPS:
                    active.discard(i)
                    continue
                grown = _grow_interval(lo, hi, feasible, src_side)
            src[i][axis], src[i][axis + 2] = grown


def reference_expand_greedy(plan: PackPlan, source: FrameSpec) -> PackPlan:
    """expand_greedy stepped one unit round at a time, every round."""
    layout = plan.layout
    src = [[s.src.x_min, s.src.y_min, s.src.x_max, s.src.y_max] for s in plan.slots]
    first = 0 if layout.primary_axis is Axis.HORIZONTAL else 1
    for axis in (first, 1 - first):
        _expand_axis(src, axis, layout, plan.dest.side, source.side)
    return PackPlan(
        slots=_flush_slots([Rect(*b) for b in src], layout, plan.dest),
        dest=plan.dest,
        method=PackMethod.GREEDY,
        source=source,
        layout=layout,
    )


def reference_pack(rois, source: FrameSpec, dest: FrameSpec):
    """pack() with reference_expand_greedy in place of expand_greedy."""
    if not rois:
        return None
    merged = merge_overlaps(rois)
    if len(merged) > MAX_SLOTS:
        return None
    placed = place_and_fit(merged, choose_layout(merged), source, dest)
    if placed is None:
        return None
    return reference_expand_greedy(placed, source)


def reference_oracle_detect(view: View, gt: GroundTruthFrame, noise: NoiseModel) -> list[Detection]:
    """Simulate detection of a frame's ground truth under a view.

    In a full view every object is reported. In a reduced view only objects
    whose center falls inside some slot's src are visible; their boxes are
    mapped through the slot transform and clipped to the slot's dst, and
    the degradation knobs apply. Deterministic given (seed, frame, view).
    """
    out: list[Detection] = []
    if isinstance(view, FullView):
        bounds = view.frame.bounds
        for idx, obj in enumerate(gt.objects):
            rng = _rng(noise.seed, _STREAM_DETECT, gt.frame_id, idx)
            z = rng.standard_normal(4)
            rng.uniform()  # keep the stream aligned with the reduced path
            conf = base_confidence(noise, obj.rect.area / view.frame.area)
            rect = _jittered(obj.rect, noise.loc_sigma, noise.loc_sigma, z, bounds)
            if rect is not None:
                out.append(Detection(rect, obj.class_id, conf))
        return out

    plan = view.plan
    if plan.source is None:
        raise ValueError("reduced view needs a plan with a source frame")
    dest_bounds = plan.dest.bounds
    margin_min, p_miss = noise.margin_miss
    for idx, obj in enumerate(gt.objects):
        rng = _rng(noise.seed, _STREAM_DETECT, gt.frame_id, idx)
        z = rng.standard_normal(4)
        u = rng.uniform()
        cx, cy = obj.rect.center
        slot = _covering_slot(plan.slots, cx, cy)
        if slot is None:
            continue
        if _context_margin(obj.rect, slot.src, plan.source.side) < margin_min and u < p_miss:
            continue
        visible = intersection(slot.to_dest(obj.rect), slot.dst)
        if visible is None:
            continue
        deviation = abs(slot.scale_x - 1.0) + abs(slot.scale_y - 1.0)
        conf = base_confidence(noise, obj.rect.area / plan.source.area)
        conf *= noise.scale_penalty**deviation
        rect = _jittered(
            visible,
            noise.loc_sigma * slot.scale_x,
            noise.loc_sigma * slot.scale_y,
            z,
            dest_bounds,
        )
        if rect is not None:
            out.append(Detection(rect, obj.class_id, conf))
    return out


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


def reference_average_precision(
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


def reference_evaluate_detections(
    detections: Sequence[tuple[FrameKey, Detection]],
    ground_truth: Sequence[tuple[FrameKey, GtObject]],
    iou_threshold: float = 0.5,
) -> EvalReport:
    """Score detections against ground truth over every annotated class."""
    classes = sorted({gt.class_id for _, gt in ground_truth})
    per_class = {
        c: reference_average_precision(detections, ground_truth, c, iou_threshold)
        for c in classes
    }
    return EvalReport(
        per_class=per_class,
        mean_ap=mean_average_precision(per_class),
        num_detections=len(detections),
        num_ground_truth=len(ground_truth),
    )
