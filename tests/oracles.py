"""Independent reference implementations used to cross-check the package.

Most computations here are done a structurally different way than the
library does them (rasterization instead of sweeps, transitive closure
instead of union-find, per-prefix re-matching instead of one-pass
accumulation), so agreement is meaningful, and they import nothing from the
package beyond plain data types.

reference_expand_greedy is the continuous greedy expansion simulated from
event to event in exact rationals (`fractions`), on the float boxes that
place_and_fit returns. It moves every edge at its speed until the nearest
event, then reads which slots stop from the positions alone, where the
package computes each slot's freeze time in floats in one closed form. The
package must agree within a few ulps of the source side per coordinate. It
reuses the package's choose_layout and place_and_fit, so it differs only in
the growth.

Others are the package's own code as it was before a change for speed:
reference_read_annotations is the annotation parser as it was
before it tried exact types first, checking every rule of every object, and
reference_merge_overlaps is the overlap merge as it was before it read each
box's coordinates into locals: rounds of brute_components, each component
replaced by a box of generator min()/max() over its members. The package
must parse to equal frames or raise the identical message, and merge to
bit-identical boxes.

Likewise reference_oracle_detect is the simulated detector as it was before
its per-object draws were memoized: it builds a fresh numpy generator for
every object and draws its normals with reference_normal_pair, its own
polar-method loop over numpy's uniforms, so it shares no code with the
package's generator. Its confidence, context margin, covering slot, clip
to the slot's dst and jitter-and-clip are its own code of plain min() and
max() calls, one path per view, where the package runs one loop of
tie-keeping conditionals for both; it maps an object into its slot's dst
with its own arithmetic, not through PackSlot.to_dest, so a box that maps
to nothing is dropped rather than raising; the package must return equal
detections. Likewise reference_map_back picks a detection's slot by max()
of (overlap, -index) keys and maps and clips it with min() and max()
calls, where map_back keeps running maxima in conditionals; the two must
agree bit for bit. And
reference_evaluate_detections is the evaluator as it was before scoring
became one pass: it re-filters every detection and ground-truth box once per
class, ranks them over all frames at once and computes each IoU with its own
_box_iou, and the package, which matches frame by frame and then ranks, must
report equal APs.
"""

import json
import math
from fractions import Fraction
from typing import Hashable, Optional, Sequence

import numpy as np

from roipack.evaluation import EvalReport, Scores, match_frame, mean_average_precision
from roipack.costmodel import FrameDecision
from roipack.formats import AnnotationError, flat_frame
from roipack.geometry import FrameSpec, Rect
from roipack.packing import MAX_SLOTS, Layout, PackPlan, PackSlot, choose_layout, place_and_fit
from roipack.pipeline import Detection, FrameRecord, FullView, GroundTruthFrame, GtObject, View
from roipack.simdet import _STREAM_DETECT, NoiseModel


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


def _reference_enclosing(rects: Sequence[Rect]) -> Rect:
    return Rect(
        min(r.x_min for r in rects),
        min(r.y_min for r in rects),
        max(r.x_max for r in rects),
        max(r.y_max for r in rects),
    )


def reference_merge_overlaps(rects: Sequence[Rect]) -> list[Rect]:
    """Merge rounds until no box overlaps another, by brute_components."""
    boxes = list(rects)
    while True:
        comps = brute_components(boxes)
        if len(comps) == len(boxes):
            return boxes
        boxes = [_reference_enclosing([boxes[i] for i in comp]) for comp in comps]


def _overlaps(a: Rect, b: Rect) -> bool:
    return (
        a.x_min < b.x_max
        and b.x_min < a.x_max
        and a.y_min < b.y_max
        and b.y_min < a.y_max
    )


def _box_iou(a, b):
    """IoU of two (x0, y0, x1, y1) boxes; 0.0 when their union's area is 0.0."""
    ix = min(a[2], b[2]) - max(a[0], b[0])
    iy = min(a[3], b[3]) - max(a[1], b[1])
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    union = area_a + area_b - inter
    return inter / union if union != 0.0 else 0.0


def _rect_box(r: Rect) -> tuple[float, float, float, float]:
    return r.x_min, r.y_min, r.x_max, r.y_max


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


def _reference_expand_axis(box, axis: int, layout: Layout, dest_side, src_side):
    """Grow the [x0, y0, x1, y1] rational boxes along one axis, in place,
    from event to event.

    Between two events every edge moves at a constant speed: an active
    slot's edges each move at 1/2, or its free edge at 1 once the other is
    at a frame edge. Each step goes to the nearest instant at which an edge
    reaches a frame edge or a blocker's edge, a group's capacity runs out,
    or a slot reaches its group's extent; after it, the slots that span the
    source, touch a blocker or have no capacity left stop. Everything is
    read from the positions; nothing is carried from one step to the next.
    """
    n = len(box)
    lo = [b[axis] for b in box]
    hi = [b[axis + 2] for b in box]
    eps = Fraction(_EPS)
    o_lo, o_hi = 1 - axis, 3 - axis
    blockers = [
        [j for j in range(n) if j != i and box[i][o_lo] + eps < box[j][o_hi]
         and box[j][o_lo] + eps < box[i][o_hi]]
        for i in range(n)
    ]
    groups = layout.groups
    group_of = {i: g for g, members in enumerate(groups) for i in members}
    on_extent = axis == layout.axis
    active = set(range(n))
    while True:
        size = [h - l for l, h in zip(lo, hi)]
        extent = [max(size[i] for i in members) for members in groups]
        slack = dest_side - sum(extent)

        def stops(i):
            if lo[i] == 0 and hi[i] == src_side:
                return True
            if any(lo[i] <= hi[j] and lo[j] <= hi[i] for j in blockers[i]):
                return True
            g = group_of[i]
            if on_extent:
                return size[i] == extent[g] and slack <= 0
            return dest_side - sum(size[j] for j in groups[g]) <= 0

        active -= {i for i in active if stops(i)}
        if not active:
            break
        down, up = {}, {}
        for i in active:
            if lo[i] == 0:
                down[i], up[i] = Fraction(0), Fraction(1)
            elif hi[i] == src_side:
                down[i], up[i] = Fraction(1), Fraction(0)
            else:
                down[i] = up[i] = Fraction(1, 2)
        steps = []
        for i in active:
            if down[i]:
                steps.append(lo[i] / down[i])
            if up[i]:
                steps.append((src_side - hi[i]) / up[i])
            for j in blockers[i]:
                other = j in active
                if hi[i] <= lo[j]:
                    closing = up[i] + (down[j] if other else 0)
                    if closing:
                        steps.append((lo[j] - hi[i]) / closing)
                else:
                    closing = down[i] + (up[j] if other else 0)
                    if closing:
                        steps.append((lo[i] - hi[j]) / closing)
        for g, members in enumerate(groups):
            growers = [i for i in members if i in active]
            if not growers:
                continue
            if not on_extent:
                steps.append((dest_side - sum(size[i] for i in members)) / len(growers))
            elif all(size[i] < extent[g] for i in growers):
                steps.append(extent[g] - max(size[i] for i in growers))
        widening = sum(
            1 for g, members in enumerate(groups)
            if any(i in active and size[i] == extent[g] for i in members)
        )
        if on_extent and widening:
            steps.append(slack / widening)
        step = min(steps)
        for i in active:
            lo[i] -= down[i] * step
            hi[i] += up[i] * step
    for b, l, h in zip(box, lo, hi):
        b[axis], b[axis + 2] = l, h


def reference_expand_greedy(src, layout: Layout, source: FrameSpec, dest: FrameSpec) -> list:
    """The boxes that place_and_fit() returned, grown by the continuous
    expansion in exact rationals: [x0, y0, x1, y1] Fractions per slot."""
    box = [[Fraction(v) for v in b] for b in src]
    for axis in (layout.axis, 1 - layout.axis):
        _reference_expand_axis(box, axis, layout, Fraction(dest.side), Fraction(source.side))
    return box


def reference_pack(rois, source: FrameSpec, dest: FrameSpec):
    """pack() with reference_expand_greedy in place of expand_greedy: the
    grown boxes as rationals, or None where pack() falls back."""
    if not rois:
        return None
    merged = reference_merge_overlaps(rois)
    if len(merged) > MAX_SLOTS:
        return None
    layout = choose_layout(merged)
    src = place_and_fit(merged, layout, dest)
    if src is None:
        return None
    return reference_expand_greedy(src, layout, source, dest)


def _reference_parse_object(raw: object, side: float, where: str) -> GtObject:
    if not isinstance(raw, dict):
        raise AnnotationError(f"{where}: object entry must be a JSON object")
    try:
        class_id = raw["class"]
        coords = [raw["x0"], raw["y0"], raw["x1"], raw["y1"]]
    except KeyError as exc:
        raise AnnotationError(f"{where}: object missing key {exc}") from None
    if not isinstance(class_id, int) or isinstance(class_id, bool) or class_id < 0:
        raise AnnotationError(f"{where}: class must be a nonnegative integer")
    for v in coords:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise AnnotationError(f"{where}: coordinates must be numbers")
        # Compared as given: float() of a long integer overflows.
        if not 0 <= v <= 1:
            raise AnnotationError(f"{where}: coordinate {v} outside [0, 1]")
    x0, y0, x1, y1 = (float(v) for v in coords)
    # Tested after scaling, where two close coordinates can round together.
    rect = (x0 * side, y0 * side, x1 * side, y1 * side)
    if rect[0] >= rect[2] or rect[1] >= rect[3]:
        raise AnnotationError(
            f"{where}: empty box ({x0}, {y0}, {x1}, {y1}) at frame side {side:g}"
        )
    return GtObject(class_id, Rect(*rect))


def reference_read_annotations(path: str, frame_spec: FrameSpec) -> dict[str, list[GroundTruthFrame]]:
    """Parse an annotation file into per-video frame lists.

    Frames keep file order per video and must carry strictly increasing
    frame ids. Any malformed line raises AnnotationError naming the line.
    """
    videos: dict[str, list[GroundTruthFrame]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AnnotationError(f"{where}: invalid JSON ({exc.msg})") from None
            except (ValueError, RecursionError) as exc:  # too many digits, too deep
                raise AnnotationError(f"{where}: unreadable JSON ({exc})") from None
            if not isinstance(record, dict):
                raise AnnotationError(f"{where}: record must be a JSON object")
            video = record.get("video")
            frame_id = record.get("frame")
            objects = record.get("objects")
            if not isinstance(video, str) or not video:
                raise AnnotationError(f"{where}: 'video' must be a nonempty string")
            if not isinstance(frame_id, int) or isinstance(frame_id, bool) or frame_id < 0:
                raise AnnotationError(f"{where}: 'frame' must be a nonnegative integer")
            if not isinstance(objects, list):
                raise AnnotationError(f"{where}: 'objects' must be a list")
            parsed = tuple(
                _reference_parse_object(raw, frame_spec.side, where) for raw in objects
            )
            frames = videos.setdefault(video, [])
            if frames and frame_id <= frames[-1].frame_id:
                raise AnnotationError(
                    f"{where}: frame ids must be strictly increasing per video"
                )
            frames.append(GroundTruthFrame(frame_id, parsed))
    return videos


def reference_normal_pair(rng: np.random.Generator) -> tuple[float, float]:
    """Marsaglia and Bray's polar method over `rng.random()`: a point of the
    square (-1, 1)² is redrawn until its squared radius s is in (0, 1), and
    scaled by sqrt(-2 ln s / s)."""
    while True:
        u = 2.0 * rng.random() - 1.0
        v = 2.0 * rng.random() - 1.0
        radius2 = u * u + v * v
        if 0.0 < radius2 < 1.0:
            scale = math.sqrt(-2.0 * math.log(radius2) / radius2)
            return u * scale, v * scale


def reference_detect_draws(seed: int, frame_id: int, idx: int) -> tuple[tuple[float, ...], float]:
    """One object's four edge-jitter normals and its margin-miss uniform,
    from numpy's `default_rng([seed, _STREAM_DETECT, frame_id, idx])`."""
    rng = np.random.default_rng([seed, _STREAM_DETECT, frame_id, idx])
    return reference_normal_pair(rng) + reference_normal_pair(rng), rng.random()


def _reference_confidence(noise: NoiseModel, area_fraction: float) -> float:
    intercept, gain = noise.base_conf
    return min(1.0, max(0.0, intercept + gain * math.sqrt(max(0.0, area_fraction))))


def _reference_jittered(
    rect: Rect, sigma_x: float, sigma_y: float, z: Sequence[float], side: float
) -> Optional[Rect]:
    """Perturb each edge, clip to [0, side]; None if the box collapses."""
    if sigma_x == 0.0 and sigma_y == 0.0:
        return rect
    x0 = min(max(rect.x_min + sigma_x * z[0], 0.0), side)
    y0 = min(max(rect.y_min + sigma_y * z[1], 0.0), side)
    x1 = min(max(rect.x_max + sigma_x * z[2], 0.0), side)
    y1 = min(max(rect.y_max + sigma_y * z[3], 0.0), side)
    if x1 - x0 <= 1e-6 or y1 - y0 <= 1e-6:
        return None
    return Rect(x0, y0, x1, y1)


def _reference_context_margin(obj: Rect, src: Rect, frame_side: float) -> float:
    """Smallest margin the crop leaves on a side that does not reach the
    frame boundary; infinite when every side does."""
    margins = [
        margin
        for margin, bounded in (
            (obj.x_min - src.x_min, src.x_min > 0.0),
            (src.x_max - obj.x_max, src.x_max < frame_side),
            (obj.y_min - src.y_min, src.y_min > 0.0),
            (src.y_max - obj.y_max, src.y_max < frame_side),
        )
        if bounded
    ]
    return min(margins) if margins else math.inf


def _reference_visible(obj: Rect, slot: PackSlot) -> Optional[Rect]:
    """The object mapped into the slot's dst and clipped to it, or None
    when nothing is left, as for a box narrower than an ulp of the dst."""
    src, dst = slot.src, slot.dst
    x0 = max(dst.x_min + (obj.x_min - src.x_min) * slot.scale_x, dst.x_min)
    y0 = max(dst.y_min + (obj.y_min - src.y_min) * slot.scale_y, dst.y_min)
    x1 = min(dst.x_min + (obj.x_max - src.x_min) * slot.scale_x, dst.x_max)
    y1 = min(dst.y_min + (obj.y_max - src.y_min) * slot.scale_y, dst.y_max)
    if x0 >= x1 or y0 >= y1:
        return None
    return Rect(x0, y0, x1, y1)


def reference_oracle_detect(view: View, gt: GroundTruthFrame, noise: NoiseModel) -> list[Detection]:
    """Simulate detection of a frame's ground truth under a view.

    In a full view every object is reported. In a reduced view only objects
    whose center falls inside some slot's src are visible (the first such
    slot sees them); their boxes are mapped through the slot transform and
    clipped to the slot's dst, and the degradation knobs apply.
    Deterministic given (seed, frame, view). Each object's draws come from
    `reference_detect_draws`, and its confidence, margin, mapping and
    jitter from the plain min()/max() helpers above, so this reference
    shares no code with the detector.
    """
    out: list[Detection] = []
    if isinstance(view, FullView):
        for idx, obj in enumerate(gt.objects):
            z, _ = reference_detect_draws(noise.seed, gt.frame_id, idx)
            conf = _reference_confidence(noise, obj.rect.area / view.frame.area)
            sigma = noise.loc_sigma
            rect = _reference_jittered(obj.rect, sigma, sigma, z, view.frame.side)
            if rect is not None:
                out.append(Detection(rect, obj.class_id, conf))
        return out

    plan = view.plan
    margin_min, p_miss = noise.margin_miss
    for idx, obj in enumerate(gt.objects):
        z, u = reference_detect_draws(noise.seed, gt.frame_id, idx)
        cx, cy = obj.rect.center
        slot = next((s for s in plan.slots if s.src.contains_point(cx, cy)), None)
        if slot is None:
            continue
        margin = _reference_context_margin(obj.rect, slot.src, plan.source.side)
        if margin < margin_min and u < p_miss:
            continue
        visible = _reference_visible(obj.rect, slot)
        if visible is None:
            continue
        deviation = abs(slot.scale_x - 1.0) + abs(slot.scale_y - 1.0)
        conf = _reference_confidence(noise, obj.rect.area / plan.source.area)
        conf *= noise.scale_penalty**deviation
        rect = _reference_jittered(
            visible,
            noise.loc_sigma * slot.scale_x,
            noise.loc_sigma * slot.scale_y,
            z,
            plan.dest.side,
        )
        if rect is not None:
            out.append(Detection(rect, obj.class_id, conf))
    return out


def reference_map_back(detections: Sequence[Detection], plan: PackPlan) -> list[Detection]:
    """Reduced-frame detections mapped into the source frame.

    Every slot's overlap with the detection is keyed (area, -slot index),
    and max() of the keys picks the slot, so the greatest overlap wins and
    a tie goes to the first slot; a detection whose best overlap is not
    positive is dropped. The box is divided back through that slot's
    scale, clipped to its src with min() and max(), and dropped if
    nothing is left.
    """
    out = []
    for det in detections:
        r = det.rect
        keys = []
        for index, slot in enumerate(plan.slots):
            d = slot.dst
            w = min(r.x_max, d.x_max) - max(r.x_min, d.x_min)
            h = min(r.y_max, d.y_max) - max(r.y_min, d.y_min)
            keys.append((w * h if w > 0.0 and h > 0.0 else 0.0, -index))
        area, minus_index = max(keys)
        if area <= 0.0:
            continue
        slot = plan.slots[-minus_index]
        src, dst = slot.src, slot.dst
        x0 = max(src.x_min + (r.x_min - dst.x_min) / slot.scale_x, src.x_min)
        y0 = max(src.y_min + (r.y_min - dst.y_min) / slot.scale_y, src.y_min)
        x1 = min(src.x_min + (r.x_max - dst.x_min) / slot.scale_x, src.x_max)
        y1 = min(src.y_min + (r.y_max - dst.y_min) / slot.scale_y, src.y_max)
        if x0 >= x1 or y0 >= y1:
            continue
        out.append(Detection(Rect(x0, y0, x1, y1), det.class_id, det.confidence))
    return out


def detection_bits(detections):
    """Not an oracle: each detection's exact floats, sign of zero included,
    for comparing detections bit for bit."""
    return [
        (
            tuple(float(v).hex() for v in (d.rect.x_min, d.rect.y_min, d.rect.x_max, d.rect.y_max)),
            d.class_id,
            float(d.confidence).hex(),
        )
        for d in detections
    ]


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


def match(detections, objects, iou_threshold=0.5):
    """Not an oracle: the package's `match_frame` of one frame's Detection
    and GtObject sequences, converted to the flat form by `flat_frame`."""
    outcome = FrameRecord(0, FrameDecision.anchor(), tuple(detections))
    return match_frame(flat_frame("", GroundTruthFrame(0, tuple(objects)), outcome), iou_threshold)


def matched_frames(detections, ground_truth, iou_threshold=0.5):
    """Not an oracle: the package's `Scores` of the per-frame `match_frame`
    results for (frame key, object) pairs, added in sorted frame-key order,
    ready for `evaluate_detections`."""
    frames = {}
    for key, det in detections:
        frames.setdefault(key, ([], []))[0].append(det)
    for key, gt in ground_truth:
        frames.setdefault(key, ([], []))[1].append(gt)
    return Scores(match(*frames[key], iou_threshold) for key in sorted(frames))


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
            overlap = _box_iou(_rect_box(det.rect), _rect_box(gt.rect))
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
