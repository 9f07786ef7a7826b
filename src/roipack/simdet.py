"""Ground-truth-driven detector stand-in and synthetic video generator.

It implements the pipeline's Detector protocol over the pipeline's
ground-truth types; no module but the CLI imports it.

The detector is an oracle over ground truth with tunable degradation, so
pipeline accuracy can be measured without a real model:

  * localization jitter (Gaussian, applied in view coordinates and scaled
    by the slot's per-axis scale factors in a reduced view);
  * confidence grows with the object's area fraction of the source frame;
  * an object whose slot crop leaves less than a minimum context margin on
    some side is missed with a fixed probability;
  * confidence is multiplied by scale_penalty once per unit of deviation of
    the slot scale from 1, so unscaled crops are never penalized and the
    baseline packer's rescaled cells are.

All randomness flows from one seed through generators keyed by (seed,
stream). The detector's generators are keyed further by (frame_id, object
index), making per-frame results independent of processing order. Its
draws for one object (four normals for the edge jitter, one uniform for
the margin miss) depend on nothing but that key, and every video of a run
reuses the same frame ids and object indices, so they are memoized per
(seed, frame_id, object index) in a bounded cache instead of building a
generator per detected object. They are the draws numpy's
`default_rng(key)` makes, computed bit for bit by the pure-Python PCG64,
SeedSequence and ziggurat port in `_pcg64`, the package's one generator.

A full view reports every object, and it is the view most frames of a
crowded run fall back to, so its loop reads the noise knobs and the frame
once per call and computes each object's confidence and jittered, clipped
box inline. Each min() and max() of `base_confidence` and `_jittered`
becomes a conditional that keeps its argument order, so that ties (0.0
against -0.0) resolve as the calls resolve them and the detections are
bit-identical; the reduced view calls those helpers.

The generator emits square-frame videos whose per-video union occupancy is
drawn from a sparse/heavy scene mixture averaging the requested mean;
objects move with constant velocity plus jitter and reflect off frame
boundaries. Every draw is one value from a `_pcg64` stream: a video's
scene from its init stream, and its jitter from its own motion stream,
drawn frame by frame, so a shorter video is a prefix of a longer one with
the same seed.
"""

import functools
import math
from functools import reduce
from operator import add
from typing import Optional, Sequence

from ._pcg64 import PCG64
from ._record import frozen
from .geometry import FrameSpec, Rect, intersection, intersects
from .packing import PackSlot
from .pipeline import Detection, FullView, GroundTruthFrame, GtObject, View

_STREAM_INIT = 0
_STREAM_MOTION = 1
_STREAM_DETECT = 2

# Per-video occupancy is drawn from a two-component mixture: most videos
# are sparse scenes with small objects, a minority are close-range scenes
# where objects dominate the frame. That reproduces the long-tailed
# occupancy histograms of road video, where the mean sits well above the
# typical frame. The drawn mean is inflated by a fixed calibration factor
# because object overlap makes the realized union occupancy fall short of
# the sum of object areas.
_OCC_SPARSE_WEIGHT = 0.68
_OCC_SPARSE_FRAC = 0.45
_OCC_ALPHA_SPARSE = 1.2
_OCC_ALPHA_HEAVY = 2.2
_OCC_CALIBRATION = 1.30
_OCC_HEAVY_MEAN_CAP = 0.85
_OCC_RANGE = (0.02, 0.70)

_MIN_SIDE = 8.0
_MAX_SIDE_FRAC = 0.92
_ASPECT_RANGE = (0.65, 1.54)
_PLACEMENT_TRIES = 25


# About 1.8 MB when full (~430 bytes an entry); a run's videos share a few
# hundred keys, since frame ids and object indices repeat across videos.
_DETECT_DRAWS_CACHE_SIZE = 4096


@functools.lru_cache(maxsize=_DETECT_DRAWS_CACHE_SIZE)
def _detect_draws(seed: int, frame_id: int, idx: int) -> tuple[tuple[float, ...], float]:
    """Edge-jitter normals and margin-miss uniform for one detected object.

    They equal, to the bit, `standard_normal(4)` then `uniform()` of
    `numpy.random.default_rng([seed, _STREAM_DETECT, frame_id, idx])`.
    """
    rng = PCG64.from_key((seed, _STREAM_DETECT, frame_id, idx))
    normal = rng.standard_normal
    return (normal(), normal(), normal(), normal()), rng.next_double()


@frozen
class NoiseModel:
    """Degradation knobs for the simulated detector.

    base_conf is (intercept, gain): confidence is
    clip(intercept + gain * sqrt(area_fraction), 0, 1). margin_miss is
    (min_margin_px, miss_probability). scale_penalty of 1 disables the
    scale term entirely.
    """

    seed: int = 0
    loc_sigma: float = 1.0
    base_conf: tuple[float, float] = (0.55, 1.0)
    margin_miss: tuple[float, float] = (8.0, 0.5)
    scale_penalty: float = 0.35

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.loc_sigma < 0:
            raise ValueError("loc_sigma must be nonnegative")
        margin, p_miss = self.margin_miss
        if margin < 0 or not 0.0 <= p_miss <= 1.0:
            raise ValueError("margin_miss must be (margin >= 0, probability)")
        if not 0.0 < self.scale_penalty <= 1.0:
            raise ValueError("scale_penalty must be in (0, 1]")

    @classmethod
    def disabled(cls, seed: int = 0) -> "NoiseModel":
        """All degradation off: exact boxes, no misses, no scale penalty."""
        return cls(seed=seed, loc_sigma=0.0, margin_miss=(0.0, 0.0), scale_penalty=1.0)


def base_confidence(noise: NoiseModel, area_fraction: float) -> float:
    intercept, gain = noise.base_conf
    return min(1.0, max(0.0, intercept + gain * math.sqrt(max(0.0, area_fraction))))


def _jittered(
    rect: Rect, sigma_x: float, sigma_y: float, z: Sequence[float], bounds: Rect
) -> Optional[Rect]:
    """Perturb each edge, clip to bounds; None if the box collapses."""
    if sigma_x == 0.0 and sigma_y == 0.0:
        return rect
    x0 = rect.x_min + sigma_x * z[0]
    y0 = rect.y_min + sigma_y * z[1]
    x1 = rect.x_max + sigma_x * z[2]
    y1 = rect.y_max + sigma_y * z[3]
    x0 = min(max(x0, bounds.x_min), bounds.x_max)
    y0 = min(max(y0, bounds.y_min), bounds.y_max)
    x1 = min(max(x1, bounds.x_min), bounds.x_max)
    y1 = min(max(y1, bounds.y_min), bounds.y_max)
    if x1 - x0 <= 1e-6 or y1 - y0 <= 1e-6:
        return None
    return Rect(x0, y0, x1, y1)


def _context_margin(obj: Rect, slot_src: Rect, frame_side: float) -> float:
    """Smallest context margin the crop leaves around the object.

    Sides where the crop already reaches the frame boundary provide all the
    context that exists, so they do not bound the margin.
    """
    margins = []
    if slot_src.x_min > 0.0:
        margins.append(obj.x_min - slot_src.x_min)
    if slot_src.x_max < frame_side:
        margins.append(slot_src.x_max - obj.x_max)
    if slot_src.y_min > 0.0:
        margins.append(obj.y_min - slot_src.y_min)
    if slot_src.y_max < frame_side:
        margins.append(slot_src.y_max - obj.y_max)
    return min(margins) if margins else math.inf


def _covering_slot(slots: Sequence[PackSlot], cx: float, cy: float) -> Optional[PackSlot]:
    for slot in slots:
        if slot.src.contains_point(cx, cy):
            return slot
    return None


def oracle_detect(view: View, gt: GroundTruthFrame, noise: NoiseModel) -> list[Detection]:
    """Simulate detection of a frame's ground truth under a view.

    In a full view every object is reported. In a reduced view only objects
    whose center falls inside some slot's src are visible; their boxes are
    mapped through the slot transform and clipped to the slot's dst, and
    the degradation knobs apply. Deterministic given (seed, frame, view):
    each object's draws come from `_detect_draws`, memoized per
    (seed, frame_id, object index), which is valid because they depend on
    that key alone and not on the view or on the other noise knobs.
    """
    out: list[Detection] = []
    if isinstance(view, FullView):
        # base_confidence and _jittered (clip bounds 0 and the side) written
        # out with each min/max as the conditional that keeps its ties.
        seed, frame_id, sigma = noise.seed, gt.frame_id, noise.loc_sigma
        intercept, gain = noise.base_conf
        side, frame_area = view.frame.side, view.frame.area
        sqrt = math.sqrt
        for idx, obj in enumerate(gt.objects):
            z0, z1, z2, z3 = _detect_draws(seed, frame_id, idx)[0]
            rect = obj.rect
            x0, y0, x1, y1 = rect.x_min, rect.y_min, rect.x_max, rect.y_max
            frac = (x1 - x0) * (y1 - y0) / frame_area
            conf = intercept + gain * sqrt(frac if frac > 0.0 else 0.0)
            conf = conf if conf > 0.0 else 0.0
            conf = conf if conf < 1.0 else 1.0
            if sigma != 0.0:
                x0 += sigma * z0
                y0 += sigma * z1
                x1 += sigma * z2
                y1 += sigma * z3
                x0 = 0.0 if 0.0 > x0 else x0
                x0 = side if side < x0 else x0
                y0 = 0.0 if 0.0 > y0 else y0
                y0 = side if side < y0 else y0
                x1 = 0.0 if 0.0 > x1 else x1
                x1 = side if side < x1 else x1
                y1 = 0.0 if 0.0 > y1 else y1
                y1 = side if side < y1 else y1
                if x1 - x0 <= 1e-6 or y1 - y0 <= 1e-6:
                    continue
                rect = Rect(x0, y0, x1, y1)
            out.append(Detection(rect, obj.class_id, conf))
        return out

    plan = view.plan
    dest_bounds = plan.dest.bounds
    margin_min, p_miss = noise.margin_miss
    for idx, obj in enumerate(gt.objects):
        z, u = _detect_draws(noise.seed, gt.frame_id, idx)
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


class SimulatedDetector:
    """Detector over an ordered list of ground-truth frames.

    Frames are addressed by their position in the list, which doubles as
    the pipeline's schedule index.
    """

    def __init__(self, frames: Sequence[GroundTruthFrame], noise: NoiseModel):
        self._frames = tuple(frames)
        self._noise = noise

    def detect(self, frame_index: int, view: View) -> list[Detection]:
        if not 0 <= frame_index < len(self._frames):
            raise IndexError(f"frame index out of range: {frame_index}")
        return oracle_detect(view, self._frames[frame_index], self._noise)


@frozen
class SyntheticParams:
    """Controls for one generated video.

    occupancy_target is the mean union occupancy across many videos; each
    video draws its own occupancy from a skewed distribution around it.
    velocity is the (min, max) speed range in pixels per frame.
    """

    num_objects: tuple[int, int] = (1, 4)
    occupancy_target: float = 0.227
    velocity: tuple[float, float] = (0.3, 1.5)
    jitter_sigma: float = 0.2
    frames: int = 100
    seed: int = 0
    frame: FrameSpec = FrameSpec(300.0)
    num_classes: int = 3

    def __post_init__(self):
        lo, hi = self.num_objects
        if not 1 <= lo <= hi:
            raise ValueError("num_objects must be an increasing range from >= 1")
        if not 0.0 < self.occupancy_target < 1.0:
            raise ValueError("occupancy_target must be in (0, 1)")
        v_lo, v_hi = self.velocity
        if v_lo < 0 or v_hi < v_lo:
            raise ValueError("velocity range must be nonnegative and increasing")
        if self.jitter_sigma < 0:
            raise ValueError("jitter_sigma must be nonnegative")
        if self.frames < 1:
            raise ValueError("frames must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")


def _sample_occupancy(rng: PCG64, target: float) -> float:
    mean_total = _OCC_CALIBRATION * target
    mean_sparse = _OCC_SPARSE_FRAC * mean_total
    if rng.next_double() < _OCC_SPARSE_WEIGHT:
        mean, alpha = mean_sparse, _OCC_ALPHA_SPARSE
    else:
        mean = (mean_total - _OCC_SPARSE_WEIGHT * mean_sparse) / (1.0 - _OCC_SPARSE_WEIGHT)
        mean, alpha = min(_OCC_HEAVY_MEAN_CAP, mean), _OCC_ALPHA_HEAVY
    beta = alpha * (1.0 - mean) / mean
    draw = rng.beta(alpha, beta)
    return min(max(draw, _OCC_RANGE[0]), _OCC_RANGE[1])


def _reflect(pos: float, lo: float, hi: float) -> tuple[float, bool]:
    if pos < lo:
        return min(2.0 * lo - pos, hi), True
    if pos > hi:
        return max(2.0 * hi - pos, lo), True
    return pos, False


def gen_synthetic(params: SyntheticParams) -> list[GroundTruthFrame]:
    """Generate one video as a list of ground-truth frames (ids 0..n-1)."""
    side = params.frame.side
    init = PCG64.from_key((params.seed, _STREAM_INIT))
    n = init.integers(params.num_objects[0], params.num_objects[1] + 1)
    occupancy = _sample_occupancy(init, params.occupancy_target)

    weights = [init.uniform(0.5, 1.5) for _ in range(n)]
    total = reduce(add, weights)  # not sum(): compensated from Python 3.12 on
    weights = [w / total for w in weights]
    log_lo, log_hi = math.log(_ASPECT_RANGE[0]), math.log(_ASPECT_RANGE[1])
    aspects = [math.exp(init.uniform(log_lo, log_hi)) for _ in range(n)]
    classes = [init.integers(0, params.num_classes) for _ in range(n)]
    speeds = [init.uniform(params.velocity[0], params.velocity[1]) for _ in range(n)]
    angles = [init.uniform(0.0, 2.0 * math.pi) for _ in range(n)]

    max_side = _MAX_SIDE_FRAC * side
    half_w: list[float] = []
    half_h: list[float] = []
    for i in range(n):
        area = occupancy * side * side * weights[i]
        w = min(max(math.sqrt(area * aspects[i]), _MIN_SIDE), max_side)
        h = min(max(math.sqrt(area / aspects[i]), _MIN_SIDE), max_side)
        half_w.append(0.5 * w)
        half_h.append(0.5 * h)

    # Rejection placement keeps the initial union close to the occupancy
    # draw by avoiding overlaps when the frame allows it.
    cx: list[float] = []
    cy: list[float] = []
    placed: list[Rect] = []
    for i in range(n):
        for _ in range(_PLACEMENT_TRIES):
            x = init.uniform(half_w[i], side - half_w[i])
            y = init.uniform(half_h[i], side - half_h[i])
            candidate = Rect(x - half_w[i], y - half_h[i], x + half_w[i], y + half_h[i])
            if not any(intersects(candidate, other) for other in placed):
                break
        cx.append(x)
        cy.append(y)
        placed.append(candidate)

    vx = [s * math.cos(a) for s, a in zip(speeds, angles)]
    vy = [s * math.sin(a) for s, a in zip(speeds, angles)]
    # The step into frame f draws every object's x and then y jitter, so a
    # shorter video is a prefix of a longer one with the same seed.
    normal = PCG64.from_key((params.seed, _STREAM_MOTION)).standard_normal
    sigma = params.jitter_sigma

    frames: list[GroundTruthFrame] = []
    for f in range(params.frames):
        if f > 0:
            for i in range(n):
                jx, jy = sigma * normal(), sigma * normal()
                nx, bounced_x = _reflect(cx[i] + vx[i] + jx, half_w[i], side - half_w[i])
                ny, bounced_y = _reflect(cy[i] + vy[i] + jy, half_h[i], side - half_h[i])
                cx[i], cy[i] = nx, ny
                if bounced_x:
                    vx[i] = -vx[i]
                if bounced_y:
                    vy[i] = -vy[i]
        objects = tuple(
            GtObject(
                classes[i],
                Rect(
                    cx[i] - half_w[i],
                    cy[i] - half_h[i],
                    cx[i] + half_w[i],
                    cy[i] + half_h[i],
                ),
            )
            for i in range(n)
        )
        frames.append(GroundTruthFrame(f, objects))
    return frames
