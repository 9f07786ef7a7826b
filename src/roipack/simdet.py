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
generator per detected object. The generator is `_pcg64`'s PCG64, started
from the key as numpy's `default_rng(key)` starts, and the normals are two
polar-method pairs drawn from its uniforms, so they are not numpy's.

Both views run one per-object loop. The view fixes, once per call, the
clip side (the full frame's, or the plan's reduced frame's), the source
frame's area and, for a reduced view, the slots and the margin-miss and
scale-penalty knobs. Each object gets its confidence; in a reduced view
also its covering slot, margin miss, mapping into the slot's dst and
scale penalty; and one jitter and clip finishes it. The mapping and its
clip to the dst are the floats of `PackSlot.to_dest` and
`geometry.intersection`, kept as plain floats, so no Rect is built
before the detection's own. Every min() and max() of the confidence, of
the dst clip and of the jitter's clip is written as a conditional that
keeps the call's argument order, so ties (0.0 against -0.0) resolve as
the calls resolve them and the detections are bit-identical to the
plain min()/max() form.

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
from .geometry import FrameSpec, Rect, intersects
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
    """Edge-jitter normals and margin-miss uniform for one detected object:
    two normal pairs, then a uniform, from the (seed, _STREAM_DETECT,
    frame_id, idx) generator."""
    rng = PCG64.from_key((seed, _STREAM_DETECT, frame_id, idx))
    return rng.normal_pair() + rng.normal_pair(), rng.next_double()


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
    seed, frame_id, sigma = noise.seed, gt.frame_id, noise.loc_sigma
    intercept, gain = noise.base_conf
    if isinstance(view, FullView):
        side, source_area, slots = view.frame.side, view.frame.area, None
    else:
        plan = view.plan
        side, source_area, slots = plan.dest.side, plan.source.area, plan.slots
        source_side, penalty = plan.source.side, noise.scale_penalty
        margin_min, p_miss = noise.margin_miss
    sigma_x = sigma_y = sigma
    sqrt = math.sqrt
    out: list[Detection] = []
    for idx, obj in enumerate(gt.objects):
        (z0, z1, z2, z3), u = _detect_draws(seed, frame_id, idx)
        rect = obj.rect
        x0, y0, x1, y1 = rect.x_min, rect.y_min, rect.x_max, rect.y_max
        frac = (x1 - x0) * (y1 - y0) / source_area
        conf = intercept + gain * sqrt(frac if frac > 0.0 else 0.0)
        conf = conf if conf > 0.0 else 0.0
        conf = conf if conf < 1.0 else 1.0
        if slots is not None:
            slot = _covering_slot(slots, 0.5 * (x0 + x1), 0.5 * (y0 + y1))
            if slot is None:
                continue
            if _context_margin(rect, slot.src, source_side) < margin_min and u < p_miss:
                continue
            # intersection(slot.to_dest(rect), slot.dst), in floats: a box
            # that maps to nothing (narrower than an ulp of dst) is dropped.
            src, dst = slot.src, slot.dst
            scale_x, scale_y = slot.scale_x, slot.scale_y
            sx, sy = src.x_min, src.y_min
            dx0, dy0, dx1, dy1 = dst.x_min, dst.y_min, dst.x_max, dst.y_max
            x0 = dx0 + (x0 - sx) * scale_x
            x0 = dx0 if dx0 > x0 else x0
            x1 = dx0 + (x1 - sx) * scale_x
            x1 = dx1 if dx1 < x1 else x1
            y0 = dy0 + (y0 - sy) * scale_y
            y0 = dy0 if dy0 > y0 else y0
            y1 = dy0 + (y1 - sy) * scale_y
            y1 = dy1 if dy1 < y1 else y1
            if x0 >= x1 or y0 >= y1:
                continue
            conf *= penalty ** (abs(scale_x - 1.0) + abs(scale_y - 1.0))
            sigma_x, sigma_y = sigma * scale_x, sigma * scale_y
        if sigma_x != 0.0 or sigma_y != 0.0:
            x0 += sigma_x * z0
            y0 += sigma_y * z1
            x1 += sigma_x * z2
            y1 += sigma_y * z3
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
        elif slots is not None:
            rect = Rect(x0, y0, x1, y1)
        out.append(Detection(rect, obj.class_id, conf))
    return out


class SimulatedDetector:
    """Detector over an ordered list of ground-truth frames.

    Frames are addressed by their position in the list, which doubles as
    the pipeline's schedule index.
    """

    def __init__(self, frames: Sequence[GroundTruthFrame], noise: NoiseModel):
        self._frames = list(frames)
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
    # The step into frame f draws one (x, y) jitter pair per object, so a
    # shorter video is a prefix of a longer one with the same seed.
    normal_pair = PCG64.from_key((params.seed, _STREAM_MOTION)).normal_pair
    sigma = params.jitter_sigma

    frames: list[GroundTruthFrame] = []
    for f in range(params.frames):
        if f > 0:
            for i in range(n):
                jx, jy = normal_pair()
                nx, bounced_x = _reflect(cx[i] + vx[i] + sigma * jx, half_w[i], side - half_w[i])
                ny, bounced_y = _reflect(cy[i] + vy[i] + sigma * jy, half_h[i], side - half_h[i])
                cx[i], cy[i] = nx, ny
                if bounced_x:
                    vx[i] = -vx[i]
                if bounced_y:
                    vy[i] = -vy[i]
        objects = tuple(
            [
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
            ]
        )
        frames.append(GroundTruthFrame(f, objects))
    return frames
