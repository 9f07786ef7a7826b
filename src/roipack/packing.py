"""Packing regions of interest into a reduced square frame.

The greedy packer turns a set of ROI boxes from the previous frame into a
plan that crops up to four source patches and lays them out, unscaled, in a
smaller destination frame:

  1. overlapping ROIs are merged (repeatedly, via connected components of
     the intersection graph) until the boxes are pairwise disjoint;
  2. a two-column or two-row layout is chosen from the largest box
     dimension, and placing the boxes flush at their original size tells
     whether they fit, from their sizes alone;
  3. if they fit, every patch is grown in place, along the axis the groups
     are laid out on first, so the crops carry as much surrounding context
     as the destination allows; the grown crops are placed flush once more,
     and only then are the slots and the plan built, each once.

Growth is the continuous limit of the paper's greedy increments as they
shrink. Along one axis at a time, every growing slot grows at one rate, half
on each side, or all on the free side once its other edge is at a frame
edge. It freezes when its capacity is used up (its group's free side on the
stacking axis; on the extent axis the slack, once it has reached its
group's extent), when it touches another slot's source patch, or when it
spans the source frame. Each event is one closed-form step away.

The overlap merge is loaded hardest where frames are crowded, so its loops
work on flat values: `connected_components` reads each box's coordinates
once into a tuple, tests overlap inline and keeps each component's label as
a list of smallest member indices, and `enclosing` keeps running extremes.
Ties resolve as min() and max() resolve them, so the boxes are bit-identical
to a merge built on `intersects` and generator min()/max().

Here and in every module, a tuple built in a function is built from a list,
`tuple([...])`, never from a generator, and a video's frames and records
are kept in lists. CPython sizes a tuple from a generator at ten slots and
shrinks it, so each call leaves one more tuple of the final size on the
interpreter's free list; and 3.11 and 3.12 park every freed 20-item tuple on
a free list they never take from. Either way a run's memory climbed with
its input, up to 2,000 tuples of each size.

A naive baseline packer is included for comparison: each ROI is expanded by
a fixed factor and rescaled into a fixed grid cell, which distorts aspect
ratios and provides little context.
"""

import math
from enum import Enum
from typing import Optional, Sequence

from ._record import frozen
from .geometry import FrameSpec, Rect, enclosing

MAX_SLOTS = 4

# Largest frame side the command line accepts, because a larger frame's area
# can overflow. Expansion time does not grow with the side: it follows
# events (a freeze, a contact, a pin to a frame edge), not pixels of growth.
MAX_FRAME_SIDE = 65536.0

_EPS = 1e-9
_NAIVE_EXPAND = 1.2


class PackMethod(str, Enum):
    GREEDY = "greedy"
    NAIVE = "naive"


@frozen
class PackSlot:
    """One packed patch: a source crop, its destination placement and scale.

    `dst` dimensions equal `src` dimensions multiplied by (scale_x, scale_y).
    Greedy plans always use scale 1 (pure translation); the naive baseline
    rescales arbitrarily.
    """

    src: Rect
    dst: Rect
    scale_x: float
    scale_y: float

    def __post_init__(self):
        if not (0.0 < self.scale_x < math.inf and 0.0 < self.scale_y < math.inf):
            raise ValueError("slot scale factors must be positive and finite")

    def map_to_dest(self, x0: float, y0: float, x1: float, y1: float) -> tuple:
        """A source-coordinate box's corners in destination coordinates."""
        sx, sy, dx, dy = self.src.x_min, self.src.y_min, self.dst.x_min, self.dst.y_min
        scale_x, scale_y = self.scale_x, self.scale_y
        return (dx + (x0 - sx) * scale_x, dy + (y0 - sy) * scale_y,
                dx + (x1 - sx) * scale_x, dy + (y1 - sy) * scale_y)

    def map_to_source(self, x0: float, y0: float, x1: float, y1: float) -> tuple:
        """A destination-coordinate box's corners in source coordinates. It
        divides by the scale: multiplying by its inverse would round
        differently."""
        sx, sy, dx, dy = self.src.x_min, self.src.y_min, self.dst.x_min, self.dst.y_min
        scale_x, scale_y = self.scale_x, self.scale_y
        return (sx + (x0 - dx) / scale_x, sy + (y0 - dy) / scale_y,
                sx + (x1 - dx) / scale_x, sy + (y1 - dy) / scale_y)

    def to_dest(self, rect: Rect) -> Rect:
        """Map a rect from source coordinates into destination coordinates."""
        return Rect(*self.map_to_dest(rect.x_min, rect.y_min, rect.x_max, rect.y_max))

    def to_source(self, rect: Rect) -> Rect:
        """Map a rect from destination coordinates back into source coordinates."""
        return Rect(*self.map_to_source(rect.x_min, rect.y_min, rect.x_max, rect.y_max))


@frozen
class Layout:
    """Grid arrangement for up to four disjoint boxes.

    `groups[g]` lists group g's box indices in stacking order. With `axis`
    0 the groups are columns laid out left to right along x, their members
    stacked top to bottom; with `axis` 1 they are rows laid out top to
    bottom, their members running left to right.
    """

    axis: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.axis not in (0, 1):
            raise ValueError(f"axis must be 0 (columns) or 1 (rows), got {self.axis!r}")
        members = sorted(i for group in self.groups for i in group)
        if not 1 <= len(members) <= MAX_SLOTS:
            raise ValueError(f"a layout holds 1..{MAX_SLOTS} boxes, got {len(members)}")
        if not all(self.groups) or members != list(range(len(members))):
            raise ValueError("groups must partition the box indices 0..n-1")


@frozen
class PackPlan:
    """A complete packing decision for one frame.

    `source` is the full-size frame the src crops live in and `dest` the
    reduced frame the dst placements live in.
    """

    slots: tuple[PackSlot, ...]
    dest: FrameSpec
    method: PackMethod
    source: FrameSpec


def connected_components(rects: Sequence[Rect]) -> list[list[int]]:
    """Partition box indices into components of the intersection graph.

    Two boxes are adjacent when they strictly overlap. Components are
    returned sorted by their smallest member index, members ascending.
    """
    boxes = [(r.x_min, r.y_min, r.x_max, r.y_max) for r in rects]
    n = len(boxes)
    # label[i] is the smallest index of the component i is known to be in,
    # so the first index carrying a label is the label itself.
    label = list(range(n))
    for i, (ax0, ay0, ax1, ay1) in enumerate(boxes):
        for j in range(i + 1, n):
            bx0, by0, bx1, by1 = boxes[j]
            if ax0 < bx1 and bx0 < ax1 and ay0 < by1 and by0 < ay1:
                keep, drop = label[i], label[j]
                if keep != drop:
                    if drop < keep:
                        keep, drop = drop, keep
                    label = [keep if k == drop else k for k in label]
    groups: dict[int, list[int]] = {}
    for i, k in enumerate(label):
        groups.setdefault(k, []).append(i)
    return list(groups.values())


def merge_overlaps(rects: Sequence[Rect]) -> list[Rect]:
    """Replace overlapping boxes by their enclosing box until all are disjoint.

    Merging two boxes can create new overlaps with their neighbours, so the
    component merge repeats until a round leaves the box count unchanged.
    Each round keeps the components' order and their members' order, which
    decides which of two equal coordinates (0.0 and -0.0) a merged box
    keeps.
    """
    boxes = list(rects)
    while True:
        comps = connected_components(boxes)
        if len(comps) == len(boxes):
            return boxes
        boxes = [enclosing([boxes[i] for i in comp]) for comp in comps]


# Box count -> the size ranks in each group; ranks 2 and 3 stack under 0 and 1.
_GROUPS_BY_COUNT = {1: ((0,),), 2: ((0,), (1,)), 3: ((0,), (1, 2)), 4: ((0, 2), (1, 3))}


def choose_layout(boxes: Sequence[Rect]) -> Layout:
    """Pick the grid arrangement for 1..4 pairwise disjoint boxes.

    If the single largest dimension over all boxes is a height, the boxes
    are tall: they go side by side in columns (axis 0, to be grown
    horizontally first). Otherwise the arrangement is the exact mirror,
    rows stacked top to bottom (axis 1). The tallest (respectively widest)
    box gets its own group when there are three boxes; with four, groups
    pair ranks (1st, 3rd) and (2nd, 4th). Rank ties break by box index.
    """
    n = len(boxes)
    if not 1 <= n <= MAX_SLOTS:
        raise ValueError(f"choose_layout() takes 1..{MAX_SLOTS} boxes, got {n}")
    widths = [b.x_max - b.x_min for b in boxes]
    heights = [b.y_max - b.y_min for b in boxes]
    axis = 0 if max(heights) >= max(widths) else 1
    # A stable sort keeps index order among equal sizes, reversed or not.
    across = heights if axis == 0 else widths
    order = sorted(range(n), key=across.__getitem__, reverse=True)
    groups = tuple([tuple([order[r] for r in ranks]) for ranks in _GROUPS_BY_COUNT[n]])
    return Layout(axis=axis, groups=groups)


def _flush(boxes: Sequence[list[float]], layout: Layout) -> tuple[list, float]:
    """Place [x0, y0, x1, y1] boxes flush against each other per the layout.

    Returns each box's destination corner (x, y) and the side of the
    smallest square, anchored at the destination origin, that holds them.
    """
    axis = layout.axis
    corners = [None] * len(boxes)
    group_off = longest_stack = 0.0
    for members in layout.groups:
        member_off = extent = 0.0
        for i in members:
            b = boxes[i]
            corners[i] = (group_off, member_off) if axis == 0 else (member_off, group_off)
            member_off += b[3 - axis] - b[1 - axis]
            size = b[axis + 2] - b[axis]
            if size > extent:
                extent = size
        group_off += extent
        if member_off > longest_stack:
            longest_stack = member_off
    return corners, max(group_off, longest_stack)


def place_and_fit(
    boxes: Sequence[Rect], layout: Layout, dest: FrameSpec
) -> Optional[list[list[float]]]:
    """The disjoint boxes as fresh [x0, y0, x1, y1] lists if, placed flush
    at their size per the layout, they fit in the destination frame; else
    None. It builds no slot: expand_greedy() builds them once."""
    if len(boxes) != sum(len(members) for members in layout.groups):
        raise ValueError("box count does not match layout")
    src = [[b.x_min, b.y_min, b.x_max, b.y_max] for b in boxes]
    _, side = _flush(src, layout)
    return None if side > dest.side else src


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
    lo -= left
    hi += right
    # max(0.0, lo) and min(bound, hi), without the calls.
    return (lo if lo > 0.0 else 0.0), (hi if hi < bound else bound)


def _expand_axis(
    src: list[list[float]], axis: int, layout: Layout, dest_side: float, src_side: float
):
    """Grow every slot along one axis until each freezes.

    A slot's growth is the time t at which it froze, and its interval is
    _grow_interval() of its original by t. Each event is a closed form of
    the original intervals and the frozen slots' growth: a span of the
    source, a capacity used up, a group's extent reached, or a contact. Two
    edges close a gap each at half the rate, or at the whole once the
    slot's other edge is at a frame edge, so the gap is convex and piecewise
    linear in t: it reaches a level at the least of its pieces' crossings.
    """
    n = len(src)
    if n == 1:
        # A lone slot's headroom is dest_side less its size, as the group
        # bookkeeping below works it out, and nothing blocks it: it jumps
        # by all it is allowed until that is used up.
        s = src[0]
        lo, hi = s[axis], s[axis + 2]
        while True:
            allowed = dest_side - (hi - lo)
            room = lo + (src_side - hi)
            if room < allowed:
                allowed = room
            if allowed <= _EPS:
                s[axis], s[axis + 2] = lo, hi
                return
            lo, hi = _grow_interval(lo, hi, allowed, src_side)
    # Loops, not comprehensions, which cost a frame each. limit[i] is the
    # growth at which slot i spans the source, or 0 once it touches another.
    lo0, hi0, size, limit, near = [], [], [], [], []
    for s in src:
        lo, hi = s[axis], s[axis + 2]
        lo0.append(lo)
        hi0.append(hi)
        size.append(hi - lo)
        limit.append(lo + (src_side - hi))
        near.append([])
    # Slots block one another if they overlap by more than _EPS on the other
    # axis, which stands still. near[i] holds (j, whether j is above i, the
    # growth at which both meet if both grow).
    o_lo, o_hi = 1 - axis, 3 - axis
    for i in range(n - 1):
        for j in range(i + 1, n):
            if src[i][o_lo] + _EPS < src[j][o_hi] and src[j][o_lo] + _EPS < src[i][o_hi]:
                a, b = (i, j) if hi0[i] <= lo0[j] else (j, i)
                gap, below, above = lo0[b] - hi0[a], lo0[a], src_side - hi0[b]
                if gap <= 0.0:
                    limit[a] = limit[b] = 0.0
                    continue
                # a's hi rises by max(t/2, t - below), b's lo by max(t/2, t - above).
                meet = min(gap, (gap + below) / 1.5, (gap + above) / 1.5,
                           0.5 * (gap + below + above))
                near[a].append((b, True, meet))
                near[b].append((a, False, meet))
    on_extent = axis == layout.axis
    cap = [0.0] * len(layout.groups)
    grown = [None] * n  # the growth at which each slot froze
    due = [0.0] * n
    inf = math.inf
    t, left = 0.0, n
    while left:
        # Stacking axis: a group's growing slots share its free side, until
        # cap[g]. Extent axis: a group whose largest growing slots (of size
        # cap[g]) have caught up with its frozen ones widens, and the
        # widening groups share the slack.
        at, slack, widening = inf, dest_side, 0
        for g, members in enumerate(layout.groups):
            grow, free, top, end = 0, dest_side, -inf, -inf
            for i in members:
                if grown[i] is None:
                    grow += 1
                    free -= size[i]
                    if size[i] > top:
                        top = size[i]
                else:
                    free -= size[i] + grown[i]
                    if size[i] + grown[i] > end:
                        end = size[i] + grown[i]
            if not on_extent:
                cap[g] = free / grow if grow else inf
            elif end - top <= t:
                slack -= top
                widening += 1
                cap[g] = top
            else:
                slack -= end
                cap[g] = inf
                if end - top < at:
                    at = end - top  # a catch-up
        if on_extent:
            slack = slack / widening if widening else inf
        for g, members in enumerate(layout.groups):
            for i in members:
                if grown[i] is not None:
                    continue
                d = limit[i]
                c = cap[g] if not on_extent else slack if size[i] == cap[g] else inf
                if c < d:
                    d = c
                for j, above, meet in near[i]:
                    if grown[j] is not None:
                        gap = src[j][axis] - hi0[i] if above else lo0[i] - src[j][axis + 2]
                        room = lo0[i] if above else src_side - hi0[i]
                        meet = 2.0 * gap if gap < room else gap + room
                    if meet < d:
                        d = meet
                due[i] = d
                if d < at:
                    at = d
        if at > t:
            t = at
        for i in range(n):
            if grown[i] is None and due[i] <= t:
                grown[i] = t
                left -= 1
                if t:
                    src[i][axis], src[i][axis + 2] = _grow_interval(lo0[i], hi0[i], t, src_side)
    # Two edges a few roundings apart met: the lower one takes the upper's.
    near_by = 4.0 * math.ulp(src_side)
    for a in range(n):
        for b, above, _ in near[a]:
            edge = src[b][axis]
            if above and hi0[a] <= edge and abs(edge - src[a][axis + 2]) <= near_by:
                src[a][axis + 2] = edge


def expand_greedy(
    src: list[list[float]], layout: Layout, source: FrameSpec, dest: FrameSpec
) -> Optional[PackPlan]:
    """Grow, in place, the source crops that place_and_fit() found to fit
    with this layout, to pull in context; then place them and build the
    plan, or return None if a placed slot collapses to no width or height.

    Slots grow along the layout's axis first, then the other, continuously:
    the limit of the paper's greedy increments, every slot at one rate until
    its capacity, a blocker or the source frame stops it (module docstring).
    """
    for axis in (layout.axis, 1 - layout.axis):
        _expand_axis(src, axis, layout, dest.side, source.side)
    # Rounding may leave a dst ~1e-9 past the frame; that still fits.
    corners, _ = _flush(src, layout)
    slots = []
    for (x0, y0, x1, y1), (x, y) in zip(src, corners):
        x1_dst, y1_dst = x + (x1 - x0), y + (y1 - y0)
        if not (x < x1_dst and y < y1_dst):
            return None  # a slot thinner than an ulp of where it is placed
        slots.append(PackSlot(Rect(x0, y0, x1, y1), Rect(x, y, x1_dst, y1_dst), 1.0, 1.0))
    return PackPlan(slots=tuple(slots), dest=dest, method=PackMethod.GREEDY, source=source)


def pack(rois: Sequence[Rect], source: FrameSpec, dest: FrameSpec) -> Optional[PackPlan]:
    """Build a greedy packing plan for a frame, or None when packing fails.

    Fails (meaning the caller should process the frame at full size) when
    there are no ROIs, when merging leaves more than MAX_SLOTS boxes, when
    the merged boxes cannot fit unscaled in the destination frame, or when
    a slot is so thin that it has no width where it is placed.
    """
    if not rois:
        return None
    merged = merge_overlaps(rois)
    if len(merged) > MAX_SLOTS:
        return None
    layout = choose_layout(merged)
    src = place_and_fit(merged, layout, dest)
    if src is None:
        return None
    return expand_greedy(src, layout, source, dest)


def _naive_cells(count: int, side: float) -> list[Rect]:
    half = 0.5 * side
    if count == 1:
        return [Rect(0.0, 0.0, side, side)]
    if count == 2:
        return [Rect(0.0, 0.0, half, side), Rect(half, 0.0, side, side)]
    quadrants = [
        Rect(0.0, 0.0, half, half),
        Rect(half, 0.0, side, half),
        Rect(0.0, half, half, side),
        Rect(half, half, side, side),
    ]
    return quadrants[:count]


def pack_naive(rois: Sequence[Rect], source: FrameSpec, dest: FrameSpec) -> Optional[PackPlan]:
    """Fixed-grid baseline packer.

    Each ROI is expanded by a constant factor about its center (clipped to
    the source frame) and rescaled to fill its grid cell: the whole frame
    for one ROI, two columns for two, quadrant cells for three or four.
    Aspect ratios are not preserved. ROIs are not merged first, so with
    zero or more than MAX_SLOTS ROIs the frame falls back to full size; so
    does a frame with an ROI so thin that its scale overflows.
    """
    count = len(rois)
    if count == 0 or count > MAX_SLOTS:
        return None
    slots = []
    for roi, cell in zip(rois, _naive_cells(count, dest.side)):
        cx, cy = roi.center
        half_w = 0.5 * _NAIVE_EXPAND * roi.width
        half_h = 0.5 * _NAIVE_EXPAND * roi.height
        src = Rect(
            max(0.0, cx - half_w),
            max(0.0, cy - half_h),
            min(source.side, cx + half_w),
            min(source.side, cy + half_h),
        )
        scale_x, scale_y = cell.width / src.width, cell.height / src.height
        if scale_x == math.inf or scale_y == math.inf:
            return None
        slots.append(PackSlot(src, cell, scale_x, scale_y))
    return PackPlan(
        slots=tuple(slots),
        dest=dest,
        method=PackMethod.NAIVE,
        source=source,
    )
