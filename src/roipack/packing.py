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

Growth is defined in rounds of at most one pixel unit per slot, split
symmetrically between both sides; growth clipped at a source frame boundary
spills to the opposite side. A slot stops growing along an axis when the
shared destination capacity is used up, when it would run into another
slot's source patch, or when it already spans the whole source frame.

Plans are bit-identical to stepping every round, but expansion pays per
event (a freeze, a collision, a pin to a frame edge), not per round: a run
of quiet rounds, in which every growing slot just takes its full unit, is
replayed with one float addition per power of two crossed, and a collision
is settled from the exact float growth at which the slot first hits.

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

# Per-round growth quantum for greedy expansion, in pixel units.
GROWTH_STEP = 1.0

# Largest frame side the command line accepts, because a larger frame's area
# can overflow. Expansion time no longer grows with the side: it follows
# events, not rounds of growth.
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


# Quiet rounds are skipped only while every bound they rely on still holds
# this many rounds later, which absorbs the last-bit drift of unit steps.
_QUIET_MARGIN = 2


def _repeat_add(x: float, step: float, k: int) -> float:
    """`x += step` repeated k times, for x > 0 and a power-of-two step no
    smaller than ulp(x).

    Each addition whose sum stays below the next power of two above x is
    exact, so such a run is one addition of its total; the addition that
    crosses the power of two rounds, and runs on its own.
    """
    while True:
        top = math.ldexp(1.0, math.frexp(x)[1])
        exact = math.ceil((top - x) / step) - 1  # additions that stay below top
        if k <= exact:
            return x + k * step
        x += exact * step
        x += step
        k -= exact + 1


def _first_hit(
    lo: float, hi: float, allowed: float, bound: float, blocking: Sequence[tuple[float, float]]
) -> float:
    """The least float growth g at which _grow_interval(lo, hi, g, bound)
    strictly overlaps one of the `blocking` intervals, given that growth
    _EPS overlaps none of them and growth `allowed` overlaps one.

    Hitting is monotone in g: the grown lo never rises and hi never falls.
    So the search brackets an estimate of the contact growth, widens the
    bracket until it holds the answer, and halves it down to adjacent floats.
    """

    def hits(g: float) -> bool:
        grown_lo, grown_hi = _grow_interval(lo, hi, g, bound)
        for b_lo, b_hi in blocking:
            if grown_lo < b_hi and b_lo < grown_hi:
                return True
        return False

    # Gap d to a blocker is closed by growth 2d, or by d plus the room on
    # the far side once that room runs out and the growth spills over.
    estimate = allowed
    for b_lo, b_hi in blocking:
        if b_lo >= hi:
            gap = b_lo - hi
            estimate = min(estimate, gap + min(gap, lo))
        else:
            gap = lo - b_hi
            estimate = min(estimate, gap + min(gap, bound - hi))
    width = 4.0 * math.ulp(bound)
    below, above = max(_EPS, estimate - width), min(allowed, estimate + width)
    while hits(below):
        width *= 2.0
        below, above = max(_EPS, estimate - width), below
    while not hits(above):
        width *= 2.0
        below, above = above, min(allowed, estimate + width)
    while True:
        # The rounded midpoint lies strictly between two floats until no
        # float does.
        mid = 0.5 * (below + above)
        if mid == below or mid == above:
            return above
        if hits(mid):
            above = mid
        else:
            below = mid


def _expand_axis(
    src: list[list[float]], axis: int, layout: Layout, dest_side: float, src_side: float
):
    """Grow all slots along one axis in simultaneous rounds until frozen.

    The result is bit-identical to stepping every unit round, but the cost
    follows events (a freeze, a collision, a pin to a frame edge), not
    rounds:
      - a run of quiet rounds, in which every active slot takes a full
        GROWTH_STEP without meeting the capacity limit, a frame edge or
        another slot, is replayed with one addition per edge and power of
        two crossed; the bounds that find such runs are asked again only
        after an event;
      - a slot that already touches a blocker freezes after one test, and
        one that collides finds the exact float growth at which it first
        hits, so the unit round's bisection compares numbers instead of
        growing intervals.
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
    groups = layout.groups
    group_of = [0] * n
    for g, members in enumerate(groups):
        for i in members:
            group_of[i] = g
    on_extent = axis == layout.axis
    los = [s[axis] for s in src]
    his = [s[axis + 2] for s in src]

    # Extent axis: the sum of group extents is capped, but a slot below its
    # group's current extent grows free up to it. Stacking axis: members of
    # one group share the destination side. Only a moved slot's entries are
    # refreshed, to the floats a full recomputation would give.
    sizes = [hi - lo for lo, hi in zip(los, his)]
    size_of = sizes.__getitem__
    extents = [max(map(size_of, members)) for members in groups]
    slack = dest_side - sum(extents)
    stack_free = [dest_side - sum(map(size_of, members)) for members in groups]

    def headroom(i: int) -> float:
        if on_extent:
            return (extents[group_of[i]] - sizes[i]) + slack
        return stack_free[group_of[i]]

    def moved(i: int):
        nonlocal slack
        size = sizes[i] = his[i] - los[i]
        g = group_of[i]
        if not on_extent:
            stack_free[g] = dest_side - sum(map(size_of, groups[g]))
        elif size > extents[g]:  # sizes never shrink, so neither do extents
            extents[g] = size
            slack = dest_side - sum(extents)

    # The other axis does not move during this pass, so the slots that can
    # block slot i are fixed: those overlapping it on the other axis by more
    # than _EPS. A collision's growth can round one ulp past the exact
    # contact on the far edge, so two slots that grew toward each other on
    # the last axis may overlap there by an ulp; that sliver must not freeze
    # them on this axis, or a plan and its mirror image would differ.
    o_lo, o_hi = 1 - axis, 3 - axis
    blockers = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if src[i][o_lo] + _EPS < src[j][o_hi] and src[j][o_lo] + _EPS < src[i][o_hi]:
                blockers[i].append(j)
                blockers[j].append(i)

    def hits(i: int, lo: float, hi: float) -> bool:
        for j in blockers[i]:
            if lo < his[j] and los[j] < hi:
                return True
        return False

    half = 0.5 * GROWTH_STEP

    def quiet_rounds() -> int:
        # How far each active slot's lo and hi edges move per quiet round:
        # half a step each, or a whole step on the free side of a slot
        # pinned at a frame edge. Frozen slots do not move.
        left = [0.0] * n
        right = [0.0] * n
        growing = [0] * len(groups)
        for i in active:
            if los[i] == 0.0:
                right[i] = GROWTH_STEP
            elif his[i] == src_side:
                left[i] = GROWTH_STEP
            else:
                left[i] = right[i] = half
            growing[group_of[i]] += 1
        growing_groups = len(groups) - growing.count(0)
        # The least of these bounds over the active slots (as conditionals:
        # the builtin min() costs more than the whole comparison).
        rounds = math.inf
        for i in active:
            lo, hi = los[i], his[i]
            # A round costs slot i's headroom at most one step per group
            # with a growing slot (extent axis), or per growing member of
            # its own group (stacking axis).
            spend = growing_groups if on_extent else growing[group_of[i]]
            bound = (headroom(i) - GROWTH_STEP) / (spend * GROWTH_STEP)
            if bound < rounds:
                rounds = bound
            # Stay clear of the frame edges; this also keeps room >= a step.
            if left[i]:
                bound = lo / left[i]
                if bound < rounds:
                    rounds = bound
            if right[i]:
                bound = (src_side - hi) / right[i]
                if bound < rounds:
                    rounds = bound
            # Gaps to the blockers, closed from both sides.
            for j in blockers[i]:
                if los[j] >= hi:
                    gap, closing = los[j] - hi, right[i] + left[j]
                else:
                    gap, closing = lo - his[j], left[i] + right[j]
                if closing:
                    bound = gap / closing
                    if bound < rounds:
                        rounds = bound
            if rounds < _QUIET_MARGIN + 1:
                return 0
        return int(rounds) - _QUIET_MARGIN

    active = list(range(n))  # ascending slot index
    check = True  # whether an event may have opened a run of quiet rounds
    while active:
        if check and len(active) > 1:
            check = False
            skip = quiet_rounds()
            if skip:
                # Each unit subtraction from lo is exact while lo >= a step,
                # which the bounds keep, so k of them are one subtraction;
                # additions to hi round where they cross a power of two.
                for i in active:
                    if los[i] == 0.0:
                        his[i] = _repeat_add(his[i], GROWTH_STEP, skip)
                    elif his[i] == src_side:
                        los[i] -= skip * GROWTH_STEP
                    else:
                        los[i] -= skip * half
                        his[i] = _repeat_add(his[i], half, skip)
                    moved(i)
        for i in tuple(active):
            lo, hi = los[i], his[i]
            # min(GROWTH_STEP, headroom, room), except that a lone grower
            # faces only static limits: one full-size jump lands exactly
            # where unit stepping would. len(active) is read per slot: when
            # a slot freezes mid-round, the last one left takes its lone
            # jump in that same round.
            allowed = headroom(i)
            if allowed > GROWTH_STEP and len(active) > 1:
                allowed = GROWTH_STEP
            room = lo + (src_side - hi)
            if room < allowed:
                allowed = room
            if allowed <= _EPS:
                active.remove(i)
                check = True
                continue
            new_lo, new_hi = _grow_interval(lo, hi, allowed, src_side)
            if hits(i, new_lo, new_hi):
                check = True
                # A slot that already touches a blocker hits at any growth
                # above _EPS, so the bisection below could keep none.
                if hits(i, *_grow_interval(lo, hi, _EPS, src_side)):
                    active.remove(i)
                    continue
                blocking = [(los[j], his[j]) for j in blockers[i]]
                first = _first_hit(lo, hi, allowed, src_side, blocking)
                # The unit round's bisection, where hits() at mid is mid >= first.
                feasible, infeasible = 0.0, allowed
                for _ in range(60):
                    mid = 0.5 * (feasible + infeasible)
                    if mid >= first:
                        infeasible = mid
                    else:
                        feasible = mid
                if feasible <= _EPS:
                    active.remove(i)
                    continue
                new_lo, new_hi = _grow_interval(lo, hi, feasible, src_side)
            elif allowed < GROWTH_STEP:
                check = True
            if new_lo == 0.0 != lo or new_hi == src_side != hi:
                check = True  # newly pinned at a frame edge
            los[i], his[i] = new_lo, new_hi
            moved(i)
    for s, lo, hi in zip(src, los, his):
        s[axis], s[axis + 2] = lo, hi


def expand_greedy(
    src: list[list[float]], layout: Layout, source: FrameSpec, dest: FrameSpec
) -> Optional[PackPlan]:
    """Grow, in place, the source crops that place_and_fit() found to fit
    with this layout, to pull in context; then place them and build the
    plan, or return None if a placed slot collapses to no width or height.

    Slots grow along the layout's axis first, then the other axis, in
    rounds of at most GROWTH_STEP per slot, iterated in slot index order.
    Growth is symmetric about the patch center and spills past a source
    frame boundary to the opposite side. A slot freezes in an axis when the
    shared destination capacity is exhausted, when growing would run its
    src into another slot's src, or when it spans the full source frame.

    Plans are bit-identical to stepping every round, while the cost
    follows events, not rounds (see _expand_axis).
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
