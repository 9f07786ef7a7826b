"""Packing regions of interest into a reduced square frame.

The greedy packer turns a set of ROI boxes from the previous frame into a
plan that crops up to four source patches and lays them out, unscaled, in a
smaller destination frame:

  1. overlapping ROIs are merged (repeatedly, via connected components of
     the intersection graph) until the boxes are pairwise disjoint;
  2. a two-column or two-row layout is chosen from the largest box
     dimension, and the boxes are placed flush at their original size;
  3. if they fit, every patch is grown in place, primary axis first, so the
     crops carry as much surrounding context as the destination allows.

Growth is defined in rounds of at most one pixel unit per slot, split
symmetrically between both sides; growth clipped at a source frame boundary
spills to the opposite side. A slot stops growing along an axis when the
shared destination capacity is used up, when it would run into another
slot's source patch, or when it already spans the whole source frame. Runs
of quiet rounds, in which every growing slot just takes its full unit, are
applied in bulk rather than one round at a time; the plans are bit-identical
to stepping every round.

A naive baseline packer is included for comparison: each ROI is expanded by
a fixed factor and rescaled into a fixed grid cell, which distorts aspect
ratios and provides little context.
"""

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from .geometry import FrameSpec, Rect, enclosing, intersects

MAX_SLOTS = 4

# Per-round growth quantum for greedy expansion, in pixel units.
GROWTH_STEP = 1.0

_EPS = 1e-9
_NAIVE_EXPAND = 1.2


class Axis(Enum):
    HORIZONTAL = "horizontal"
    VERTICAL = "vertical"


class PackMethod(str, Enum):
    GREEDY = "greedy"
    NAIVE = "naive"


@dataclass(frozen=True, slots=True)
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
        if self.scale_x <= 0 or self.scale_y <= 0:
            raise ValueError("slot scale factors must be positive")

    def to_dest(self, rect: Rect) -> Rect:
        """Map a rect from source coordinates into destination coordinates."""
        return Rect(
            self.dst.x_min + (rect.x_min - self.src.x_min) * self.scale_x,
            self.dst.y_min + (rect.y_min - self.src.y_min) * self.scale_y,
            self.dst.x_min + (rect.x_max - self.src.x_min) * self.scale_x,
            self.dst.y_min + (rect.y_max - self.src.y_min) * self.scale_y,
        )

    def to_source(self, rect: Rect) -> Rect:
        """Map a rect from destination coordinates back into source coordinates."""
        return Rect(
            self.src.x_min + (rect.x_min - self.dst.x_min) / self.scale_x,
            self.src.y_min + (rect.y_min - self.dst.y_min) / self.scale_y,
            self.src.x_min + (rect.x_max - self.dst.x_min) / self.scale_x,
            self.src.y_min + (rect.y_max - self.dst.y_min) / self.scale_y,
        )


@dataclass(frozen=True, slots=True)
class Layout:
    """Grid assignment for up to four disjoint boxes.

    `assignment[i]` is the (group, position) cell of box i. With a
    HORIZONTAL primary axis the groups are columns laid out left to right
    and positions stack top to bottom inside a column; with a VERTICAL
    primary axis the groups are rows laid out top to bottom and positions
    run left to right inside a row.
    """

    slot_count: int
    primary_axis: Axis
    assignment: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not 1 <= self.slot_count <= MAX_SLOTS:
            raise ValueError(f"slot_count must be 1..{MAX_SLOTS}")
        if len(self.assignment) != self.slot_count:
            raise ValueError("assignment length must equal slot_count")
        if len(set(self.assignment)) != self.slot_count:
            raise ValueError("assignment cells must be distinct")


@dataclass(frozen=True)
class PackPlan:
    """A complete packing decision for one frame.

    `source` is the full-size frame the src crops live in and `dest` the
    reduced frame the dst placements live in. Greedy plans keep their
    layout for expansion; naive plans have none.
    """

    slots: tuple[PackSlot, ...]
    dest: FrameSpec
    method: PackMethod
    source: FrameSpec
    layout: Optional[Layout] = None


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def connected_components(rects: Sequence[Rect]) -> list[list[int]]:
    """Partition box indices into components of the intersection graph.

    Two boxes are adjacent when they strictly overlap. Components are
    returned sorted by their smallest member index, members ascending.
    """
    n = len(rects)
    uf = _UnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if intersects(rects[i], rects[j]):
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def merge_overlaps(rects: Sequence[Rect]) -> list[Rect]:
    """Replace overlapping boxes by their enclosing box until all are disjoint.

    Merging two boxes can create new overlaps with their neighbours, so the
    component merge repeats until a round leaves the box count unchanged.
    """
    boxes = list(rects)
    while True:
        comps = connected_components(boxes)
        if len(comps) == len(boxes):
            return boxes
        boxes = [enclosing([boxes[i] for i in comp]) for comp in comps]


def choose_layout(boxes: Sequence[Rect]) -> Layout:
    """Pick the grid arrangement for 1..4 pairwise disjoint boxes.

    If the single largest dimension over all boxes is a height, the boxes
    are tall: they go side by side in columns (HORIZONTAL primary axis, to
    be grown horizontally first). Otherwise the arrangement is the exact
    mirror, rows stacked top to bottom. The tallest (respectively widest)
    box gets its own group when there are three boxes; with four, groups
    pair ranks (1st, 3rd) and (2nd, 4th). Rank ties break by box index.
    """
    n = len(boxes)
    if not 1 <= n <= MAX_SLOTS:
        raise ValueError(f"choose_layout() takes 1..{MAX_SLOTS} boxes, got {n}")
    tallest = max(b.height for b in boxes)
    widest = max(b.width for b in boxes)
    axis = Axis.HORIZONTAL if tallest >= widest else Axis.VERTICAL
    if axis is Axis.HORIZONTAL:
        order = sorted(range(n), key=lambda i: (-boxes[i].height, i))
    else:
        order = sorted(range(n), key=lambda i: (-boxes[i].width, i))
    cells_by_count = {
        1: ((0, 0),),
        2: ((0, 0), (1, 0)),
        3: ((0, 0), (1, 0), (1, 1)),
        4: ((0, 0), (1, 0), (0, 1), (1, 1)),
    }
    assignment: list[tuple[int, int]] = [(0, 0)] * n
    for rank, box_idx in enumerate(order):
        assignment[box_idx] = cells_by_count[n][rank]
    return Layout(slot_count=n, primary_axis=axis, assignment=tuple(assignment))


def _group_members(layout: Layout) -> dict[int, list[int]]:
    """Group index -> member box indices ordered by position in the group."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for idx, (group, pos) in enumerate(layout.assignment):
        groups.setdefault(group, []).append((pos, idx))
    return {g: [i for _, i in sorted(members)] for g, members in sorted(groups.items())}


def _extent(box: Rect, layout: Layout) -> float:
    # Size along the axis groups are laid out on (column width / row height).
    return box.width if layout.primary_axis is Axis.HORIZONTAL else box.height


def _stack_size(box: Rect, layout: Layout) -> float:
    # Size along the axis members stack on inside a group.
    return box.height if layout.primary_axis is Axis.HORIZONTAL else box.width


def _fits(boxes: Sequence[Rect], layout: Layout, dest: FrameSpec) -> bool:
    groups = _group_members(layout)
    group_extents = [max(_extent(boxes[i], layout) for i in members) for members in groups.values()]
    if sum(group_extents) > dest.side:
        return False
    for members in groups.values():
        if sum(_stack_size(boxes[i], layout) for i in members) > dest.side:
            return False
    return True


def _flush_slots(boxes: Sequence[Rect], layout: Layout, dest: FrameSpec) -> tuple[PackSlot, ...]:
    """Place boxes flush against each other per the layout, at scale 1."""
    groups = _group_members(layout)
    horizontal = layout.primary_axis is Axis.HORIZONTAL
    dst: dict[int, Rect] = {}
    group_off = 0.0
    for members in groups.values():
        extent = max(_extent(boxes[i], layout) for i in members)
        member_off = 0.0
        for i in members:
            b = boxes[i]
            if horizontal:
                dst[i] = Rect(group_off, member_off, group_off + b.width, member_off + b.height)
            else:
                dst[i] = Rect(member_off, group_off, member_off + b.width, group_off + b.height)
            member_off += _stack_size(b, layout)
        group_off += extent
    return tuple(PackSlot(boxes[i], dst[i], 1.0, 1.0) for i in range(len(boxes)))


def place_and_fit(
    boxes: Sequence[Rect], layout: Layout, source: FrameSpec, dest: FrameSpec
) -> Optional[PackPlan]:
    """Place disjoint boxes of the source frame at original size per the
    layout, or None if they cannot fit in the destination frame. The plan
    is complete; expand_greedy() then grows its crops."""
    if len(boxes) != layout.slot_count:
        raise ValueError("box count does not match layout")
    if not _fits(boxes, layout, dest):
        return None
    return PackPlan(
        slots=_flush_slots(boxes, layout, dest),
        dest=dest,
        method=PackMethod.GREEDY,
        source=source,
        layout=layout,
    )


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


# Quiet rounds are skipped only while every bound they rely on still holds
# this many rounds later, which absorbs the last-bit drift of unit steps.
_QUIET_MARGIN = 2


def _expand_axis(
    src: list[list[float]], axis: int, layout: Layout, dest_side: float, src_side: float
):
    """Grow all slots along one axis in simultaneous rounds until frozen.

    A round is quiet when every active slot takes a full GROWTH_STEP without
    meeting the capacity limit, a frame edge or another slot. Runs of quiet
    rounds are applied in bulk, with the float operations of one round
    repeated per round, so the result is bit-identical to stepping every
    round.
    """
    n = len(src)
    groups = list(_group_members(layout).values())
    group_of = {i: g for g, members in enumerate(groups) for i in members}
    on_extent = axis == (0 if layout.primary_axis is Axis.HORIZONTAL else 1)

    # Extent axis: the sum of group extents is capped, but a slot below its
    # group's current extent grows free up to it. Stacking axis: members of
    # one group share the destination side. Only a moved slot's entries are
    # refreshed, with the expressions a full recomputation would use.
    sizes = [s[axis + 2] - s[axis] for s in src]
    extents = [max(sizes[j] for j in members) for members in groups]
    slack = dest_side - sum(extents)
    stack_free = [dest_side - sum(sizes[j] for j in members) for members in groups]

    def headroom(i: int) -> float:
        if on_extent:
            return (extents[group_of[i]] - sizes[i]) + slack
        return stack_free[group_of[i]]

    def moved(i: int):
        nonlocal slack
        sizes[i] = src[i][axis + 2] - src[i][axis]
        g = group_of[i]
        if on_extent:
            extents[g] = max(sizes[j] for j in groups[g])
            slack = dest_side - sum(extents)
        else:
            stack_free[g] = dest_side - sum(sizes[j] for j in groups[g])

    # The other axis does not move during this pass, so the slots that can
    # block slot i are fixed: those overlapping it on the other axis.
    o_lo, o_hi = 1 - axis, 3 - axis
    blockers = [
        [
            j
            for j in range(n)
            if j != i and src[i][o_lo] < src[j][o_hi] and src[j][o_lo] < src[i][o_hi]
        ]
        for i in range(n)
    ]

    def hits(i: int, grown: tuple[float, float]) -> bool:
        lo, hi = grown
        for j in blockers[i]:
            if lo < src[j][axis + 2] and src[j][axis] < hi:
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
            if src[i][axis] == 0.0:
                right[i] = GROWTH_STEP
            elif src[i][axis + 2] == src_side:
                left[i] = GROWTH_STEP
            else:
                left[i] = right[i] = half
            growing[group_of[i]] += 1
        growing_groups = sum(1 for count in growing if count)
        rounds = float("inf")
        for i in active:
            lo, hi = src[i][axis], src[i][axis + 2]
            # Stay clear of the frame edges; this also keeps room >= a step.
            if left[i]:
                rounds = min(rounds, lo / left[i])
            if right[i]:
                rounds = min(rounds, (src_side - hi) / right[i])
            # A round costs slot i's headroom at most one step per group
            # with a growing slot (extent axis), or per growing member of
            # its own group (stacking axis).
            spend = growing_groups if on_extent else growing[group_of[i]]
            rounds = min(rounds, (headroom(i) - GROWTH_STEP) / (spend * GROWTH_STEP))
            # Gaps to the blockers, closed from both sides.
            for j in blockers[i]:
                if src[j][axis] >= hi:
                    gap, closing = src[j][axis] - hi, right[i] + left[j]
                else:
                    gap, closing = lo - src[j][axis + 2], left[i] + right[j]
                if closing:
                    rounds = min(rounds, gap / closing)
            if rounds < _QUIET_MARGIN + 1:
                return 0
        return int(rounds) - _QUIET_MARGIN

    active = set(range(n))
    while active:
        skip = quiet_rounds() if len(active) > 1 else 0
        if skip:
            for i in active:
                lo, hi = src[i][axis], src[i][axis + 2]
                # One op per round, as _grow_interval performs it: a closed
                # form would round differently once hi crosses powers of two.
                if lo == 0.0:
                    for _ in range(skip):
                        hi += GROWTH_STEP
                    lo = 0.0
                elif hi == src_side:
                    for _ in range(skip):
                        lo -= GROWTH_STEP
                    hi = src_side
                else:
                    for _ in range(skip):
                        lo -= half
                        hi += half
                src[i][axis], src[i][axis + 2] = lo, hi
                moved(i)
        for i in sorted(active):
            allowance = headroom(i)
            lo, hi = src[i][axis], src[i][axis + 2]
            room = lo + (src_side - hi)
            # len(active) is read per slot: when a slot freezes mid-round,
            # the last one left takes its lone jump in that same round.
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
            if hits(i, grown):
                feasible, infeasible = 0.0, allowed
                for _ in range(60):
                    mid = 0.5 * (feasible + infeasible)
                    if hits(i, _grow_interval(lo, hi, mid, src_side)):
                        infeasible = mid
                    else:
                        feasible = mid
                if feasible <= _EPS:
                    active.discard(i)
                    continue
                grown = _grow_interval(lo, hi, feasible, src_side)
            src[i][axis], src[i][axis + 2] = grown
            moved(i)


def expand_greedy(plan: PackPlan) -> PackPlan:
    """Grow every slot's src (and dst, identically) to pull in context.

    Slots grow along the layout's primary axis first, then the other axis,
    in rounds of at most GROWTH_STEP per slot, iterated in slot index
    order. Growth is symmetric about the patch center and spills past a
    source frame boundary to the opposite side. A slot freezes in an axis
    when the shared destination capacity is exhausted, when growing would
    run its src into another slot's src, or when it spans the full source
    frame. Destination placement is recomputed flush afterwards.

    Rounds stay the semantics, but runs of rounds in which no slot meets
    any of those limits or a frame edge are skipped in bulk, so the cost
    grows with the number of such events rather than with the pixels grown.
    """
    layout = plan.layout
    if layout is None:
        raise ValueError("expand_greedy() needs a plan with a layout")
    src = [[s.src.x_min, s.src.y_min, s.src.x_max, s.src.y_max] for s in plan.slots]
    first = 0 if layout.primary_axis is Axis.HORIZONTAL else 1
    for axis in (first, 1 - first):
        _expand_axis(src, axis, layout, plan.dest.side, plan.source.side)
    boxes = [Rect(*b) for b in src]
    return replace(plan, slots=_flush_slots(boxes, layout, plan.dest))


def pack(rois: Sequence[Rect], source: FrameSpec, dest: FrameSpec) -> Optional[PackPlan]:
    """Build a greedy packing plan for a frame, or None when packing fails.

    Fails (meaning the caller should process the frame at full size) when
    there are no ROIs, when merging leaves more than MAX_SLOTS boxes, or
    when the merged boxes cannot fit unscaled in the destination frame.
    """
    if not rois:
        return None
    merged = merge_overlaps(rois)
    if len(merged) > MAX_SLOTS:
        return None
    layout = choose_layout(merged)
    placed = place_and_fit(merged, layout, source, dest)
    if placed is None:
        return None
    return expand_greedy(placed)


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
    zero or more than MAX_SLOTS ROIs the frame falls back to full size.
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
        slots.append(PackSlot(src, cell, cell.width / src.width, cell.height / src.height))
    return PackPlan(
        slots=tuple(slots),
        dest=dest,
        method=PackMethod.NAIVE,
        source=source,
    )
