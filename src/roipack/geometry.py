"""Axis-aligned rectangle arithmetic in frame space.

Coordinates are real-valued pixels with the origin at the top-left corner:
x grows rightward and y grows downward. Contact along a shared edge or
corner has zero area and does not count as an intersection, so boxes may
touch without overlapping.

The box arithmetic that runs per object and per detection has one home
here, on plain floats, so its callers build no Rect until they keep a box:
`clip_box` is the strict overlap of box a with box b, and `box_iou` their
intersection-over-union. Each bound of an overlap is max() or min() of a's
and b's value, in that order, so a tie (0.0 against -0.0) keeps a's. A
union whose area is 0.0 (two boxes whose areas underflow) has IoU 0.0.
`box_iou` computes its overlap itself rather than through `clip_box`:
scoring calls it once per (detection, object) pair. The map of a box into
and out of a packed slot is `packing.PackSlot`'s. The Rect-level
`intersects`, `intersection` and `iou` wrap these kernels.
"""

import math
from typing import Iterable, Optional, Sequence

from ._record import frozen


@frozen
class Rect:
    """Rectangle with strictly positive width and height.

    Attributes:
        x_min, y_min: top-left corner.
        x_max, y_max: bottom-right corner.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        # One chained comparison accepts every valid rect (NaN fails it too);
        # only a failure works out which rule was broken.
        if -math.inf < self.x_min < self.x_max < math.inf and (
            -math.inf < self.y_min < self.y_max < math.inf
        ):
            return
        for v in (self.x_min, self.y_min, self.x_max, self.y_max):
            if not math.isfinite(v):
                raise ValueError(f"non-finite rect coordinate: {v!r}")
        raise ValueError(
            f"degenerate rect: ({self.x_min}, {self.y_min}, "
            f"{self.x_max}, {self.y_max})"
        )

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def contains_point(self, x: float, y: float) -> bool:
        """Closed containment test (boundary points count as inside)."""
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def contains(self, other: "Rect") -> bool:
        """True when `other` lies fully inside this rect (boundaries may touch)."""
        return (
            self.x_min <= other.x_min
            and self.y_min <= other.y_min
            and other.x_max <= self.x_max
            and other.y_max <= self.y_max
        )


@frozen
class FrameSpec:
    """Square working frame of a given side length in pixels."""

    side: float

    def __post_init__(self):
        if not math.isfinite(self.side) or self.side <= 0:
            raise ValueError(f"frame side must be positive and finite: {self.side!r}")

    @property
    def area(self) -> float:
        return self.side * self.side

    @property
    def bounds(self) -> Rect:
        return Rect(0.0, 0.0, self.side, self.side)


def clip_box(
    ax0: float, ay0: float, ax1: float, ay1: float,
    bx0: float, by0: float, bx1: float, by1: float,
) -> Optional[tuple[float, float, float, float]]:
    """Strict overlap of box a with box b as (x0, y0, x1, y1), or None when
    they only touch or are apart. Conditionals stand for max() and min() of
    (a, b), which keep a's value on a tie."""
    x0 = bx0 if bx0 > ax0 else ax0
    x1 = bx1 if bx1 < ax1 else ax1
    if x0 >= x1:
        return None
    y0 = by0 if by0 > ay0 else ay0
    y1 = by1 if by1 < ay1 else ay1
    if y0 >= y1:
        return None
    return x0, y0, x1, y1


def box_iou(
    ax0: float, ay0: float, ax1: float, ay1: float,
    bx0: float, by0: float, bx1: float, by1: float,
) -> float:
    """Intersection-over-union of box a and box b, in [0, 1]; 0.0 when they
    do not strictly overlap or when their union's area is 0.0."""
    x0 = bx0 if bx0 > ax0 else ax0
    x1 = bx1 if bx1 < ax1 else ax1
    y0 = by0 if by0 > ay0 else ay0
    y1 = by1 if by1 < ay1 else ay1
    if x0 >= x1 or y0 >= y1:
        return 0.0
    inter = (x1 - x0) * (y1 - y0)
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union else 0.0


def intersects(a: Rect, b: Rect) -> bool:
    """Strict overlap test; edge or corner contact is not an intersection."""
    box = clip_box(a.x_min, a.y_min, a.x_max, a.y_max, b.x_min, b.y_min, b.x_max, b.y_max)
    return box is not None


def intersection(a: Rect, b: Rect) -> Optional[Rect]:
    """Overlap of two rects, or None when they do not strictly overlap."""
    box = clip_box(a.x_min, a.y_min, a.x_max, a.y_max, b.x_min, b.y_min, b.x_max, b.y_max)
    return None if box is None else Rect(*box)


def iou(a: Rect, b: Rect) -> float:
    """Intersection-over-union of two rects, in [0, 1] (see box_iou)."""
    return box_iou(a.x_min, a.y_min, a.x_max, a.y_max, b.x_min, b.y_min, b.x_max, b.y_max)


def enclosing(rects: Iterable[Rect]) -> Rect:
    """Smallest rect containing every input rect.

    Each coordinate is the first extreme value in input order, as min() and
    max() would pick it, so of 0.0 and -0.0 the earlier one is kept.

    Raises:
        ValueError: if `rects` is empty.
    """
    boxes = iter(rects)
    first = next(boxes, None)
    if first is None:
        raise ValueError("enclosing() needs at least one rect")
    x0, y0, x1, y1 = first.x_min, first.y_min, first.x_max, first.y_max
    for r in boxes:
        v = r.x_min
        if v < x0:
            x0 = v
        v = r.y_min
        if v < y0:
            y0 = v
        v = r.x_max
        if v > x1:
            x1 = v
        v = r.y_max
        if v > y1:
            y1 = v
    return Rect(x0, y0, x1, y1)


def union_area(rects: Sequence[Rect]) -> float:
    """Exact area of the union of a set of rects.

    Sweeps the x axis between consecutive distinct coordinates; within each
    vertical slab the covered y extent is the length of the merged y
    intervals of the rects spanning that slab. Overlapping regions are
    therefore counted once. Empty input has area 0.
    """
    boxes = list(rects)
    if not boxes:
        return 0.0
    xs = sorted({r.x_min for r in boxes} | {r.x_max for r in boxes})
    total = 0.0
    for x0, x1 in zip(xs, xs[1:]):
        width = x1 - x0
        if width <= 0.0:
            continue
        spans = sorted(
            (r.y_min, r.y_max) for r in boxes if r.x_min <= x0 and r.x_max >= x1
        )
        if not spans:
            continue
        covered = 0.0
        cur_lo, cur_hi = spans[0]
        for lo, hi in spans[1:]:
            if lo > cur_hi:
                covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            elif hi > cur_hi:
                cur_hi = hi
        covered += cur_hi - cur_lo
        total += width * covered
    return total
