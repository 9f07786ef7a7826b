"""Axis-aligned rectangle arithmetic in frame space.

Coordinates are real-valued pixels with the origin at the top-left corner:
x grows rightward and y grows downward. Contact along a shared edge or
corner has zero area and does not count as an intersection, so boxes may
touch without overlapping.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def intersects(a: Rect, b: Rect) -> bool:
    """Strict overlap test; edge or corner contact is not an intersection."""
    return (
        a.x_min < b.x_max
        and b.x_min < a.x_max
        and a.y_min < b.y_max
        and b.y_min < a.y_max
    )


def intersection(a: Rect, b: Rect) -> Optional[Rect]:
    """Overlap of two rects, or None when they do not strictly overlap."""
    x_min = max(a.x_min, b.x_min)
    y_min = max(a.y_min, b.y_min)
    x_max = min(a.x_max, b.x_max)
    y_max = min(a.y_max, b.y_max)
    if x_min >= x_max or y_min >= y_max:
        return None
    return Rect(x_min, y_min, x_max, y_max)


def iou(a: Rect, b: Rect) -> float:
    """Intersection-over-union of two rects, in [0, 1]."""
    inter = intersection(a, b)
    if inter is None:
        return 0.0
    inter_area = inter.area
    return inter_area / (a.area + b.area - inter_area)


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
