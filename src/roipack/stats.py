"""Dataset statistics: occupancy, frame-to-frame region overlap, histograms."""

import csv
from bisect import bisect_right
from typing import Sequence

from ._record import frozen
from .formats import replacing
from .geometry import FrameSpec, intersection, union_area
from .pipeline import GroundTruthFrame


def occupancy_ratio(frame: GroundTruthFrame, frame_spec: FrameSpec) -> float:
    """Fraction of the frame covered by objects; overlaps count once."""
    rects = [obj.rect for obj in frame.objects]
    for r in rects:
        if not frame_spec.bounds.contains(r):
            raise ValueError(f"object outside frame bounds: {r}")
    return union_area(rects) / frame_spec.area


def temporal_region_iou(
    frame_t: GroundTruthFrame, frame_t1: GroundTruthFrame, frame_spec: FrameSpec
) -> float:
    """Overlap of the object regions of two consecutive frames.

    The regions compared are the unions of each frame's boxes; the measure
    is |U_t intersect U_t1| / |U_t union U_t1|. Two empty frames overlap
    perfectly by convention.
    """
    rects_t = [obj.rect for obj in frame_t.objects]
    rects_t1 = [obj.rect for obj in frame_t1.objects]
    for r in rects_t + rects_t1:
        if not frame_spec.bounds.contains(r):
            raise ValueError(f"object outside frame bounds: {r}")
    if not rects_t and not rects_t1:
        return 1.0
    if not rects_t or not rects_t1:
        return 0.0
    pairwise = [
        inter
        for a in rects_t
        for b in rects_t1
        if (inter := intersection(a, b)) is not None
    ]
    inter_area = union_area(pairwise)
    total = union_area(rects_t + rects_t1)
    return inter_area / total


@frozen
class Histogram:
    """Fixed-range histogram; bins are left-closed, the last bin is closed.

    Values outside the range are not binned; their count is in `rejected`.
    """

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    rejected: int

    @property
    def total(self) -> int:
        return sum(self.counts)


def histogram(
    values: Sequence[float], bin_count: int, value_range: tuple[float, float] = (0.0, 1.0)
) -> Histogram:
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo, hi = value_range
    if not lo < hi:
        raise ValueError("value_range must be increasing")
    # The edges np.linspace(lo, hi, bin_count + 1) makes, and the bins
    # np.histogram gives them.
    step = (hi - lo) / bin_count
    edges = [lo + i * step for i in range(bin_count)] + [hi]
    counts = [0] * bin_count
    for value in values:
        if lo <= value <= hi:
            counts[min(bisect_right(edges, value), bin_count) - 1] += 1
    return Histogram(edges=tuple(edges), counts=tuple(counts), rejected=len(values) - sum(counts))


def write_histogram_csv(hist: Histogram, path: str):
    """Write a histogram as CSV rows of bin_left,bin_right,count.

    The rows go to a temporary file that replaces `path` once complete.
    """
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(hist.edges, hist.edges[1:], hist.counts):
            writer.writerow([repr(left), repr(right), count])
