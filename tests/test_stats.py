import csv
import math

import numpy as np
import pytest

from oracles import raster_region_iou
from roipack.cli import MAX_BINS
from roipack.geometry import FrameSpec, Rect
from roipack.pipeline import GroundTruthFrame, GtObject
from roipack.stats import Histogram, histogram, occupancy_ratio, temporal_region_iou, write_histogram_csv

FRAME = FrameSpec(300.0)


def frame_of(frame_id, *rects):
    return GroundTruthFrame(frame_id, tuple(GtObject(0, r) for r in rects))


class TestOccupancyRatio:
    def test_two_quadrants_cover_half(self):
        frame = frame_of(0, Rect(0, 0, 150, 150), Rect(150, 150, 300, 300))
        assert occupancy_ratio(frame, FRAME) == 0.5

    def test_overlapping_objects_count_once(self):
        frame = frame_of(0, Rect(0, 0, 150, 150), Rect(0, 0, 150, 150))
        assert occupancy_ratio(frame, FRAME) == 0.25

    def test_empty_frame(self):
        assert occupancy_ratio(frame_of(0), FRAME) == 0.0

    def test_full_frame(self):
        assert occupancy_ratio(frame_of(0, Rect(0, 0, 300, 300)), FRAME) == 1.0

    def test_out_of_bounds_object_rejected(self):
        frame = frame_of(0, Rect(250, 250, 310, 310))
        with pytest.raises(ValueError):
            occupancy_ratio(frame, FRAME)


class TestTemporalRegionIou:
    def test_sliding_box_fixture(self):
        before = frame_of(0, Rect(0, 0, 100, 100))
        after = frame_of(1, Rect(10, 0, 110, 100))
        assert temporal_region_iou(before, after, FRAME) == 9 / 11

    def test_identical_frames(self):
        frame = frame_of(0, Rect(20, 30, 120, 90), Rect(100, 80, 180, 160))
        assert temporal_region_iou(frame, frame, FRAME) == 1.0

    def test_both_empty_by_convention(self):
        assert temporal_region_iou(frame_of(0), frame_of(1), FRAME) == 1.0

    def test_regions_of_zero_area_do_not_overlap(self):
        # This box's area underflows to 0.0; it used to divide 0.0 by 0.0.
        frame = frame_of(0, Rect(0.5 * 300, 0.0, 0.5000000000000001 * 300, 5e-324 * 300))
        assert temporal_region_iou(frame, frame, FRAME) == 0.0

    def test_one_empty(self):
        frame = frame_of(0, Rect(0, 0, 100, 100))
        assert temporal_region_iou(frame, frame_of(1), FRAME) == 0.0
        assert temporal_region_iou(frame_of(1), frame, FRAME) == 0.0

    def test_disjoint_regions(self):
        a = frame_of(0, Rect(0, 0, 50, 50))
        b = frame_of(1, Rect(200, 200, 250, 250))
        assert temporal_region_iou(a, b, FRAME) == 0.0

    def test_region_union_not_box_matching(self):
        # One box splitting into two that tile it exactly is a perfect
        # region overlap even though no single box matches.
        a = frame_of(0, Rect(0, 0, 100, 100))
        b = frame_of(1, Rect(0, 0, 50, 100), Rect(50, 0, 100, 100))
        assert temporal_region_iou(a, b, FRAME) == 1.0

    def test_out_of_bounds_rejected(self):
        a = frame_of(0, Rect(0, 0, 100, 100))
        b = frame_of(1, Rect(0, 0, 100, 301))
        with pytest.raises(ValueError):
            temporal_region_iou(a, b, FRAME)

    def test_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            frames = []
            for fid in range(2):
                rects = []
                for _ in range(int(rng.integers(1, 5))):
                    w, h = rng.uniform(20, 120, 2)
                    x = float(rng.uniform(0, 300 - w))
                    y = float(rng.uniform(0, 300 - h))
                    rects.append(Rect(x, y, x + w, y + h))
                frames.append(frame_of(fid, *rects))
            assert temporal_region_iou(frames[0], frames[1], FRAME) == temporal_region_iou(
                frames[1], frames[0], FRAME
            )

    def test_matches_rasterization(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            rects, shifted = [], []
            for _ in range(int(rng.integers(2, 6))):
                w, h = rng.uniform(40, 120, 2)
                x = float(rng.uniform(0, 300 - w))
                y = float(rng.uniform(0, 300 - h))
                rects.append(Rect(x, y, x + w, y + h))
                dx, dy = rng.uniform(-12, 12, 2)
                dx = min(max(dx, -x), 300 - (x + w))
                dy = min(max(dy, -y), 300 - (y + h))
                shifted.append(Rect(x + dx, y + dy, x + w + dx, y + h + dy))
            got = temporal_region_iou(frame_of(0, *rects), frame_of(1, *shifted), FRAME)
            want = raster_region_iou(rects, shifted, 300.0, resolution=1000)
            assert got == pytest.approx(want, rel=0.01)


class TestHistogram:
    def test_two_bins(self):
        hist = histogram([0.1, 0.1, 0.9], 2)
        assert hist.edges == (0.0, 0.5, 1.0)
        assert hist.counts == (2, 1)
        assert hist.rejected == 0
        assert hist.total == 3

    def test_range_maximum_lands_in_last_bin(self):
        assert histogram([1.0], 2).counts == (0, 1)

    def test_inner_edge_goes_right(self):
        assert histogram([0.5], 2).counts == (0, 1)

    def test_out_of_range_counted_as_rejected(self):
        hist = histogram([-0.2, 0.5, 1.2], 4)
        assert hist.total == 1
        assert hist.rejected == 2

    def test_empty_values(self):
        hist = histogram([], 3)
        assert hist.counts == (0, 0, 0)
        assert hist.rejected == 0

    def test_custom_range(self):
        hist = histogram([5.0, 9.5], 2, value_range=(0.0, 10.0))
        assert hist.edges == (0.0, 5.0, 10.0)
        assert hist.counts == (0, 2)

    @pytest.mark.parametrize("bins", [1, 2, 3, 7, 20, 1000, MAX_BINS])
    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-3.0, 7.5)])
    def test_equals_numpy(self, bins, lo, hi):
        edges = np.linspace(lo, hi, bins + 1).tolist()
        rng = np.random.default_rng(bins)
        values = [
            *edges,
            *(math.nextafter(e, -math.inf) for e in edges),
            *(math.nextafter(e, math.inf) for e in edges),
            0.0, 1.0, lo - 0.5, hi + 0.5, -math.inf, math.inf,
            *rng.uniform(lo - 1.0, hi + 1.0, 500).tolist(),
        ]
        counts, want_edges = np.histogram(values, bins=bins, range=(lo, hi))
        hist = histogram(values, bins, value_range=(lo, hi))
        assert hist.edges == tuple(want_edges.tolist())
        assert hist.counts == tuple(counts.tolist())
        assert hist.rejected == len(values) - int(counts.sum())

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([0.5], 0)
        with pytest.raises(ValueError):
            histogram([0.5], 2, value_range=(1.0, 1.0))


class _Unprintable:
    def __str__(self):
        raise RuntimeError("cannot format count")


# The second row fails after the header and first row have been written.
UNWRITABLE = Histogram(edges=(0.0, 0.5, 1.0), counts=(1, _Unprintable()), rejected=0)


class TestHistogramCsv:
    def test_layout(self, tmp_path):
        hist = histogram([0.1, 0.1, 0.9], 2)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_left", "bin_right", "count"]
        assert rows[1] == ["0.0", "0.5", "2"]
        assert rows[2] == ["0.5", "1.0", "1"]

    def test_values_parse_back_exactly(self, tmp_path):
        hist = Histogram(edges=(0.0, 1 / 3, 2 / 3), counts=(4, 5), rejected=1)
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [float(r[1]) for r in rows] == [1 / 3, 2 / 3]
        assert [int(r[2]) for r in rows] == [4, 5]

    def test_failed_write_leaves_no_file(self, tmp_path):
        path = tmp_path / "hist.csv"
        with pytest.raises(RuntimeError):
            write_histogram_csv(UNWRITABLE, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "hist.csv"
        write_histogram_csv(histogram([0.1], 2), str(path))
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            write_histogram_csv(UNWRITABLE, str(path))
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]
