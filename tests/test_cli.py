import gc
import hashlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roipack
from roipack import cli
from roipack.cli import main
from roipack.formats import AnnotationError, read_annotations
from roipack.geometry import FrameSpec
from roipack.packing import MAX_FRAME_SIDE, PackPlan, PackSlot
from roipack.pipeline import Detection, GtObject
from roipack.simdet import SimulatedDetector
from roipack.stats import occupancy_ratio, temporal_region_iou

FRAME = FrameSpec(300.0)

OCC_HALF = '{"class": 0, "x0": 0.0, "y0": 0.0, "x1": 0.5, "y1": 0.5}'
OCC_HALF2 = '{"class": 0, "x0": 0.5, "y0": 0.5, "x1": 1.0, "y1": 1.0}'
SLIDE_T = '{"class": 0, "x0": 0.0, "y0": 0.0, "x1": 0.25, "y1": 0.25}'
SLIDE_T1 = '{"class": 0, "x0": 0.025, "y0": 0.0, "x1": 0.275, "y1": 0.25}'


def gen(tmp_path, name="data.jsonl", **overrides):
    args = {"videos": "3", "frames": "20", "seed": "0"}
    args.update({k.replace("_", "-"): v for k, v in overrides.items()})
    out = tmp_path / name
    argv = ["gen", "--out", str(out)]
    for key, value in args.items():
        argv.extend([f"--{key}", value])
    assert main(argv) == 0
    return out


class TestGen:
    def test_writes_requested_record_count(self, tmp_path, capsys):
        out = gen(tmp_path, videos="10", frames="100")
        lines = out.read_text().splitlines()
        assert len(lines) == 1000
        assert "wrote 1000 frames across 10 videos" in capsys.readouterr().out
        first = json.loads(lines[0])
        assert first["video"] == "v0000"
        assert first["frame"] == 0
        assert isinstance(first["objects"], list)

    def test_video_names_and_frame_ranges(self, tmp_path):
        out = gen(tmp_path, videos="2", frames="5")
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert sorted({r["video"] for r in records}) == ["v0000", "v0001"]
        assert [r["frame"] for r in records if r["video"] == "v0001"] == list(range(5))

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = gen(tmp_path, name="a.jsonl", seed="4")
        b = gen(tmp_path, name="b.jsonl", seed="4")
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = gen(tmp_path, name="a.jsonl", seed="4")
        b = gen(tmp_path, name="b.jsonl", seed="5")
        assert a.read_bytes() != b.read_bytes()

    def test_occupancy_must_be_a_fraction(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["gen", "--occupancy", "1.5", "--out", str(tmp_path / "x.jsonl")])
        assert err.value.code == 2

    def test_inverted_object_range_fails_cleanly(self, tmp_path, capsys):
        code = main(["gen", "--min-objects", "5", "--max-objects", "2",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_inverted_velocity_range_fails_cleanly(self, tmp_path, capsys):
        code = main(["gen", "--velocity-min", "2.0", "--velocity-max", "1.0",
                     "--out", str(tmp_path / "x.jsonl")])
        assert code == 1
        assert "--velocity-max" in capsys.readouterr().err


class TestRun:
    def run(self, ann, out, *extra):
        return main(["run", str(ann), "--out", str(out), *extra])

    def test_pad_mode_writes_results_and_summary(self, tmp_path):
        ann = gen(tmp_path)
        out = tmp_path / "results.jsonl"
        assert self.run(ann, out) == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 60
        kinds = {r["decision"] for r in records}
        assert kinds <= {"anchor", "packed", "fallback_full", "skipped"}
        for r in records:
            assert ("plan" in r) == (r["decision"] == "packed")
        summary = json.loads((tmp_path / "results.summary.json").read_text())
        assert summary["mode"] == "pad"
        assert summary["videos"] == 3
        assert summary["cost"]["frames"] == 60
        assert 0.0 <= summary["evaluation"]["mAP"] <= 1.0
        fractions = summary["cost"]["decision_fractions"]
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_baseline_mode_is_all_anchors(self, tmp_path):
        ann = gen(tmp_path)
        out = tmp_path / "base.jsonl"
        assert self.run(ann, out, "--mode", "baseline") == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert {r["decision"] for r in records} == {"anchor"}
        summary = json.loads((tmp_path / "base.summary.json").read_text())
        assert summary["cost"]["flop_reduction"] == 0.0
        assert summary["cost"]["speedup"] == 1.0

    def test_naive_mode_uses_naive_plans(self, tmp_path):
        ann = gen(tmp_path)
        out = tmp_path / "naive.jsonl"
        assert self.run(ann, out, "--mode", "naive") == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        methods = {r["plan"]["method"] for r in records if "plan" in r}
        assert methods == {"naive"}

    def test_noise_off_with_static_scene_recovers_everything(self, tmp_path):
        ann = gen(tmp_path, videos="2", frames="10",
                  velocity_min="0.0", velocity_max="0.0", jitter="0.0")
        out = tmp_path / "clean.jsonl"
        assert self.run(ann, out, "--noise-profile", "off") == 0
        summary = json.loads((tmp_path / "clean.summary.json").read_text())
        assert summary["evaluation"]["mAP"] == 1.0

    def test_a_box_narrower_than_an_ulp_of_its_slot_is_dropped(self, tmp_path):
        # Object 0 is one ulp wide at x = 10 px. Packed, its slot's dst sits
        # near x = 140 px, where an ulp is wider than the box, so it maps
        # to nothing and is dropped; it used to fail the run with
        # "degenerate rect".
        x0 = 10 / 300
        objects = [
            {"class": 0, "x0": x0, "y0": 0.3, "x1": math.nextafter(x0, 1), "y1": 0.31},
            {"class": 1, "x0": 0.55, "y0": 0.5, "x1": 0.95, "y1": 0.9},
        ]
        ann = tmp_path / "sliver.jsonl"
        ann.write_text("".join(
            json.dumps({"video": "v0000", "frame": f, "objects": objects}) + "\n"
            for f in range(10)
        ))
        out = tmp_path / "r.jsonl"
        assert self.run(ann, out, "--noise-profile", "off") == 0
        seen = {}
        for line in out.read_text().splitlines():
            record = json.loads(line)
            seen[record["frame"]] = (record["decision"], [d["class"] for d in record["detections"]])
        assert seen == {
            f: ("anchor", [0, 1]) if f % 5 == 0 else ("packed", [1]) for f in range(10)
        }
        # The naive packer's scaled slots keep the box; its bytes are unchanged.
        naive = tmp_path / "n.jsonl"
        assert self.run(ann, naive, "--noise-profile", "off", "--mode", "naive") == 0
        assert hashlib.sha256(naive.read_bytes()).hexdigest() == (
            "4f01e1de8466560462b56a2bf53995483dc8b20420c30c91b0dc7fd29cf107ea"
        )

    def write_frames(self, path, frames, *objects):
        path.write_text("".join(
            json.dumps({"video": "v0", "frame": f, "objects": list(objects)}) + "\n"
            for f in range(frames)
        ))
        return path

    @pytest.mark.parametrize("mode", ["pad", "baseline"])
    def test_a_box_of_zero_area_is_scored_as_no_match(self, tmp_path, mode):
        # At 300 px the first box is 3e-14 by 1.5e-321 px: its area, and so
        # its union with its own detection, underflows to 0.0. The run used
        # to end in a ZeroDivisionError raised in the encoder process.
        ann = self.write_frames(
            tmp_path / "a.jsonl", 10,
            {"class": 0, "x0": 0.5, "y0": 0.0, "x1": 0.5000000000000001, "y1": 5e-324},
            {"class": 1, "x0": 0.55, "y0": 0.5, "x1": 0.95, "y1": 0.9},
        )
        out = tmp_path / "r.jsonl"
        assert self.run(ann, out, "--noise-profile", "off", "--mode", mode) == 0
        summary = json.loads((tmp_path / "r.summary.json").read_text())
        assert summary["evaluation"]["per_class_ap"] == {"0": 0.0, "1": 1.0}

    def test_naive_mode_falls_back_when_a_scale_overflows(self, tmp_path):
        # The first box is 1.5e-321 px wide, so its naive crop's scale to
        # its cell overflows; the run used to fail with "non-finite rect
        # coordinate: nan". Such a frame now runs at full size.
        ann = self.write_frames(
            tmp_path / "a.jsonl", 10,
            {"class": 0, "x0": 0.0, "y0": 0.3, "x1": 5e-324, "y1": 0.31},
            {"class": 1, "x0": 0.55, "y0": 0.5, "x1": 0.95, "y1": 0.9},
        )
        out = tmp_path / "r.jsonl"
        assert self.run(ann, out, "--noise-profile", "off", "--mode", "naive") == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["decision"] for r in records] == [
            "anchor" if f % 5 == 0 else "fallback_full" for f in range(10)
        ]

    def test_pad_mode_falls_back_when_a_slot_collapses(self, tmp_path):
        # Placed after a 3e-14 px wide slot, a 1.5e-321 px wide one has no
        # width; the run used to fail with "degenerate rect".
        ann = self.write_frames(
            tmp_path / "a.jsonl", 8,
            {"class": 1, "x0": 0.0, "y0": 0.999, "x1": 0.3, "y1": 1.0},
            {"class": 0, "x0": 0.0, "y0": 0.0, "x1": 1e-16, "y1": 0.05},
            {"class": 1, "x0": 0.0, "y0": 0.39263608523672194, "x1": 5e-324,
             "y1": 0.39263608523672205},
        )
        out = tmp_path / "r.jsonl"
        assert self.run(ann, out, "--noise-profile", "off") == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["decision"] for r in records] == [
            "anchor" if f % 5 == 0 else "fallback_full" for f in range(8)
        ]

    def test_same_flags_are_byte_identical(self, tmp_path):
        ann = gen(tmp_path)
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert self.run(ann, out_a, "--seed", "3") == 0
        assert self.run(ann, out_b, "--seed", "3") == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_missing_annotations(self, tmp_path, capsys):
        assert self.run(tmp_path / "nope.jsonl", tmp_path / "out.jsonl") == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_annotations_name_the_line(self, tmp_path, capsys):
        ann = tmp_path / "bad.jsonl"
        ann.write_text('{"video": "v", "frame": 0, "objects": []}\n{broken\n')
        assert self.run(ann, tmp_path / "out.jsonl") == 1
        assert "line 2" in capsys.readouterr().err

    def test_empty_annotation_file(self, tmp_path, capsys):
        ann = tmp_path / "empty.jsonl"
        ann.write_text("\n\n")
        assert self.run(ann, tmp_path / "out.jsonl") == 1
        assert "no frames" in capsys.readouterr().err

    def test_no_objects_reports_null_map(self, tmp_path, capsys):
        ann = tmp_path / "empty_scene.jsonl"
        ann.write_text("".join(
            f'{{"video": "v", "frame": {i}, "objects": []}}\n' for i in range(6)
        ))
        out = tmp_path / "out.jsonl"
        assert self.run(ann, out) == 0
        assert len(out.read_text().splitlines()) == 6
        summary = json.loads((tmp_path / "out.summary.json").read_text())
        assert summary["evaluation"]["mAP"] is None
        assert summary["evaluation"]["num_ground_truth"] == 0
        assert summary["cost"]["frames"] == 6
        assert "mAP=n/a" in capsys.readouterr().out

    def test_out_over_annotations_is_refused(self, tmp_path, capsys):
        ann = gen(tmp_path)
        before = ann.read_bytes()
        assert self.run(ann, ann) == 1
        assert f"would write {ann} over the annotations file" in capsys.readouterr().err
        assert ann.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_summary_over_annotations_is_refused(self, tmp_path, capsys):
        # The summary of r.jsonl is r.summary.json.
        ann = gen(tmp_path, name="r.summary.json")
        before = ann.read_bytes()
        assert self.run(ann, tmp_path / "r.jsonl") == 1
        assert f"would write {ann} over the annotations file" in capsys.readouterr().err
        assert ann.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.summary.json"]

    @pytest.mark.parametrize("name", ["r.jsonl.tmp", "r.summary.json.tmp"])
    def test_temporary_name_over_annotations_is_refused(self, tmp_path, capsys, name):
        # Each output is first written to <output>.tmp and then moved over
        # the output, which would consume an input of that name.
        ann = gen(tmp_path, name=name, videos="2", frames="5")
        before = ann.read_bytes()
        assert self.run(ann, tmp_path / "r.jsonl") == 1
        assert f"would write {ann} over the annotations file" in capsys.readouterr().err
        assert ann.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    def test_unknown_mode_rejected_by_parser(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "x.jsonl", "--mode", "turbo", "--out", "y.jsonl"])
        assert err.value.code == 2

    def test_tau_must_be_in_unit_interval(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["run", "x.jsonl", "--tau", "1.5", "--out", "y.jsonl"])
        assert err.value.code == 2


class TestNumberArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "{ann}", "--pack-overhead", "nan"],
            ["run", "{ann}", "--pack-overhead", "inf"],
            ["run", "{ann}", "--skip-cost", "inf"],
            ["gen", "--velocity-max", "inf"],
        ],
    )
    def test_non_finite_value_exits_2_and_writes_nothing(self, tmp_path, capsys, argv):
        ann = gen(tmp_path)
        before = sorted(tmp_path.iterdir())
        argv = [arg.format(ann=ann) for arg in argv] + ["--out", str(tmp_path / "out.jsonl")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag, value", [("--full-size", "1e9"), ("--reduced-size", "65536.5")])
    def test_frame_side_above_the_cap_exits_2_at_once(self, tmp_path, capsys, flag, value):
        # Expansion time is linear in the frame side, so an uncapped 1e9 px
        # frame would keep the run busy far longer than this bound.
        ann = gen(tmp_path)
        before = sorted(tmp_path.iterdir())
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            main(["run", str(ann), flag, value, "--out", str(tmp_path / "out.jsonl")])
        assert err.value.code == 2
        assert time.perf_counter() - start < 10.0
        assert "must be in (0, 65536]" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_frame_side_at_the_cap_is_accepted(self, tmp_path):
        ann = gen(tmp_path)
        out = tmp_path / "out.jsonl"
        cap = str(MAX_FRAME_SIDE)
        argv = ["run", str(ann), "--full-size", cap, "--reduced-size", cap, "--out", str(out)]
        assert main(argv) == 0
        config = json.loads((tmp_path / "out.summary.json").read_text())["config"]
        assert config["full_size"] == config["reduced_size"] == MAX_FRAME_SIDE == 65536.0

    @pytest.mark.parametrize("command", ["gen", "stats"])
    def test_full_size_above_the_cap_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # A 1e300 px frame's area overflows to inf, and the NaN means that
        # follow are not valid JSON.
        ann = gen(tmp_path)
        before = sorted(tmp_path.iterdir())
        argv = {
            "gen": ["gen", "--out", str(tmp_path / "new.jsonl")],
            "stats": ["stats", str(ann), "--out-dir", str(tmp_path / "stats")],
        }[command]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--full-size", "1e300"])
        assert err.value.code == 2
        assert "must be in (0, 65536]" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_full_size_at_the_cap_is_accepted_by_gen_and_stats(self, tmp_path):
        cap = str(MAX_FRAME_SIDE)
        ann = gen(tmp_path, full_size=cap)
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--full-size", cap, "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "stats_summary.json").read_text())
        assert 0.0 < summary["mean_occupancy"] <= 1.0
        assert 0.0 < summary["mean_temporal_iou"] <= 1.0

    def test_bins_at_the_cap_are_accepted(self, tmp_path):
        ann = gen(tmp_path, videos="2", frames="5")
        out_dir = tmp_path / "stats"
        argv = ["stats", str(ann), "--bins", str(cli.MAX_BINS), "--out-dir", str(out_dir)]
        assert main(argv) == 0
        rows = (out_dir / "occupancy_hist.csv").read_text().splitlines()
        assert len(rows) == 1 + cli.MAX_BINS == 10_001

    def test_bins_above_the_cap_exit_2_and_write_nothing(self, tmp_path, capsys):
        # A histogram holds bins + 1 edges, so an uncapped count can exhaust
        # memory before any output is written.
        ann = gen(tmp_path, videos="2", frames="5")
        before = sorted(tmp_path.iterdir())
        argv = ["stats", str(ann), "--bins", str(cli.MAX_BINS + 1), "--out-dir", str(tmp_path / "stats")]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "must be in [1, 10000]" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_unparsable_value_names_its_type(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "x.jsonl", "--seed", "seven", "--out", "y.jsonl"])
        assert err.value.code == 2
        assert "invalid int value: 'seven'" in capsys.readouterr().err


class TestUnreadableAnnotationValues:
    """Values that parse as JSON numbers yet fail later, or not at all."""

    LINES = {
        # Valid when normalized, but x0 and x1 round together at side 300.
        "collapsing box": '{"video": "v", "frame": 0, "objects": [{"class": 0, '
        '"x0": 0.4765969541523558, "y0": 0.1, "x1": 0.47659695415235587, "y1": 0.5}]}',
        "long integer coordinate": '{"video": "v", "frame": 0, "objects": [{"class": 0, '
        f'"x0": 1{"0" * 399}, "y0": 0.1, "x1": 0.5, "y1": 0.5}}]}}',
        "frame id past the digit limit": f'{{"video": "v", "frame": {"1" * 5000}, "objects": []}}',
        "nesting past the recursion limit": '{"video": "v", "frame": 0, "objects": '
        f'{"[" * 100_000}{"]" * 100_000}}}',
    }

    @pytest.mark.parametrize("command", ["run", "stats"])
    @pytest.mark.parametrize("line", LINES.values(), ids=LINES)
    def test_exit_1_naming_the_line(self, tmp_path, capsys, command, line):
        ann = tmp_path / "bad.jsonl"
        ann.write_text(line + "\n")
        if command == "run":
            argv = ["run", str(ann), "--out", str(tmp_path / "out.jsonl")]
        else:
            argv = ["stats", str(ann), "--out-dir", str(tmp_path / "stats")]
        assert main(argv) == 1
        assert "bad.jsonl: line 1: " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl"]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree(root):
    """Every path under root, relative, with each file's bytes."""
    return {
        str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
        for p in sorted(root.rglob("*"))
    }


class TestDirectoryAtAnOutputPath:
    """A directory at an output path, or at the temporary name it is first
    written under, stops the command before anything is read or generated."""

    @pytest.fixture
    def untouched(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("read or generated before the outputs were checked")

        monkeypatch.setattr(cli, "read_annotations", refuse)
        monkeypatch.setattr(cli, "iter_frames", refuse)
        monkeypatch.setattr(cli, "gen_synthetic", refuse)

    @pytest.mark.parametrize(
        "directory", ["r.jsonl", "r.jsonl.tmp", "r.summary.json", "r.summary.json.tmp"]
    )
    def test_run(self, tmp_path, capsys, directory, untouched):
        ann = tmp_path / "a.jsonl"
        ann.write_text(f'{{"video": "v", "frame": 0, "objects": [{OCC_HALF}]}}\n')
        (tmp_path / directory).mkdir()
        before = tree(tmp_path)
        assert main(["run", str(ann), "--out", str(tmp_path / "r.jsonl")]) == 1
        assert f"would write {tmp_path / directory} over a directory" in capsys.readouterr().err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize(
        "directory", ["occupancy_hist.csv", "temporal_iou_hist.csv.tmp", "stats_summary.json"]
    )
    def test_stats(self, tmp_path, capsys, directory, untouched):
        ann = tmp_path / "a.jsonl"
        ann.write_text(f'{{"video": "v", "frame": 0, "objects": [{OCC_HALF}]}}\n')
        (tmp_path / "sd" / directory).mkdir(parents=True)
        before = tree(tmp_path)
        assert main(["stats", str(ann), "--out-dir", str(tmp_path / "sd")]) == 1
        err = capsys.readouterr().err
        assert f"would write {tmp_path / 'sd' / directory} over a directory" in err
        assert tree(tmp_path) == before

    @pytest.mark.parametrize("directory", ["g.jsonl", "g.jsonl.tmp"])
    def test_gen(self, tmp_path, capsys, directory, untouched):
        (tmp_path / directory).mkdir()
        before = tree(tmp_path)
        argv = ["gen", "--videos", "2", "--frames", "5", "--out", str(tmp_path / "g.jsonl")]
        assert main(argv) == 1
        assert f"would write {tmp_path / directory} over a directory" in capsys.readouterr().err
        assert tree(tmp_path) == before


class TestUnwritableOutputDirectory:
    """An output directory that is missing (for `run`) or lies under a file
    stops the command before the annotations are read."""

    @pytest.fixture
    def unread(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "read_annotations", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "iter_frames", lambda *args: calls.append(args) or iter(()))
        return calls

    @pytest.mark.parametrize(
        "command, problem",
        [
            (["run", "--out", "nodir/r.jsonl"], "nodir does not exist"),
            (["run", "--out", "afile/r.jsonl"], "afile is not a directory"),
            (["stats", "--out-dir", "afile"], "afile is not a directory"),
            (["stats", "--out-dir", "afile/sub"], "afile is not a directory"),
        ],
    )
    def test_refused_before_reading(self, tmp_path, monkeypatch, capsys, unread, command, problem):
        ann = gen(tmp_path, videos="2", frames="5")
        (tmp_path / "afile").write_text("a file\n")
        monkeypatch.chdir(tmp_path)
        before = tree(tmp_path)
        verb, option, path = command
        assert main([verb, ann.name, option, path]) == 1
        assert f"error: {option} {path}: {problem}" in capsys.readouterr().err
        assert unread == []
        assert tree(tmp_path) == before

    def test_stats_makes_missing_directories(self, tmp_path):
        ann = gen(tmp_path, videos="2", frames="5")
        assert main(["stats", str(ann), "--out-dir", str(tmp_path / "new" / "sub")]) == 0
        assert (tmp_path / "new" / "sub" / "stats_summary.json").exists()


class TestSettingsCheckedBeforeReading:
    def test_reduced_frame_larger_than_the_full_frame(self, tmp_path, monkeypatch, capsys):
        ann = gen(tmp_path, videos="2", frames="5")
        calls = []
        monkeypatch.setattr(cli, "read_annotations", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "iter_frames", lambda *args: calls.append(args) or iter(()))
        before = tree(tmp_path)
        out = str(tmp_path / "r.jsonl")
        assert main(["run", str(ann), "--out", out, "--reduced-size", "400"]) == 1
        err = capsys.readouterr().err
        assert "error: reduced frame cannot be larger than the full frame" in err
        assert calls == []
        assert tree(tmp_path) == before


class TestNoProcessOutlivesACommand:
    def test_after_gen_and_run(self, tmp_path):
        ann = gen(tmp_path)
        no_child_left()
        assert main(["run", str(ann), "--out", str(tmp_path / "out.jsonl")]) == 0
        no_child_left()

    def test_after_a_failed_run(self, tmp_path, failing):
        ann = gen(tmp_path)
        with pytest.raises(RuntimeError, match="detector failed"):
            main(["run", str(ann), "--out", str(tmp_path / "out.jsonl")])
        no_child_left()

    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
    def test_after_an_interrupt(self, tmp_path):
        ann = gen(tmp_path, videos="250", frames="20", min_objects="4", max_objects="8",
                  occupancy="0.35")
        tmp = tmp_path / "out.jsonl.tmp"
        env = {**os.environ, "PYTHONPATH": str(Path(roipack.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        # Its own process group, so that the interrupt reaches every process
        # of the command, as a terminal's Ctrl-C does.
        proc = subprocess.Popen(
            [sys.executable, "-m", "roipack", "run", str(ann), "--out", str(tmp_path / "out.jsonl")],
            env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not tmp.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.005)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        assert "KeyboardInterrupt" in err  # the interrupt came while the run went on
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]


class FailingDetector(SimulatedDetector):
    """Raises on the first frame of the third video it is built for, and
    notes whether the cyclic garbage collector was on at that moment."""

    built = 0
    gc_on_at_failure = None

    def __init__(self, frames, noise):
        super().__init__(frames, noise)
        type(self).built += 1
        self.doomed = type(self).built == 3

    def detect(self, frame_index, view):
        if self.doomed:
            type(self).gc_on_at_failure = gc.isenabled()
            raise RuntimeError("detector failed")
        return super().detect(frame_index, view)


@pytest.fixture
def failing(monkeypatch):
    monkeypatch.setattr(FailingDetector, "built", 0)
    monkeypatch.setattr(FailingDetector, "gc_on_at_failure", None)
    monkeypatch.setattr(cli, "SimulatedDetector", FailingDetector)


class TestRunFailure:
    def test_leaves_no_outputs(self, tmp_path, failing):
        ann = gen(tmp_path)
        with pytest.raises(RuntimeError, match="detector failed"):
            main(["run", str(ann), "--out", str(tmp_path / "out.jsonl")])
        assert FailingDetector.built == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl"]

    def test_keeps_older_outputs(self, tmp_path, failing):
        ann = gen(tmp_path)
        out = tmp_path / "out.jsonl"
        out.write_text("older results\n")
        (tmp_path / "out.summary.json").write_text("older summary\n")
        with pytest.raises(RuntimeError):
            main(["run", str(ann), "--out", str(out)])
        assert out.read_text() == "older results\n"
        assert (tmp_path / "out.summary.json").read_text() == "older summary\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.jsonl", "out.jsonl", "out.summary.json"]

    def test_results_are_written_while_the_run_goes(self, tmp_path, monkeypatch):
        ann = gen(tmp_path)
        tmp = tmp_path / "out.jsonl.tmp"
        seen = []

        class Watching(SimulatedDetector):
            def __init__(self, frames, noise):
                super().__init__(frames, noise)
                seen.append(tmp.exists())

        monkeypatch.setattr(cli, "SimulatedDetector", Watching)
        assert main(["run", str(ann), "--out", str(tmp_path / "out.jsonl")]) == 0
        assert seen == [True, True, True]
        assert not tmp.exists()


class TestUnorderedAnnotations:
    """A file whose videos do not come one after another in name order is
    run again from the whole file, and writes what its lines sorted by video
    write."""

    @staticmethod
    def reordered(lines):
        # v0002 first, then v0000 and v0001 line by line.
        by_video = {}
        for line in lines:
            by_video.setdefault(json.loads(line)["video"], []).append(line)
        first, second, third = (by_video[name] for name in sorted(by_video))
        interleaved = [line for pair in zip(first, second) for line in pair]
        return third + interleaved

    @pytest.mark.parametrize("mode", ["pad", "naive", "baseline"])
    def test_outputs_equal_those_of_the_sorted_file(self, tmp_path, monkeypatch, mode):
        lines = gen(tmp_path, videos="3", frames="12").read_text().splitlines(keepends=True)
        readers, whole_reads = [], []
        real_iter_frames, real_read_annotations = cli.iter_frames, cli.read_annotations

        def keep_reader(*args):
            readers.append(real_iter_frames(*args))
            return readers[-1]

        def count_read(*args):
            whole_reads.append(args)
            return real_read_annotations(*args)

        monkeypatch.setattr(cli, "iter_frames", keep_reader)
        monkeypatch.setattr(cli, "read_annotations", count_read)
        # Both files under one path, which the summary names.
        ann, out = tmp_path / "a.jsonl", tmp_path / "r.jsonl"
        outputs = []
        for text in ("".join(lines), "".join(self.reordered(lines))):
            ann.write_text(text)
            assert main(["run", str(ann), "--out", str(out), "--mode", mode]) == 0
            outputs.append((out.read_bytes(), (tmp_path / "r.summary.json").read_bytes()))
        assert ann.read_text() != "".join(lines)
        assert outputs[0] == outputs[1]
        assert len(whole_reads) == 1  # only the unordered file was read whole
        # The abandoned reader was closed, and with it the annotation file.
        assert len(readers) == 2
        assert all(inspect.getgeneratorstate(r) == inspect.GEN_CLOSED for r in readers)
        no_child_left()


class TestLateAnnotationError:
    """A bad line in the last video is found after the videos before it
    were run and handed to the encoder, and fails the run as a bad first
    line does."""

    LINES = {
        "malformed object": '{"video": "v0002", "frame": 40, "objects": [{"class": 0}]}',
        "frame id not increasing": '{"video": "v0002", "frame": 39, "objects": []}',
    }

    @pytest.mark.parametrize("line", LINES.values(), ids=LINES)
    def test_exit_1_naming_the_line_and_leaving_older_outputs(
        self, tmp_path, monkeypatch, capsys, line
    ):
        ann = gen(tmp_path, videos="3", frames="40")
        with ann.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(AnnotationError) as expected:
            read_annotations(str(ann), FRAME)
        assert "line 121: " in str(expected.value)
        out = tmp_path / "out.jsonl"
        out.write_text("older results\n")
        (tmp_path / "out.summary.json").write_text("older summary\n")
        tmp = tmp_path / "out.jsonl.tmp"
        sent = []
        real_run_video = cli.run_video

        def spy(*args, **kwargs):
            sent.append(tmp.exists())
            return real_run_video(*args, **kwargs)

        monkeypatch.setattr(cli, "run_video", spy)
        assert main(["run", str(ann), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        # 80 records of two videos are more than one batch for the encoder.
        assert sent == [True, True]
        assert out.read_text() == "older results\n"
        assert (tmp_path / "out.summary.json").read_text() == "older summary\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.jsonl", "out.jsonl", "out.summary.json"]
        no_child_left()


class TestEncoderProcessWork:
    """`run`'s encoder process builds, scores and ranks the result lines,
    and sends the evaluation back."""

    @pytest.mark.parametrize("mode", ["pad", "naive", "baseline"])
    def test_without_fork_the_same_bytes_are_written(self, tmp_path, monkeypatch, mode):
        ann = gen(tmp_path, videos="4", frames="20", seed="7", min_objects="4",
                  max_objects="8", occupancy="0.35")
        outputs = []
        for name in ("forked", "in-process"):
            if name == "in-process":
                monkeypatch.delattr(os, "fork")
            out = tmp_path / f"{name}.jsonl"
            assert main(["run", str(ann), "--out", str(out), "--mode", mode]) == 0
            outputs.append((out.read_bytes(), (tmp_path / f"{name}.summary.json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["evaluation"]["num_detections"] > 0

    @pytest.mark.parametrize("work", ["result_record", "evaluate_detections"])
    def test_a_failure_there_fails_the_run_cleanly(self, tmp_path, monkeypatch, capsys, work):
        ann = gen(tmp_path)
        out = tmp_path / "out.jsonl"
        out.write_text("older results\n")
        (tmp_path / "out.summary.json").write_text("older summary\n")

        def fail(*args):
            raise ValueError(f"{work} failed")

        # Patched before the fork, so the encoder process inherits it.
        monkeypatch.setattr(cli, work, fail)
        assert main(["run", str(ann), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {work} failed\n"
        assert out.read_text() == "older results\n"
        assert (tmp_path / "out.summary.json").read_text() == "older summary\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "data.jsonl", "out.jsonl", "out.summary.json"]
        no_child_left()


class TestRunMemory:
    INPUTS = {
        "crowded": dict(min_objects="4", max_objects="8", occupancy="0.35"),
        "road": {},
    }

    @staticmethod
    def fresh_python(code, *args):
        """The words `code` prints, run with `args` in a fresh interpreter."""
        env = {**os.environ, "PYTHONPATH": str(Path(roipack.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.split()

    def test_live_objects_do_not_grow_with_the_run(self, tmp_path, monkeypatch):
        ann = gen(tmp_path, videos="8", frames="20", seed="3")
        live = []

        def count_live():
            counts = Counter(type(obj) for obj in gc.get_objects())
            return counts[Detection], counts[GtObject], counts[PackPlan], counts[PackSlot]

        def per_video(path, key, frame=None):
            # Counted from the files, so that the test holds no objects.
            counts = Counter()
            for line in path.read_text().splitlines():
                rec = json.loads(line)
                if frame in (None, rec["frame"]):
                    counts[rec["video"]] += len(rec[key])
            return counts

        real_run_video = cli.run_video

        def spy(*args, **kwargs):
            live.append(count_live())
            return real_run_video(*args, **kwargs)

        monkeypatch.setattr(cli, "run_video", spy)
        gc.collect()
        held_det, held_gt, held_plans, held_slots = count_live()
        out = tmp_path / "r.jsonl"
        assert main(["run", str(ann), "--out", str(out)]) == 0
        gt_per_video = per_video(ann, "objects")
        det_per_video = per_video(out, "detections")
        first_frame = per_video(ann, "objects", frame=0)
        packed = Counter()
        for line in out.read_text().splitlines():
            rec = json.loads(line)
            packed[rec["video"]] += "plan" in rec
        names = sorted(gt_per_video)
        assert len(live) == len(names) == 8
        assert sum(packed[name] > 0 for name in names) >= 3, packed
        for i, (dets, gts, plans, plan_slots) in enumerate(live):
            dets, gts = dets - held_det, gts - held_gt
            # No plan outlives its video: when a video starts, no earlier
            # video's records, and so none of its plans or slots, are live.
            assert (plans, plan_slots) == (held_plans, held_slots), (i, plans, plan_slots)
            assert dets <= max(det_per_video.values()), (i, dets)
            # Live are the video about to run and the first frame of the
            # next one, whose line ended it; no other video's frames are.
            running = gt_per_video[names[i]]
            following = first_frame[names[i + 1]] if i + 1 < len(names) else 0
            assert gts == running + following, (i, gts)


    def test_traced_peak_grows_little_per_frame(self, tmp_path):
        # The encoder is a forked process that builds, scores and ranks the
        # result lines, so tracemalloc sees only what `run`'s own process
        # holds: per frame, a reference to its shared decision, and not its
        # parsed objects, its plan, its detections or their scores. Most of
        # what else grew with the input were tuples that `run`'s own code
        # left on the interpreter's free lists, until each was built from a
        # list (see the `packing` docstring). Each input is measured in a
        # fresh interpreter, after an untraced run of the same input has
        # filled the detector's draw cache; in one shared process, the
        # first input measured read 40-100 B/frame more than later ones.
        code = (
            "import sys, tracemalloc\n"
            "from roipack.cli import main\n"
            "ann, out = sys.argv[1:]\n"
            "assert main(['run', ann, '--out', out]) == 0\n"
            "tracemalloc.start()\n"
            "assert main(['run', ann, '--out', out]) == 0\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        out = tmp_path / "r.jsonl"
        for name, flags in self.INPUTS.items():
            small = gen(tmp_path, f"{name}-5.jsonl", videos="5", frames="20", seed="7", **flags)
            large = gen(tmp_path, f"{name}-40.jsonl", videos="40", frames="20", seed="7", **flags)
            growth = int(self.fresh_python(code, large, out)[-1]) - int(
                self.fresh_python(code, small, out)[-1]
            )
            per_frame = growth / ((40 - 5) * 20)
            # 30-61 B on Python 3.10-3.13; 114-138 B while per-frame tuples
            # were built from generators, 160-188 B while `run` kept scores.
            assert per_frame < 100, (name, per_frame)

    def test_traced_memory_is_flat_between_videos(self, tmp_path):
        # What `run`'s process holds as each video starts, from the tenth
        # video of a 40-video input to the last: the growth is what it keeps
        # per frame, a reference to each decision and each video's name.
        code = (
            "import sys, tracemalloc\n"
            "from roipack import cli\n"
            "ann, out = sys.argv[1:]\n"
            "held, real_run_video = [], cli.run_video\n"
            "def spy(*args, **kwargs):\n"
            "    held.append(tracemalloc.get_traced_memory()[0])\n"
            "    return real_run_video(*args, **kwargs)\n"
            "cli.run_video = spy\n"
            "tracemalloc.start()\n"
            "assert cli.main(['run', ann, '--out', out]) == 0\n"
            "print(len(held), held[-1] - held[10])\n"
        )
        for name, flags in self.INPUTS.items():
            ann = gen(tmp_path, f"{name}.jsonl", videos="40", frames="20", seed="7", **flags)
            videos, growth = map(int, self.fresh_python(code, ann, tmp_path / "r.jsonl")[-2:])
            assert videos == 40
            per_frame = growth / ((40 - 1 - 10) * 20)
            # -2 to 15 B on Python 3.10-3.13; 68-142 B while per-frame tuples
            # were built from generators and kept on the free lists.
            assert per_frame < 30, (name, per_frame)


class TestGarbageCollection:
    @pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
    def gc_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_state_restored_after_success(self, tmp_path, gc_state):
        ann = gen(tmp_path)
        assert gc.isenabled() == gc_state
        assert main(["run", str(ann), "--out", str(tmp_path / "out.jsonl")]) == 0
        assert gc.isenabled() == gc_state

    def test_state_restored_after_error(self, tmp_path, gc_state):
        assert main(["run", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl")]) == 1
        assert gc.isenabled() == gc_state

    def test_state_restored_after_exception(self, tmp_path, gc_state, failing):
        ann = gen(tmp_path)
        with pytest.raises(RuntimeError):
            main(["run", str(ann), "--out", str(tmp_path / "out.jsonl")])
        assert FailingDetector.gc_on_at_failure is False
        assert gc.isenabled() == gc_state

    def test_commands_leave_no_cycles_that_grow_with_the_input(self, tmp_path, capsys):
        found = {}
        for videos in ("1", "20"):
            ann = str(tmp_path / f"{videos}.jsonl")
            found[videos] = []
            for argv in (
                ["gen", "--videos", videos, "--frames", "20", "--out", ann],
                ["run", ann, "--out", str(tmp_path / "out.jsonl")],
                ["stats", ann, "--out-dir", str(tmp_path / "stats")],
            ):
                gc.collect()
                assert main(argv) == 0
                found[videos].append(gc.collect())
        # What is left is the argument parser's own cycles.
        assert found["1"] == found["20"]


class TestStats:
    def test_fixture_means(self, tmp_path, capsys):
        ann = tmp_path / "fix.jsonl"
        ann.write_text(
            f'{{"video": "fix", "frame": 0, "objects": [{OCC_HALF}, {OCC_HALF2}]}}\n'
            f'{{"video": "pair", "frame": 0, "objects": [{SLIDE_T}]}}\n'
            f'{{"video": "pair", "frame": 1, "objects": [{SLIDE_T1}]}}\n'
        )
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "stats_summary.json").read_text())
        assert summary["frames"] == 3
        assert summary["frame_pairs"] == 1
        # Videos contribute one half-covered frame and two 1/16-covered ones.
        assert summary["mean_occupancy"] == pytest.approx((0.5 + 0.0625 + 0.0625) / 3, abs=1e-12)
        assert summary["mean_temporal_iou"] == pytest.approx(9 / 11, abs=1e-12)
        assert (out_dir / "occupancy_hist.csv").exists()
        assert (out_dir / "temporal_iou_hist.csv").exists()
        assert "mean occupancy" in capsys.readouterr().out

    def test_a_frame_whose_union_rounds_past_its_area_reads_one_and_is_binned(self, tmp_path):
        # Two slivers split the covered frame into slabs whose rounded areas
        # sum past the frame's: the occupancy read 1.0000000000000002, and
        # the histogram, binning only [0, 1], left the frame out.
        objects = [
            {"class": 0, "x0": 0.0, "y0": 0.0, "x1": 1.0, "y1": 0.5},
            {"class": 0, "x0": 0.0, "y0": 0.5, "x1": 1.0, "y1": 1.0},
            {"class": 1, "x0": 0.75, "y0": 0.0, "x1": math.nextafter(0.75, 2.0), "y1": 5e-324},
            {"class": 1, "x0": 0.9177847433736936, "y0": 0.0, "x1": 1.0, "y1": 5e-324},
        ]
        ann = tmp_path / "slivers.jsonl"
        ann.write_text(json.dumps({"video": "v0", "frame": 0, "objects": objects}) + "\n")
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir)]) == 0
        assert '"mean_occupancy": 1.0,' in (out_dir / "stats_summary.json").read_text()
        rows = (out_dir / "occupancy_hist.csv").read_text().splitlines()[1:]
        assert [int(row.split(",")[2]) for row in rows] == [0] * (len(rows) - 1) + [1]

    def test_histogram_csv_headers(self, tmp_path):
        ann = gen(tmp_path)
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir), "--bins", "5"]) == 0
        header = (out_dir / "occupancy_hist.csv").read_text().splitlines()[0]
        assert header == "bin_left,bin_right,count"

    def test_static_video_has_unit_temporal_iou(self, tmp_path):
        ann = gen(tmp_path, videos="1", frames="6",
                  velocity_min="0.0", velocity_max="0.0", jitter="0.0")
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "stats_summary.json").read_text())
        assert summary["mean_temporal_iou"] == 1.0

    def test_means_fold_left_to_right(self, tmp_path):
        # On this dataset both means differ in the last bit when summed
        # compensated (math.fsum, and sum() from Python 3.12 on); the
        # summary keeps the left-to-right fold. The seed is the smallest
        # `gen --videos 3 --frames 5` seed, counting from 0, whose dataset
        # gives both means such a difference; re-derive it by that rule
        # whenever `gen`'s draws change.
        ann = gen(tmp_path, videos="3", frames="5", seed="3")
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "stats_summary.json").read_text())
        videos = read_annotations(str(ann), FRAME)
        occupancies, overlaps = [], []
        for name in sorted(videos):
            frames = videos[name]
            occupancies += [occupancy_ratio(f, FRAME) for f in frames]
            overlaps += [temporal_region_iou(a, b, FRAME) for a, b in zip(frames, frames[1:])]
        for key, values in (("mean_occupancy", occupancies), ("mean_temporal_iou", overlaps)):
            total = 0.0
            for value in values:
                total += value
            assert math.fsum(values) / len(values) != total / len(values)
            assert summary[key] == total / len(values)

    @pytest.mark.parametrize(
        "name", ["occupancy_hist.csv", "temporal_iou_hist.csv", "stats_summary.json"]
    )
    def test_output_over_annotations_is_refused(self, tmp_path, monkeypatch, capsys, name):
        ann = gen(tmp_path, name=name, videos="2", frames="5")
        before = ann.read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["stats", name, "--out-dir", "."]) == 1
        assert f"--out-dir . would write {name} over the annotations file" in capsys.readouterr().err
        assert ann.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]

    @pytest.mark.parametrize(
        "name", ["occupancy_hist.csv", "temporal_iou_hist.csv", "stats_summary.json"]
    )
    def test_temporary_name_over_annotations_is_refused(
        self, tmp_path, monkeypatch, capsys, name
    ):
        tmp_name = f"{name}.tmp"
        ann = gen(tmp_path, name=tmp_name, videos="2", frames="5")
        before = ann.read_bytes()
        monkeypatch.chdir(tmp_path)
        assert main(["stats", tmp_name, "--out-dir", "."]) == 1
        assert f"--out-dir . would write {tmp_name} over the annotations file" in (
            capsys.readouterr().err
        )
        assert ann.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [tmp_name]

    def test_no_pairs_removes_an_older_temporal_histogram(self, tmp_path):
        many = gen(tmp_path, videos="1", frames="5")
        one = tmp_path / "one.jsonl"
        one.write_text(f'{{"video": "v", "frame": 0, "objects": [{OCC_HALF}]}}\n')
        out_dir = tmp_path / "sd"
        assert main(["stats", str(many), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "temporal_iou_hist.csv").exists()
        assert main(["stats", str(one), "--out-dir", str(out_dir)]) == 0
        assert json.loads((out_dir / "stats_summary.json").read_text())["mean_temporal_iou"] is None
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "occupancy_hist.csv", "stats_summary.json"]

    def test_a_box_of_zero_area_has_temporal_iou_zero(self, tmp_path):
        # The box's area underflows to 0.0; stats used to divide 0.0 by 0.0.
        box = '{"class": 0, "x0": 0.5, "y0": 0.0, "x1": 0.5000000000000001, "y1": 5e-324}'
        ann = tmp_path / "a.jsonl"
        ann.write_text("".join(
            f'{{"video": "v0", "frame": {f}, "objects": [{box}]}}\n' for f in range(3)
        ))
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "stats_summary.json").read_text())
        assert summary["mean_temporal_iou"] == 0.0

    def test_single_frame_dataset_has_no_pairs(self, tmp_path):
        ann = tmp_path / "one.jsonl"
        ann.write_text(f'{{"video": "v", "frame": 0, "objects": [{OCC_HALF}]}}\n')
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "stats_summary.json").read_text())
        assert summary["mean_temporal_iou"] is None
        assert not (out_dir / "temporal_iou_hist.csv").exists()


# Frame sides (full, reduced) the generated runs draw from: the defaults, a
# reduced side that is not a power-of-two fraction, and tiny and huge frames.
FUZZ_SIDES = [("300", "150"), ("300", "149.7"), ("1", "0.5"), ("0.01", "0.01"),
              ("65536", "32768")]


FUZZ_TINY_WIDTHS = st.sampled_from([5e-324, 1e-16])
# Half the frame is the reduced side at most of FUZZ_SIDES.
FUZZ_WIDTHS = st.sampled_from([5e-324, 1e-16, 0.5, 1.0]) | st.floats(5e-324, 1.0)
FUZZ_PLACES = st.sampled_from(["low", "high", "anywhere", "ulp"])
FUZZ_UNIT = st.floats(0.0, 1.0)


def draw_fuzz_span(draw, slivers: bool) -> tuple[float, float]:
    """One axis of a box, in [0, 1]: 5e-324 to 1 wide (at most 1e-16 among
    `slivers`), one ulp wide, or flush with a frame edge."""
    width = draw(FUZZ_TINY_WIDTHS if slivers else FUZZ_WIDTHS)
    where = draw(FUZZ_PLACES)
    if where == "low":
        return 0.0, width
    if where == "high":  # one ulp wide where 1 - width rounds to 1
        lo = 1.0 - width
        return (lo if lo < 1.0 else math.nextafter(1.0, 0.0)), 1.0
    lo = draw(FUZZ_UNIT)
    hi = math.nextafter(lo, 2.0) if where == "ulp" else lo + width
    return lo, min(hi, 1.0)


@st.composite
def fuzz_annotations(draw, side):
    """JSON lines of one or two videos of up to 8 frames, each frame holding
    the video's 0 to 6 boxes, each kept from the frame before or moved, so a
    packed frame's ROIs differ from its boxes; a box that is empty at
    `side` is left out of its frame, so every file is valid. The boxes of
    some videos are all slivers, which is where packing and scoring meet
    underflow."""
    lines = []
    for video in range(draw(st.integers(1, 2))):
        slivers = draw(st.booleans())
        boxes = [None] * draw(st.integers(0, 6))
        for frame in range(draw(st.integers(1, 8))):
            for k, box in enumerate(boxes):
                if box is None or draw(st.booleans()):
                    (x0, x1), (y0, y1) = draw_fuzz_span(draw, slivers), draw_fuzz_span(draw, slivers)
                    boxes[k] = {"class": draw(st.integers(0, 2)), "x0": x0, "y0": y0, "x1": x1, "y1": y1}
            objects = [b for b in boxes if b["x0"] * side < b["x1"] * side
                       and b["y0"] * side < b["y1"] * side]
            lines.append(json.dumps({"video": f"v{video}", "frame": frame, "objects": objects}))
    return "".join(line + "\n" for line in lines)


@st.composite
def fuzz_run_case(draw):
    """An annotation file and `run` flags. Packing and noise-free boxes are
    drawn twice as often as the rest: the default noise drops boxes
    narrower than 1e-6 px, so slivers reach packing and scoring only
    without it."""
    full, reduced = draw(st.sampled_from(FUZZ_SIDES))
    text = draw(fuzz_annotations(float(full)))
    flags = [
        "--full-size", full, "--reduced-size", reduced,
        "--mode", draw(st.sampled_from(["pad", "pad", "naive", "baseline"])),
        "--noise-profile", draw(st.sampled_from(["off", "off", "default"])),
        "--tau", draw(st.sampled_from(["0", "0.2", "1"])),
        "--anchor-interval", draw(st.sampled_from(["1", "2", "100"])),
    ]
    return text, flags


def assert_plan_fits(slots, full: float, reduced: float, pad: bool):
    """A packed frame's plan, checked as perfbench/check.py checks it: each
    src inside the frame, each dst inside the reduced frame within 1e-9,
    and in pad mode scale 1 and no two srcs overlapping by more than 1e-9.
    The naive baseline does not merge its ROIs, so its srcs may overlap."""
    for slot in slots:
        x0, y0, x1, y1 = slot["src"]
        assert 0.0 <= x0 < x1 <= full and 0.0 <= y0 < y1 <= full, slot
        x0, y0, x1, y1 = slot["dst"]
        assert -1e-9 <= x0 < x1 <= reduced + 1e-9 and -1e-9 <= y0 < y1 <= reduced + 1e-9, slot
        assert not pad or slot["scale"] == [1.0, 1.0], slot
    for i, a in enumerate(slots if pad else []):
        for b in slots[i + 1:]:
            (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = a["src"], b["src"]
            assert not (min(ax1, bx1) - max(ax0, bx0) > 1e-9
                        and min(ay1, by1) - max(ay0, by0) > 1e-9), (a, b)


def assert_inputs_kept_and_no_temporaries(root: Path, ann: Path, text: str):
    assert ann.read_text() == text
    assert not [p for p in root.rglob("*") if p.name.endswith(".tmp")]


class TestEveryValidFileRuns:
    """Generated valid annotation files, with boxes down to 5e-324 wide and
    one ulp wide that stay or move from frame to frame, run to the end in
    every mode, with plans that fit, and are summarized by `stats` into
    means in [0, 1], at the default and at extreme frame sides."""

    @given(fuzz_run_case())
    @settings(max_examples=400, deadline=None)
    def test_run(self, case):
        text, flags = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            ann, out = root / "a.jsonl", root / "r.jsonl"
            ann.write_text(text)
            assert main(["run", str(ann), "--out", str(out), *flags]) == 0
            assert_inputs_kept_and_no_temporaries(root, ann, text)
            full, reduced, mode = float(flags[1]), float(flags[3]), flags[5]
            for line in out.read_text().splitlines():
                record = json.loads(line)
                if "plan" in record:
                    assert_plan_fits(record["plan"]["slots"], full, reduced, mode == "pad")
                for d in record["detections"]:
                    box = [d["x0"], d["y0"], d["x1"], d["y1"]]
                    assert all(math.isfinite(v) and 0.0 <= v <= 1.0 for v in box), box
                    assert box[0] <= box[2] and box[1] <= box[3], box

    @given(st.sampled_from(FUZZ_SIDES).flatmap(
        lambda sides: st.tuples(st.just(sides[0]), fuzz_annotations(float(sides[0])))))
    @settings(max_examples=200, deadline=None)
    def test_stats(self, case):
        full, text = case
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            ann = root / "a.jsonl"
            ann.write_text(text)
            out_dir = root / "s"
            assert main(["stats", str(ann), "--full-size", full, "--out-dir", str(out_dir)]) == 0
            assert_inputs_kept_and_no_temporaries(root, ann, text)
            summary = json.loads((out_dir / "stats_summary.json").read_text())
            for key in ("mean_occupancy", "mean_temporal_iou"):
                assert summary[key] is None or 0.0 <= summary[key] <= 1.0
