import gc
import json
import math

import pytest

from roipack import cli
from roipack.cli import main
from roipack.formats import read_annotations
from roipack.geometry import FrameSpec
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

    def test_unparsable_value_names_its_type(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "x.jsonl", "--seed", "seven", "--out", "y.jsonl"])
        assert err.value.code == 2
        assert "invalid int value: 'seven'" in capsys.readouterr().err


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
        # summary keeps the left-to-right fold.
        ann = gen(tmp_path, videos="3", frames="5", seed="0")
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

    def test_single_frame_dataset_has_no_pairs(self, tmp_path):
        ann = tmp_path / "one.jsonl"
        ann.write_text(f'{{"video": "v", "frame": 0, "objects": [{OCC_HALF}]}}\n')
        out_dir = tmp_path / "stats"
        assert main(["stats", str(ann), "--out-dir", str(out_dir)]) == 0
        summary = json.loads((out_dir / "stats_summary.json").read_text())
        assert summary["mean_temporal_iou"] is None
        assert not (out_dir / "temporal_iou_hist.csv").exists()
