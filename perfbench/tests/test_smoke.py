"""Smoke test of the benchmark at a tiny size; asserts nothing about timings.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
BENCH = REPO / "perfbench"
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
from check import check_run  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
TINY = ["--seed", "3", "--seconds", "0.1", "--videos", "3", "--frames", "20"]


def bench(*args, cwd=REPO):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return done.returncode, done.stdout.splitlines()


def names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_spec_lists_the_workloads_the_benchmark_runs():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_all_workloads_report_every_metric_and_pass_the_output_check():
    code, lines = bench("--workload", "all", *TINY)
    result = json.loads(lines[-1])
    assert code == 0, lines[-20:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3 * run.MIN_ROUNDS * run.INPUTS
    expected = {
        f"{w}/{m}" for w in run.WORKLOADS for m in names("end_to_end") | names("per_layer")
    }
    assert set(result["metrics"]) == expected
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for key, metric in result["metrics"].items():
        assert metric["unit"] == units[key.split("/", 1)[1]]
    for workload in run.WORKLOADS:
        record = json.loads(
            (REPO / ".bench_work" / "results" / f"{workload}-seed3-trace1.json").read_text()
        )
        for name, pair in record["trace"]["cross_checks"].items():
            assert pair["trace"] == pair["results"], (workload, name)
        assert record["trace"]["untraced"] == []
        assert set(record["environment"]) >= {
            "python", "numpy", "nproc", "git_commit", "loadavg_start", "seed",
            "OPENBLAS_NUM_THREADS",
        }


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_prints_exactly_the_metrics_of_its_mode(trace, kind):
    code, lines = bench("--workload", "crowded-pad", "--trace", str(trace), *TINY)
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == names(kind)
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = bench("--workload", "road-pad", *TINY, cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_self_time_subtracts_children():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["b", 5.0, 6.0, 0, None],
    ]
    groups = {}
    run.span_groups(spans, groups)
    layers = run.layer_metrics(groups)
    assert layers["a.self_s"] == 6.0
    assert layers["b.calls"] == 2 and layers["b.self_s"] == 3.0
    assert layers["c.us_per_call_p50"] == 1e6


def test_output_check_catches_broken_results(tmp_path):
    ann = tmp_path / "a.jsonl"
    out = tmp_path / "r.jsonl"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), OPENBLAS_NUM_THREADS="1")
    for argv in (
        ["gen", "--videos", "2", "--frames", "15", "--seed", "1", "--out", str(ann)],
        ["run", str(ann), "--seed", "1", "--out", str(out)],
    ):
        subprocess.run([sys.executable, "-m", "roipack", *argv], env=env, check=True,
                       capture_output=True, timeout=60)
    summary = tmp_path / "r.summary.json"
    problems, facts = check_run(ann, out, summary, "pad")
    assert problems == [] and facts["frames"] == 30

    records = [json.loads(line) for line in out.read_text().splitlines()]
    packed = next(r for r in records if r["decision"] == "packed")
    packed["plan"]["slots"][0]["dst"][2] = 151.0
    with_det = next(r for r in records if r["detections"])
    with_det["detections"][0]["x1"] = 1.5
    out.write_text("".join(json.dumps(r) + "\n" for r in records[:-1]))
    problems, _ = check_run(ann, out, summary, "pad")
    text = "\n".join(problems)
    assert "outside [0, 150.0]" in text
    assert "not normalized" in text
    assert "do not match" in text
    assert "summary counts" in text
