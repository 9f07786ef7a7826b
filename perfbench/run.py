"""roipack benchmark: timed `roipack run` processes, output-checked, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload road-pad --seed 7 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 50

For one workload the benchmark writes INPUTS annotation files with `roipack
gen` (setup_s is the median wall time of those processes), then launches
`python -m roipack run` over them in turn, one process at a time (closed loop,
one client), until --seconds have passed. Every run's outputs are checked (see
check.py). With --trace 1 it then runs `gen` and `run` of the first input once
more under tracer.py and derives the per-layer metrics from the spans.
`--workload all` does both for every workload and prints every metric.

Metric names and units come from BENCHMARK.json at the repository root. The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A fuller record (environment, quartiles, sample
counts, quality numbers, output hashes) goes to .bench_work/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from check import check_run, sha256_file

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SPEC_PATH = ROOT / "BENCHMARK.json"
PACKAGE = ROOT / "src" / "roipack"

# A workload runs over INPUTS annotation files generated from the seeds --seed,
# --seed + SEED_STRIDE, ...  Pooling files of independent seeds averages both
# the per-video scene mix and the detector noise, which is keyed by frame index
# and so shared by every video of one run; per-seed figures then vary far less.
INPUTS = 4
SEED_STRIDE = 100_003
MIN_ROUNDS = 2
IMPORT_PROBES = 3
QUALITY = ("flop_reduction", "modeled_speedup", "mAP", "decisions", "detections",
           "results_sha256", "summary_sha256")
# Each invocation of one workload must end within 180 s.
DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    gen_args: tuple
    mode: str


WORKLOADS = {
    "road-pad": Workload((), "pad"),
    "road-baseline": Workload((), "baseline"),
    "crowded-pad": Workload(
        ("--min-objects", "4", "--max-objects", "8", "--occupancy", "0.35"), "pad"
    ),
}


class BenchError(Exception):
    """The benchmark itself could not run to the end."""


class Deadline:
    def __init__(self, seconds: float):
        self._end = time.monotonic() + seconds

    def left(self) -> float:
        left = self._end - time.monotonic()
        if left <= 0:
            raise BenchError(f"did not finish within {DEADLINE_S:.0f} s")
        return left


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    # numpy's OpenBLAS pool costs start-up time and CPU; roipack does no BLAS work.
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


class Spawner:
    """Runs children through spawner.py, one at a time, and times them there."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list, env: dict, log: Path, deadline: Deadline):
        """Run one child to completion; return (exit code, wall s, peak RSS MB)."""
        request = {"argv": argv, "env": env, "cwd": str(ROOT), "log": str(log),
                   "timeout": deadline.left()}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise BenchError("the process launcher exited")
        reply = json.loads(reply)
        return reply["code"], reply["wall_s"], reply["rss_mb"]

    def close(self):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def summarize(values: list) -> dict:
    """Median, quartiles and count of a sample."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _median(values: list) -> dict:
    stats = summarize(values)
    return {"value": stats["median"], **stats}


def _percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered), max(1, math.ceil(q * len(ordered)))) - 1]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def span_groups(spans: list, groups: dict):
    """Add each span's (duration, self time, note) to groups[name]."""
    inner = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    for (name, start, end, _, note), covered in zip(spans, inner):
        groups.setdefault(name, []).append((end - start, end - start - covered, note))


def layer_metrics(groups: dict) -> dict:
    """Per-layer metrics from grouped spans: <module>.<function>.<stat> and ratios."""
    detect = groups.get("simdet.detect", [])
    groups = dict(groups)
    groups["simdet.detect_full"] = [c for c in detect if c[2] == "FullView"]
    groups["simdet.detect_reduced"] = [c for c in detect if c[2] == "ReducedView"]
    out = {}
    for name, calls in groups.items():
        durations = sorted(d for d, _, _ in calls)
        out[f"{name}.calls"] = len(calls)
        out[f"{name}.self_s"] = sum(s for _, s, _ in calls)
        out[f"{name}.us_per_call_p50"] = _percentile(durations, 0.50) * 1e6
        out[f"{name}.us_per_call_p99"] = _percentile(durations, 0.99) * 1e6
    pack = groups.get("packing.pack", [])
    placed = groups.get("packing.place_and_fit", [])
    mapped = groups.get("pipeline.map_back", [])
    out["packing.pack.success_ratio"] = _ratio(sum(1 for c in pack if c[2]), len(pack))
    out["packing.pack.failed_s"] = sum(d for d, _, ok in pack if not ok)
    out["packing.place_and_fit.fit_ratio"] = _ratio(
        sum(1 for c in placed if c[2]), len(placed)
    )
    out["packing.too_many_regions"] = len(pack) - len(placed)
    out["pipeline.map_back.kept_ratio"] = _ratio(
        sum(c[2][1] for c in mapped), sum(c[2][0] for c in mapped)
    )
    return out


def cross_checks(layers: dict, facts: dict) -> dict:
    """Trace call counts that must equal counts derived from the results."""
    d = facts["decisions"]
    expected = {
        "packing.pack.calls": d["packed"] + d["fallback_full"],
        "packing.expand_greedy.calls": d["packed"],
        "simdet.detect.calls": facts["frames"] - d["skipped"],
    }
    return {
        name: {"trace": layers.get(name, 0), "results": want}
        for name, want in expected.items()
    }


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "OPENBLAS_NUM_THREADS": child_env()["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


class RunChecker:
    """Checks each run's outputs; a run whose bytes match a checked run passes."""

    def __init__(self, annotations: Path, mode: str):
        self.annotations = annotations
        self.mode = mode
        self.facts = None

    def __call__(self, results: Path, summary: Path) -> list:
        if self.facts is None:
            try:
                problems, facts = check_run(self.annotations, results, summary, self.mode)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                return [f"unreadable output: {exc!r}"]
            if not problems:
                self.facts = facts
            return problems
        try:
            hashes = (sha256_file(results), sha256_file(summary))
        except OSError as exc:
            return [f"unreadable output: {exc!r}"]
        if hashes != (self.facts["results_sha256"], self.facts["summary_sha256"]):
            return ["outputs differ from the first checked run of the same input"]
        return []


def bench_workload(name: str, args, trace: bool, env_block: dict, spawner) -> dict:
    workload = WORKLOADS[name]
    deadline = Deadline(DEADLINE_S)
    work = ROOT / ".bench_work" / f"{name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench_in(work, workload, name, args, trace, env_block, deadline, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)


@dataclass
class Input:
    """One generated annotation file of a workload, and its checked runs."""

    index: int
    seed: str
    gen_args: list
    run_args: list
    frames: int
    sha256: str
    check: RunChecker
    walls: list = field(default_factory=list)


def _bench_in(work, workload, name, args, trace, env_block, deadline, spawner) -> dict:
    env = child_env()
    log = work / "stderr.log"
    py = sys.executable
    rel = work.relative_to(ROOT)
    results, summary = rel / "results.jsonl", rel / "results.summary.json"

    def run_child(argv):
        return spawner.run(argv, env, log, deadline)

    def fail(message):
        tail = log.read_text(errors="replace")[-2000:] if log.exists() else ""
        raise BenchError(f"{name}: {message}\n{tail}")

    # Compile bytecode first so that no timed process pays for it.
    if run_child([py, "-c", "import roipack.cli"])[0] != 0:
        fail("cannot import roipack.cli")

    inputs, setup = [], []
    for index in range(INPUTS):
        seed = str(args.seed + index * SEED_STRIDE)
        annotations = rel / f"annotations-{index}.jsonl"
        gen_args = ["gen", "--videos", str(args.videos), "--frames", str(args.frames),
                    "--seed", seed, *workload.gen_args]
        code, wall, _ = run_child([py, "-m", "roipack", *gen_args, "--out", str(annotations)])
        if code != 0:
            fail(f"roipack gen exited {code}")
        setup.append(wall)
        with open(annotations) as fh:
            frames = sum(1 for line in fh if line.strip())
        run_args = ["run", str(annotations), "--mode", workload.mode, "--seed", seed]
        inputs.append(Input(index, seed, gen_args, run_args, frames,
                            sha256_file(annotations), RunChecker(annotations, workload.mode)))

    runs, problems = [], []
    start = time.perf_counter()
    while len(runs) < MIN_ROUNDS * INPUTS or time.perf_counter() - start < args.seconds:
        item = inputs[len(runs) % INPUTS]
        for path in (results, summary):
            path.unlink(missing_ok=True)
        code, wall, rss = run_child([py, "-m", "roipack", *item.run_args, "--out", str(results)])
        found = [f"exit code {code}"] if code != 0 else item.check(results, summary)
        runs.append({"input": item.index, "wall_s": wall, "peak_rss_mb": rss, "ok": not found})
        problems += [f"run {len(runs)} (input {item.index}): {p}" for p in found[:5]]
        if not found:
            item.walls.append(wall)

    failed = sum(not r["ok"] for r in runs)
    ok = [r for r in runs if r["ok"]] or runs
    facts = [item.check.facts for item in inputs]
    complete = all(facts) and all(item.walls for item in inputs)
    total_frames = sum(item.frames for item in inputs)
    if complete:
        flops = sum(f["total_flops"] for f in facts)
        speedup = sum(f["baseline_flops"] for f in facts) / flops if flops else math.inf
        mean_ap = statistics.fmean(f["mAP"] for f in facts)
    else:
        speedup = mean_ap = 0.0
    e2e = {
        # Closed-loop throughput: frames processed over the summed wall time of
        # the processes that processed them.
        "frames_per_s": {
            "value": _ratio(sum(inputs[r["input"]].frames for r in ok),
                            sum(r["wall_s"] for r in ok)),
            **summarize([inputs[r["input"]].frames / r["wall_s"] for r in ok]),
        },
        "setup_s": _median(setup),
        "modeled_speedup": _median([speedup]),
        "mAP": _median([mean_ap]),
        "peak_rss_mb": _median([r["peak_rss_mb"] for r in ok]),
        "run_ok_frac": _median([_ratio(len(runs) - failed, len(runs))]),
    }
    record = {
        "workload": name,
        "mode": workload.mode,
        "environment": env_block,
        "frames": total_frames,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": _ratio(failed, len(runs)),
        "inputs": [
            {"seed": item.seed, "gen_args": item.gen_args, "frames": item.frames,
             "annotations_sha256": item.sha256, "runs": len(item.walls),
             "quality": item.check.facts and {k: item.check.facts[k] for k in QUALITY}}
            for item in inputs
        ],
        "end_to_end": e2e,
        "runs": runs,
        "problems": problems,
    }
    if trace and complete:
        record["trace"] = _traced(work, rel, py, run_child, inputs[0], problems)
    record["correct"] = not problems and complete
    return record


def _traced(work, rel, py, run_child, item, problems):
    """Trace `gen` and `run` of one input; per-layer metrics and cross-checks."""
    tracer = str(HERE / "tracer.py")
    imports = [run_child([py, "-c", "import roipack.cli"])[1] for _ in range(IMPORT_PROBES)]

    groups, untraced = {}, set()
    traced_ann = rel / "traced-annotations.jsonl"
    traced_out = rel / "traced.jsonl"
    traced_summary = rel / "traced.summary.json"
    for label, argv in (
        ("gen", [*item.gen_args, "--out", str(traced_ann)]),
        ("run", [*item.run_args, "--out", str(traced_out)]),
    ):
        spans_path = work / f"{label}-spans.json"
        code, wall, _ = run_child([py, tracer, str(spans_path), *argv])
        if code != 0:
            problems.append(f"traced {label} exited {code}")
            return {}
        with open(spans_path) as fh:
            dump = json.load(fh)
        span_groups(dump["spans"], groups)
        untraced.update(dump["untraced"])
        if label == "run":
            traced_wall = wall
    facts = item.check.facts
    if sha256_file(traced_ann) != item.sha256:
        problems.append("traced gen wrote a different annotation file")
    for path, key in ((traced_out, "results_sha256"), (traced_summary, "summary_sha256")):
        if sha256_file(path) != facts[key]:
            problems.append(f"traced run's {path.name} differs from the untraced runs'")

    layers = layer_metrics(groups)
    layers["process.import_s"] = statistics.median(imports)
    layers["trace.overhead_s"] = traced_wall - statistics.median(item.walls)
    checks = cross_checks(layers, facts)
    for metric, pair in checks.items():
        layer = metric.rsplit(".", 1)[0]
        if layer not in untraced and pair["trace"] != pair["results"]:
            problems.append(
                f"trace cross-check {metric}: {pair['trace']} spans, "
                f"{pair['results']} from the results"
            )
    return {
        "input": item.index,
        "traced_run_wall_s": traced_wall,
        "untraced": sorted(untraced),
        "cross_checks": checks,
        "layers": layers,
    }


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def select(record: dict, spec: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json names for this mode, as {name: {value, unit}}."""
    if trace:
        layers = record.get("trace", {}).get("layers", {})
        return {
            m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    return {
        m["name"]: {"value": record["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
        for m in spec["end_to_end"]
    }


def report(record: dict, spec: dict, trace: bool):
    """Human-readable lines for one workload."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {record['workload']} (mode {record['mode']}, {record['frames']} frames, "
          f"seed {record['environment']['seed']}, {record['attempted']} runs, "
          f"failed_frac {record['failed_frac']:.4f})")
    for name, s in record["end_to_end"].items():
        print(f"  {name:<16} {s['value']:>11.4f} {units.get(name, ''):<9} median "
              f"{s['median']:.4f}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n={s['n']}")
    for item in record["inputs"]:
        quality = item["quality"]
        if quality:
            print(f"  input seed {item['seed']}: flop_reduction "
                  f"{quality['flop_reduction']:.4f}  mAP {quality['mAP']:.4f}  "
                  f"decisions {quality['decisions']}")
            print(f"    results.jsonl sha256 {quality['results_sha256']}")
    if trace and record.get("trace"):
        t = record["trace"]
        for name, value in sorted(select(record, spec, True).items()):
            print(f"  {name:<42} {value['value']:>14.4f} {value['unit']}")
        print(f"  tracing overhead {t['layers']['trace.overhead_s']:.4f} s "
              f"(traced run {t['traced_run_wall_s']:.4f} s)")
        if t["untraced"]:
            print(f"  warning: not traced (target missing): {', '.join(t['untraced'])}")
    for line in record["problems"][:20]:
        print(f"  PROBLEM {line}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--videos", type=int, default=250)
    parser.add_argument("--frames", type=int, default=20)
    parser.add_argument("--bench-out", help="also write all records to this JSON file")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "cli.py").is_file() or not SPEC_PATH.is_file():
        print(f"error: run from a roipack checkout ({PACKAGE} or {SPEC_PATH} missing)",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(PACKAGE.parent))
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace) or args.workload == "all"
    env_block = environment(args.seed)
    spawner = Spawner()
    try:
        records = [bench_workload(name, args, trace, env_block, spawner) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        spawner.close()

    out_dir = ROOT / ".bench_work" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    for record in records:
        report(record, spec, trace)
        path = out_dir / f"{record['workload']}-seed{args.seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
    if args.bench_out:
        Path(args.bench_out).write_text(json.dumps(records, indent=1) + "\n")

    if args.workload == "all":
        metrics = {
            f"{r['workload']}/{k}": v
            for r in records for part in (False, True) for k, v in select(r, spec, part).items()
        }
    else:
        metrics = select(records[0], spec, trace)
    correct = all(r["correct"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
