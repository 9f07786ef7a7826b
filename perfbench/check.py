"""Output checks for one `roipack run`: structure, plan invariants and quality.

`check_run` reads the annotation file a run consumed, the `results.jsonl` it
wrote and its `.summary.json`, and returns the list of problems found (empty
when the run is correct) together with the facts the benchmark reports:
decision counts, flop_reduction, mAP and the sha256 of both outputs.
"""

import hashlib
import json
from types import SimpleNamespace

# Geometry tolerance for plan bounds and src disjointness, in pixels.
EPS = 1e-9


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _read_jsonl(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _within(box, lo, hi) -> bool:
    x0, y0, x1, y1 = box
    return lo - EPS <= x0 <= x1 <= hi + EPS and lo - EPS <= y0 <= y1 <= hi + EPS


def _overlap(a, b) -> bool:
    return (
        min(a[2], b[2]) - max(a[0], b[0]) > EPS
        and min(a[3], b[3]) - max(a[1], b[1]) > EPS
    )


def _plan_problems(where: str, plan: dict, full: float, reduced: float, pad: bool) -> list:
    problems = []
    slots = plan.get("slots") or []
    if not slots:
        problems.append(f"{where}: packed plan has no slots")
    for k, slot in enumerate(slots):
        if not _within(slot["src"], 0.0, full):
            problems.append(f"{where}: slot {k} src {slot['src']} outside [0, {full}]")
        if not _within(slot["dst"], 0.0, reduced):
            problems.append(f"{where}: slot {k} dst {slot['dst']} outside [0, {reduced}]")
        if pad and slot["scale"] != [1.0, 1.0]:
            problems.append(f"{where}: slot {k} scale {slot['scale']} is not 1 in pad mode")
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            if _overlap(slots[i]["src"], slots[j]["src"]):
                problems.append(f"{where}: srcs of slots {i} and {j} overlap")
    return problems


def _detection_problems(where: str, detections: list) -> list:
    problems = []
    for det in detections:
        box = (det["x0"], det["y0"], det["x1"], det["y1"])
        if not _within(box, 0.0, 1.0):
            problems.append(f"{where}: detection {box} not normalized to [0, 1]")
        if not 0.0 <= det["confidence"] <= 1.0:
            problems.append(f"{where}: confidence {det['confidence']} outside [0, 1]")
    return problems


def check_run(annotations_path, results_path, summary_path, mode: str):
    """Return (problems, facts) for one finished run in the given --mode."""
    from roipack.costmodel import CostParams, DecisionKind, aggregate
    from roipack.geometry import FrameSpec

    annotations = _read_jsonl(annotations_path)
    records = _read_jsonl(results_path)
    with open(summary_path) as fh:
        summary = json.load(fh)
    config = summary["config"]
    full, reduced = config["full_size"], config["reduced_size"]
    problems = []

    expected = [(a["video"], a["frame"], len(a["objects"])) for a in annotations]
    got = [(r["video"], r["frame"], len(r["objects"])) for r in records]
    if got != expected:
        problems.append(
            f"results hold {len(got)} records that do not match the "
            f"{len(expected)} annotation frames in input order"
        )

    counts = {kind.value: 0 for kind in DecisionKind}
    detections = 0
    for r in records:
        where = f"{r['video']}/{r['frame']}"
        kind = r["decision"]
        if kind not in counts:
            problems.append(f"{where}: unknown decision {kind!r}")
            continue
        counts[kind] += 1
        if (kind == DecisionKind.PACKED.value) != ("plan" in r):
            problems.append(f"{where}: plan present iff decision is packed, got {kind}")
        if "plan" in r:
            problems += _plan_problems(where, r["plan"], full, reduced, mode == "pad")
        problems += _detection_problems(where, r["detections"])
        detections += len(r["detections"])
    if mode == "baseline" and counts[DecisionKind.ANCHOR.value] != len(records):
        problems.append("baseline mode processed a frame other than at full size")

    cost = summary["cost"]
    n = len(records)
    if cost["frames"] != n:
        problems.append(f"summary counts {cost['frames']} frames, results hold {n}")
    fractions = {k: c / n for k, c in counts.items()} if n else {}
    if cost["decision_fractions"] != fractions:
        problems.append(
            f"decision_fractions {cost['decision_fractions']} disagree with "
            f"record counts {counts}"
        )
    if n:
        params = CostParams.for_frames(
            FrameSpec(full),
            FrameSpec(reduced),
            pack_overhead=config["pack_overhead"],
            skip_cost=config["skip_cost"],
        )
        decisions = [SimpleNamespace(kind=DecisionKind(r["decision"])) for r in records
                     if r["decision"] in counts]
        recomputed = aggregate(decisions, params).flop_reduction
        if recomputed != cost["flop_reduction"]:
            problems.append(
                f"aggregate() over the records gives flop_reduction {recomputed}, "
                f"summary says {cost['flop_reduction']}"
            )
    evaluation = summary["evaluation"]
    if evaluation["num_detections"] != detections:
        problems.append(
            f"summary counts {evaluation['num_detections']} detections, "
            f"results hold {detections}"
        )
    mean_ap = evaluation["mAP"]
    if not isinstance(mean_ap, (int, float)) or not 0.0 <= mean_ap <= 1.0:
        problems.append(f"mAP {mean_ap!r} is not a number in [0, 1]")

    facts = {
        "frames": n,
        "decisions": counts,
        "detections": detections,
        "flop_reduction": cost["flop_reduction"],
        "modeled_speedup": cost["speedup"],
        "total_flops": cost["total_flops"],
        "baseline_flops": cost["baseline_flops"],
        "mAP": mean_ap,
        "results_sha256": sha256_file(results_path),
        "summary_sha256": sha256_file(summary_path),
    }
    return problems, facts
