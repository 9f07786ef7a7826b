"""Command line front end: generate data, run the pipeline, report stats.

`run` streams each video's result records into the results file as soon as
the video has run, keeps only what scoring needs, and scores all classes in
one pass. Commands run with the cyclic garbage collector off: their data are
acyclic (frozen dataclasses, tuples, dicts) that reference counting frees,
so full collections would only re-walk a heap that grows with the input.
"""

import argparse
import gc
import math
import os
import sys
from dataclasses import replace
from functools import reduce
from operator import add
from pathlib import Path

import numpy as np

from .costmodel import CostParams, aggregate
from .evaluation import EvalReport, evaluate_detections
from .formats import (
    AnnotationError,
    read_annotations,
    result_record,
    write_annotations,
    write_json,
    write_jsonl,
)
from .geometry import FrameSpec
from .packing import pack, pack_naive
from .pipeline import PipelineConfig, run_video
from .simdet import NoiseModel, SimulatedDetector, SyntheticParams, gen_synthetic
from .stats import histogram, occupancy_ratio, temporal_region_iou, write_histogram_csv


def _number(cast, ok, rule: str):
    """An argparse type: `cast` text to a finite value that passes `ok`."""

    def parse(text: str):
        value = cast(text)
        if not (-math.inf < value < math.inf and ok(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    # argparse names the type in its "invalid <name> value" message.
    parse.__name__ = cast.__name__
    return parse


_positive_int = _number(int, lambda v: v >= 1, ">= 1")
_nonnegative_int = _number(int, lambda v: v >= 0, ">= 0")
_nonnegative_float = _number(float, lambda v: v >= 0, "finite and >= 0")
_positive_float = _number(float, lambda v: v > 0, "finite and > 0")
_fraction = _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_unit_interval = _number(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="roipack",
        description="Pack prior-frame regions of interest into a reduced "
        "frame to cut video object-detection compute.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic annotation dataset")
    gen.add_argument("--videos", type=_positive_int, default=10)
    gen.add_argument("--frames", type=_positive_int, default=100)
    gen.add_argument("--occupancy", type=_fraction, default=0.227,
                     help="mean union occupancy across videos")
    gen.add_argument("--min-objects", type=_positive_int, default=1)
    gen.add_argument("--max-objects", type=_positive_int, default=4)
    gen.add_argument("--velocity-min", type=_nonnegative_float, default=0.3)
    gen.add_argument("--velocity-max", type=_nonnegative_float, default=1.5)
    gen.add_argument("--jitter", type=_nonnegative_float, default=0.2)
    gen.add_argument("--classes", type=_positive_int, default=3)
    gen.add_argument("--full-size", type=_positive_float, default=300.0)
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run the pipeline over an annotation file")
    run.add_argument("annotations")
    run.add_argument("--anchor-interval", type=_positive_int, default=5)
    run.add_argument("--tau", type=_unit_interval, default=0.2)
    run.add_argument("--full-size", type=_positive_float, default=300.0)
    run.add_argument("--reduced-size", type=_positive_float, default=150.0)
    run.add_argument("--mode", choices=("pad", "naive", "baseline"), default="pad")
    run.add_argument("--pack-overhead", type=_nonnegative_float, default=0.02)
    run.add_argument("--skip-cost", type=_nonnegative_float, default=0.0)
    run.add_argument("--noise-profile", choices=("off", "default"), default="default")
    run.add_argument("--seed", type=_nonnegative_int, default=0)
    run.add_argument("--out", required=True)

    stats = sub.add_parser("stats", help="dataset occupancy and temporal overlap")
    stats.add_argument("annotations")
    stats.add_argument("--bins", type=_positive_int, default=20)
    stats.add_argument("--full-size", type=_positive_float, default=300.0)
    stats.add_argument("--out-dir", default=".")

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.max_objects < args.min_objects:
        raise ValueError("--max-objects must be >= --min-objects")
    if args.velocity_max < args.velocity_min:
        raise ValueError("--velocity-max must be >= --velocity-min")
    frame_spec = FrameSpec(args.full_size)
    base = SyntheticParams(
        num_objects=(args.min_objects, args.max_objects),
        occupancy_target=args.occupancy,
        velocity=(args.velocity_min, args.velocity_max),
        jitter_sigma=args.jitter,
        frames=args.frames,
        seed=0,
        frame=frame_spec,
        num_classes=args.classes,
    )
    video_seeds = np.random.SeedSequence(args.seed).generate_state(args.videos)
    videos = {
        f"v{idx:04d}": gen_synthetic(replace(base, seed=int(seed)))
        for idx, seed in enumerate(video_seeds)
    }
    write_annotations(args.out, videos, frame_spec)
    total = sum(len(frames) for frames in videos.values())
    print(f"wrote {total} frames across {len(videos)} videos to {args.out}")
    return 0


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:
        return False


def _cmd_run(args: argparse.Namespace) -> int:
    summary_path = str(Path(args.out).with_suffix("")) + ".summary.json"
    for path in (args.out, summary_path):
        if _same_file(path, args.annotations):
            raise ValueError(
                f"--out {args.out} would write {path} over the annotations file"
            )
    s1 = FrameSpec(args.full_size)
    s2 = FrameSpec(args.reduced_size)
    videos = read_annotations(args.annotations, s1)
    if not videos:
        raise ValueError(f"no frames in {args.annotations}")
    anchor_interval = 1 if args.mode == "baseline" else args.anchor_interval
    config = PipelineConfig(anchor_interval=anchor_interval, tau=args.tau, s1=s1, s2=s2)
    packer = pack_naive if args.mode == "naive" else pack
    noise = (
        NoiseModel.disabled(seed=args.seed)
        if args.noise_profile == "off"
        else NoiseModel(seed=args.seed)
    )
    cost_params = CostParams.for_frames(
        s1, s2, pack_overhead=args.pack_overhead, skip_cost=args.skip_cost
    )

    decisions = []
    det_pairs = []
    gt_pairs = []

    def records():
        for name in sorted(videos):
            frames = videos[name]
            detector = SimulatedDetector(frames, noise)
            run = run_video(len(frames), config, detector, cost_params, packer)
            for frame, rec in zip(frames, run.records):
                decisions.append(rec.decision)
                key = (name, frame.frame_id)
                det_pairs.extend((key, det) for det in rec.detections)
                gt_pairs.extend((key, obj) for obj in frame.objects)
                yield result_record(name, frame, rec.decision, rec.detections, s1)

    write_jsonl(args.out, records())
    cost = aggregate(decisions, cost_params)
    if gt_pairs:
        report = evaluate_detections(det_pairs, gt_pairs)
    else:
        # No object annotated anywhere: every AP, and so mAP, is undefined.
        report = EvalReport(
            per_class={},
            mean_ap=None,
            num_detections=len(det_pairs),
            num_ground_truth=0,
        )
    summary = {
        "annotations": args.annotations,
        "mode": args.mode,
        "noise_profile": args.noise_profile,
        "seed": args.seed,
        "config": {
            "anchor_interval": config.anchor_interval,
            "tau": config.tau,
            "full_size": s1.side,
            "reduced_size": s2.side,
            "pack_overhead": args.pack_overhead,
            "skip_cost": args.skip_cost,
        },
        "videos": len(videos),
        "cost": cost.to_json_dict(),
        "evaluation": report.to_json_dict(),
    }
    write_json(summary_path, summary)
    mean_ap = "n/a" if report.mean_ap is None else f"{report.mean_ap:.4f}"
    print(
        f"processed {len(decisions)} frames ({args.mode}): "
        f"flop_reduction={cost.flop_reduction:.4f} mAP={mean_ap}"
    )
    print(f"results: {args.out}")
    print(f"summary: {summary_path}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    frame_spec = FrameSpec(args.full_size)
    videos = read_annotations(args.annotations, frame_spec)
    if not videos:
        raise ValueError(f"no frames in {args.annotations}")
    occupancies = []
    overlaps = []
    for name in sorted(videos):
        frames = videos[name]
        occupancies.extend(occupancy_ratio(f, frame_spec) for f in frames)
        overlaps.extend(
            temporal_region_iou(a, b, frame_spec) for a, b in zip(frames, frames[1:])
        )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    occ_hist = histogram(occupancies, args.bins)
    write_histogram_csv(occ_hist, str(out_dir / "occupancy_hist.csv"))
    summary = {
        "annotations": args.annotations,
        "videos": len(videos),
        "frames": len(occupancies),
        # Folds left to right, not sum(), whose floats are compensated (and
        # so round differently) from Python 3.12 on.
        "mean_occupancy": reduce(add, occupancies, 0.0) / len(occupancies),
        "frame_pairs": len(overlaps),
        "mean_temporal_iou": reduce(add, overlaps, 0.0) / len(overlaps) if overlaps else None,
    }
    if overlaps:
        iou_hist = histogram(overlaps, args.bins)
        write_histogram_csv(iou_hist, str(out_dir / "temporal_iou_hist.csv"))
    write_json(str(out_dir / "stats_summary.json"), summary)
    print(
        f"{summary['frames']} frames, mean occupancy "
        f"{summary['mean_occupancy']:.4f}, mean temporal iou "
        + (
            f"{summary['mean_temporal_iou']:.4f}"
            if summary["mean_temporal_iou"] is not None
            else "n/a"
        )
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"gen": _cmd_gen, "run": _cmd_run, "stats": _cmd_stats}
    # The cyclic collector is off for the command (see the module docstring)
    # and back in the caller's state afterwards, however the command ends.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args)
    except (AnnotationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
