"""Command line front end: generate data, run the pipeline, report stats.

`run` pulls one video at a time out of the annotation file: it parses the
video's lines, runs them, matches each frame's detections to its ground
truth as the frame's record is written, hands the records to the results
writer and drops the video, packing plans included. Of a frame it keeps
only its decision, which is one of four shared kind-only values, and, per
detection, a confidence and a hit flag in per-class columns
(`evaluation.Scores`), which are ranked once at the end. That needs the
videos one after another in name order; a file that breaks that order is
run again from the start, read whole.

Commands run with the cyclic garbage collector off: their data are acyclic
(frozen records, tuples, dicts) that reference counting frees, so full
collections would only re-walk a heap that grows with the input.
"""

import argparse
import gc
import math
import os
import sys
from contextlib import closing, suppress
from functools import reduce
from itertools import groupby
from operator import add, itemgetter
from pathlib import Path

from ._pcg64 import PCG64
from ._record import replace
from .costmodel import CostParams, aggregate
from .evaluation import Scores, evaluate_detections, match_frame
from .formats import (
    AnnotationError,
    iter_frames,
    read_annotations,
    result_record,
    temporary,
    write_annotations,
    write_json,
    write_jsonl,
)
from .geometry import FrameSpec
from .packing import MAX_FRAME_SIDE, pack, pack_naive
from .pipeline import PipelineConfig, run_video
from .simdet import NoiseModel, SimulatedDetector, SyntheticParams, gen_synthetic


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
_fraction = _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)")
_unit_interval = _number(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_frame_side = _number(float, lambda v: 0 < v <= MAX_FRAME_SIDE, f"in (0, {MAX_FRAME_SIDE:g}]")

MAX_BINS = 10_000  # `stats --bins`: each histogram holds bins + 1 edges
_bins = _number(int, lambda v: 1 <= v <= MAX_BINS, f"in [1, {MAX_BINS}]")


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
    gen.add_argument("--full-size", type=_frame_side, default=300.0)
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--out", required=True)

    run = sub.add_parser("run", help="run the pipeline over an annotation file")
    run.add_argument("annotations")
    run.add_argument("--anchor-interval", type=_positive_int, default=5)
    run.add_argument("--tau", type=_unit_interval, default=0.2)
    run.add_argument("--full-size", type=_frame_side, default=300.0)
    run.add_argument("--reduced-size", type=_frame_side, default=150.0)
    run.add_argument("--mode", choices=("pad", "naive", "baseline"), default="pad")
    run.add_argument("--pack-overhead", type=_nonnegative_float, default=0.02)
    run.add_argument("--skip-cost", type=_nonnegative_float, default=0.0)
    run.add_argument("--noise-profile", choices=("off", "default"), default="default")
    run.add_argument("--seed", type=_nonnegative_int, default=0)
    run.add_argument("--out", required=True)

    stats = sub.add_parser("stats", help="dataset occupancy and temporal overlap")
    stats.add_argument("annotations")
    stats.add_argument("--bins", type=_bins, default=20)
    stats.add_argument("--full-size", type=_frame_side, default=300.0)
    stats.add_argument("--out-dir", default=".")

    return parser


def _refuse_overwrite(option: str, paths, annotations=None, makes_dirs=False) -> None:
    """Raise, before anything is read or generated, if an output path cannot
    be written: its directory is missing (unless the command `makes_dirs`)
    or lies under a non-directory, or the path or the temporary name it is
    first written under is a directory or the input."""
    for path in paths:
        parent = Path(path).parent
        if makes_dirs:  # the nearest existing ancestor is where mkdir starts
            while not parent.exists() and parent != parent.parent:
                parent = parent.parent
        if not parent.is_dir():
            problem = "is not a directory" if parent.exists() else "does not exist"
            raise ValueError(f"{option}: {parent} {problem}")
        for target in (path, temporary(path)):
            if os.path.isdir(target):
                raise ValueError(f"{option} would write {target} over a directory")
            if annotations is None:
                continue
            with suppress(OSError):  # an output that does not exist yet is fine
                if os.path.samefile(target, annotations):
                    raise ValueError(f"{option} would write {target} over the annotations file")


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.max_objects < args.min_objects:
        raise ValueError("--max-objects must be >= --min-objects")
    if args.velocity_max < args.velocity_min:
        raise ValueError("--velocity-max must be >= --velocity-min")
    _refuse_overwrite(f"--out {args.out}", (args.out,))
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
    seeds = PCG64.from_key((args.seed,))
    total = 0

    def videos():
        # Each video is written while the next one is generated.
        nonlocal total
        for idx in range(args.videos):
            frames = gen_synthetic(replace(base, seed=seeds.next64()))
            total += len(frames)
            yield f"v{idx:04d}", frames

    write_annotations(args.out, videos(), frame_spec)
    print(f"wrote {total} frames across {args.videos} videos to {args.out}")
    return 0


class _Unordered(Exception):
    """An annotation file's videos are not one after another in name order."""


def _videos_in_name_order(reader):
    """`iter_frames` pairs grouped into (video, frames) pairs, one video at
    a time.

    Raises:
        _Unordered: when a video's name does not come after the one before.
    """
    last = None
    for name, pairs in groupby(reader, key=itemgetter(0)):
        if last is not None and name < last:
            raise _Unordered
        last = name
        yield name, [frame for _, frame in pairs]


def _cmd_run(args: argparse.Namespace) -> int:
    summary_path = str(Path(args.out).with_suffix("")) + ".summary.json"
    _refuse_overwrite(f"--out {args.out}", (args.out, summary_path), args.annotations)
    s1 = FrameSpec(args.full_size)
    s2 = FrameSpec(args.reduced_size)
    # Settings are checked before the annotations are read.
    anchor_interval = 1 if args.mode == "baseline" else args.anchor_interval
    config = PipelineConfig(anchor_interval=anchor_interval, tau=args.tau, s1=s1, s2=s2)
    cost_params = CostParams.for_frames(
        s1, s2, pack_overhead=args.pack_overhead, skip_cost=args.skip_cost
    )
    packer = pack_naive if args.mode == "naive" else pack
    noise = (
        NoiseModel.disabled(seed=args.seed)
        if args.noise_profile == "off"
        else NoiseModel(seed=args.seed)
    )

    def run_videos(videos):
        """Run, score and write each (name, frames) pair of `videos`, in
        the order given; return the video count, every frame's decision and
        the evaluation."""
        decisions = []
        scores = Scores()
        count = 0

        def video(name, frames):
            # The video's records, plans and detector are freed when this
            # generator ends, before the next video runs.
            detector = SimulatedDetector(frames, noise)
            run = run_video(len(frames), config, detector, cost_params, packer)
            for frame, rec in zip(frames, run.records):
                decisions.append(rec.decision)
                scores.add(match_frame(rec.detections, frame.objects))
                yield result_record(name, frame, rec, s1)

        def records():
            nonlocal count
            for name, frames in videos:
                count += 1
                yield from video(name, frames)
            if not count:
                raise ValueError(f"no frames in {args.annotations}")

        write_jsonl(args.out, records())
        return count, decisions, evaluate_detections(scores)

    # Videos run in name order and frames in id order, which is the frame
    # order scoring ranks by. A file whose videos come one after another in
    # that order runs as it is read, one video in memory at a time; any
    # other file is read whole and run again from the start.
    try:
        with closing(iter_frames(args.annotations, s1)) as reader:
            outcome = run_videos(_videos_in_name_order(reader))
    except _Unordered:
        outcome = None
    if outcome is None:  # out of the except clause, whose traceback holds the first attempt
        videos = read_annotations(args.annotations, s1)
        outcome = run_videos((name, videos.pop(name)) for name in sorted(videos))
    video_count, decisions, report = outcome
    cost = aggregate(decisions, cost_params)
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
        "videos": video_count,
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
    from .stats import histogram, occupancy_ratio, temporal_region_iou, write_histogram_csv

    out_dir = Path(args.out_dir)
    names = ("occupancy_hist.csv", "temporal_iou_hist.csv", "stats_summary.json")
    occ_path, iou_path, summary_path = outputs = [str(out_dir / name) for name in names]
    _refuse_overwrite(f"--out-dir {args.out_dir}", outputs, args.annotations, makes_dirs=True)
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
    out_dir.mkdir(parents=True, exist_ok=True)
    occ_hist = histogram(occupancies, args.bins)
    write_histogram_csv(occ_hist, occ_path)
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
        write_histogram_csv(iou_hist, iou_path)
    else:  # an older run's histogram would contradict this summary
        with suppress(FileNotFoundError):
            os.remove(iou_path)
    write_json(summary_path, summary)
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
