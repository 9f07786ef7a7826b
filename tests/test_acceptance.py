"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a `[PASS]`/`[FAIL]` line; run with

    pytest tests/test_acceptance.py -v -s

to see the lines as the suite executes (without -s pytest shows them only
for failing tests).
"""

import math

import numpy as np
import pytest

from oracles import (
    brute_components,
    match,
    matched_frames,
    raster_region_iou,
    raster_union_area,
    reference_ap,
)
from roipack.costmodel import CostParams, DecisionKind, aggregate, frame_cost
from roipack.evaluation import Scores, evaluate_detections
from roipack.geometry import FrameSpec, Rect, union_area
from roipack.packing import connected_components, pack, pack_naive
from roipack.pipeline import Detection, FrameDecision, PipelineConfig, map_back, run_video
from roipack.simdet import (
    GroundTruthFrame,
    GtObject,
    NoiseModel,
    SimulatedDetector,
    SyntheticParams,
    gen_synthetic,
)
from roipack.stats import occupancy_ratio, temporal_region_iou

S1 = FrameSpec(300.0)
S2 = FrameSpec(150.0)
CFG = PipelineConfig()


def criterion(num: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {num}: {description}")
    if failures:
        pytest.fail(
            f"criterion {num} ({description}); first failures: {failures[:5]}",
            pytrace=False,
        )


def random_rois(rng, n, lo=4.0, hi=160.0):
    out = []
    for _ in range(n):
        w = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        h = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
        x = float(rng.uniform(0.0, 300.0 - w))
        y = float(rng.uniform(0.0, 300.0 - h))
        out.append(Rect(x, y, x + w, y + h))
    return out


def strictly_overlap(a: Rect, b: Rect) -> bool:
    return a.x_min < b.x_max and b.x_min < a.x_max and a.y_min < b.y_max and b.y_min < a.y_max


def test_criterion_1_reduced_frame_cost_is_a_quarter():
    failures = []
    anchor, packed = FrameDecision.anchor(), FrameDecision.packed()
    for params in (CostParams(pack_overhead=0.0),
                   CostParams.for_frames(S1, S2, pack_overhead=0.0)):
        ratio = frame_cost(packed, params) / frame_cost(anchor, params)
        if ratio != 0.25:
            failures.append(f"ratio {ratio!r} with {params}")
    criterion(1, "half-size frame costs exactly 0.25 of full size (no overhead)", failures)


def test_criterion_2_plan_invariants_hold_under_fuzz():
    rng = np.random.default_rng(20240817)
    failures = []
    packed = 0
    for case in range(10_000):
        boxes = random_rois(rng, int(rng.integers(1, 9)))
        plan = pack(boxes, S1, S2)
        if plan is None:
            continue
        packed += 1
        slots = plan.slots
        for s in slots:
            if s.scale_x != 1.0 or s.scale_y != 1.0:
                failures.append(f"case {case}: scale ({s.scale_x}, {s.scale_y})")
            if not S1.bounds.contains(s.src):
                failures.append(f"case {case}: src outside source frame: {s.src}")
            d = s.dst
            if d.x_min < 0 or d.y_min < 0 or d.x_max > 150.0 + 1e-9 or d.y_max > 150.0 + 1e-9:
                failures.append(f"case {case}: dst outside dest frame: {d}")
        for i, a in enumerate(slots):
            for b in slots[i + 1:]:
                if strictly_overlap(a.src, b.src):
                    failures.append(f"case {case}: src overlap {a.src} vs {b.src}")
                if strictly_overlap(a.dst, b.dst):
                    failures.append(f"case {case}: dst overlap {a.dst} vs {b.dst}")
        for box in boxes:
            owners = sum(1 for s in slots if s.src.contains(box))
            if owners != 1:
                failures.append(f"case {case}: roi {box} inside {owners} slots")
        if len(failures) > 20:
            break
    if packed < 1500:
        failures.append(f"only {packed} of 10000 roi sets packed; fuzz too weak")
    criterion(2, f"plan invariants over 10000 random roi sets ({packed} packed)", failures)


def test_criterion_3_geometry_matches_independent_oracles():
    failures = []
    rng = np.random.default_rng(303)
    for case in range(1000):
        boxes = random_rois(rng, int(rng.integers(1, 13)), lo=8.0, hi=200.0)
        if connected_components(boxes) != brute_components(boxes):
            failures.append(f"components case {case}")
    for case in range(500):
        rects, shifted = [], []
        for _ in range(int(rng.integers(1, 9))):
            w, h = rng.uniform(30, 140, 2)
            x = float(rng.uniform(0, 300 - w))
            y = float(rng.uniform(0, 300 - h))
            rects.append(Rect(x, y, x + w, y + h))
            dx, dy = rng.uniform(-10, 10, 2)
            dx = min(max(dx, -x), 300 - (x + w))
            dy = min(max(dy, -y), 300 - (y + h))
            shifted.append(Rect(x + dx, y + dy, x + w + dx, y + h + dy))
        area = union_area(rects)
        approx = raster_union_area(rects, resolution=1000)
        if abs(area - approx) > 0.01 * approx:
            failures.append(f"union case {case}: {area} vs raster {approx}")
        a = GroundTruthFrame(0, tuple(GtObject(0, r) for r in rects))
        b = GroundTruthFrame(1, tuple(GtObject(0, r) for r in shifted))
        got = temporal_region_iou(a, b, S1)
        want = raster_region_iou(rects, shifted, 300.0, resolution=1000)
        if abs(got - want) > 0.01 * max(want, 1e-9):
            failures.append(f"temporal case {case}: {got} vs raster {want}")
    criterion(3, "sweep geometry agrees with rasterized oracles within 1%", failures)


def test_criterion_4_coordinate_round_trip():
    rng = np.random.default_rng(44)
    failures = []
    plans = 0
    while plans < 1000:
        boxes = random_rois(rng, int(rng.integers(1, 5)))
        plan = pack(boxes, S1, S2)
        if plan is None:
            continue
        plans += 1
        slot = plan.slots[int(rng.integers(len(plan.slots)))]
        src = slot.src
        w = float(rng.uniform(0.25, src.width))
        h = float(rng.uniform(0.25, src.height))
        x = float(rng.uniform(src.x_min, src.x_max - w))
        y = float(rng.uniform(src.y_min, src.y_max - h))
        rect = Rect(x, y, x + w, y + h)
        forward = slot.to_dest(rect)
        (back,) = map_back([Detection(forward, 0, 0.9)], plan)
        deviation = max(
            abs(back.rect.x_min - rect.x_min),
            abs(back.rect.y_min - rect.y_min),
            abs(back.rect.x_max - rect.x_max),
            abs(back.rect.y_max - rect.y_max),
        )
        if deviation > 1e-9:
            failures.append(f"plan {plans}: deviation {deviation}")
    criterion(4, "map to reduced frame and back within 1e-9 on 1000 plans", failures)


def test_criterion_5_static_noise_free_run_is_lossless():
    failures = []
    matches_pad, matches_base = [], []
    seeds = np.random.SeedSequence(5).generate_state(20)
    for vid, seed in enumerate(seeds):
        params = SyntheticParams(
            frames=30, seed=int(seed), velocity=(0.0, 0.0), jitter_sigma=0.0
        )
        frames = gen_synthetic(params)
        detector = SimulatedDetector(frames, NoiseModel.disabled())
        pad = run_video(len(frames), CFG, detector)
        base = run_video(len(frames), PipelineConfig(anchor_interval=1), detector)
        for frame, rec_p, rec_b in zip(frames, pad.records, base.records):
            key = (vid, frame.frame_id)
            matches_pad.append(match(rec_p.detections, frame.objects))
            matches_base.append(match(rec_b.detections, frame.objects))
            if len(rec_p.detections) != len(rec_b.detections):
                failures.append(f"{key}: {len(rec_p.detections)} vs {len(rec_b.detections)}")
                continue
            for dp, db in zip(rec_p.detections, rec_b.detections):
                if dp.class_id != db.class_id or dp.confidence != db.confidence:
                    failures.append(f"{key}: class/confidence mismatch")
                coord_dev = max(
                    abs(dp.rect.x_min - db.rect.x_min),
                    abs(dp.rect.y_min - db.rect.y_min),
                    abs(dp.rect.x_max - db.rect.x_max),
                    abs(dp.rect.y_max - db.rect.y_max),
                )
                if coord_dev > 1e-9:
                    failures.append(f"{key}: coordinate deviation {coord_dev}")
    map_pad = evaluate_detections(Scores(matches_pad)).mean_ap
    map_base = evaluate_detections(Scores(matches_base)).mean_ap
    if map_pad - map_base != 0.0:
        failures.append(f"mAP difference {map_pad - map_base!r}")
    criterion(5, "static scenes, noise off: packed run matches full-size run", failures)


def test_criterion_6_default_pipeline_efficiency_band():
    failures = []
    seeds = np.random.SeedSequence(11).generate_state(200)
    videos = [
        gen_synthetic(SyntheticParams(frames=100, seed=int(s))) for s in seeds
    ]

    occupancies, overlaps = [], []
    for frames in videos:
        occupancies.extend(occupancy_ratio(f, S1) for f in frames)
        overlaps.extend(
            temporal_region_iou(a, b, S1) for a, b in zip(frames, frames[1:])
        )
    occ_mean = float(np.mean(occupancies))
    tiou_mean = float(np.mean(overlaps))
    if not 0.227 - 0.03 <= occ_mean <= 0.227 + 0.03:
        failures.append(f"mean occupancy {occ_mean:.4f} outside 0.227 +/- 0.03")
    if tiou_mean < 0.90:
        failures.append(f"mean temporal iou {tiou_mean:.4f} < 0.90")

    noise = NoiseModel(seed=11)
    decisions = []
    inter_total = inter_cheap = 0
    for frames in videos:
        run = run_video(len(frames), CFG, SimulatedDetector(frames, noise))
        for rec in run.records:
            decisions.append(rec.decision)
            if rec.index % CFG.anchor_interval != 0:
                inter_total += 1
                if rec.decision.kind in (DecisionKind.PACKED, DecisionKind.SKIPPED):
                    inter_cheap += 1
    report = aggregate(decisions, CostParams())
    if not 0.25 <= report.flop_reduction <= 0.45:
        failures.append(f"flop reduction {report.flop_reduction:.4f} outside [0.25, 0.45]")
    if report.flop_reduction >= 1.0:
        if report.speedup != math.inf:
            failures.append("speedup should be infinite at full reduction")
    elif report.speedup != 1.0 / (1.0 - report.flop_reduction):
        failures.append("speedup does not equal 1 / (1 - reduction) exactly")
    cheap_fraction = inter_cheap / inter_total
    if cheap_fraction < 0.5:
        failures.append(f"only {cheap_fraction:.4f} of in-between frames avoided full size")
    criterion(
        6,
        f"defaults: occupancy {occ_mean:.3f}, overlap {tiou_mean:.3f}, "
        f"reduction {report.flop_reduction:.3f}, cheap fraction {cheap_fraction:.3f}",
        failures,
    )


def test_criterion_7_region_aware_packing_beats_naive_packing():
    failures = []
    for seed in range(5):
        video_seeds = np.random.SeedSequence(seed).generate_state(40)
        noise = NoiseModel(seed=seed)
        scores = {}
        for packer in (pack, pack_naive):
            matches = []
            for s in video_seeds:
                frames = gen_synthetic(SyntheticParams(frames=50, seed=int(s)))
                detector = SimulatedDetector(frames, noise)
                run = run_video(len(frames), CFG, detector, packer=packer)
                for frame, rec in zip(frames, run.records):
                    matches.append(match(rec.detections, frame.objects))
            scores[packer] = evaluate_detections(Scores(matches)).mean_ap
        if not scores[pack] > scores[pack_naive]:
            failures.append(
                f"seed {seed}: merged-layout {scores[pack]:.4f} vs "
                f"distorting {scores[pack_naive]:.4f}"
            )
    criterion(7, "overlap-merging packer outscores the distorting one on every seed", failures)


def test_criterion_8_fixture_statistics():
    failures = []
    half = GroundTruthFrame(
        0, (GtObject(0, Rect(0, 0, 150, 150)), GtObject(0, Rect(150, 150, 300, 300)))
    )
    occ = occupancy_ratio(half, S1)
    if occ != 0.5:
        failures.append(f"occupancy {occ!r} != 0.5")
    before = GroundTruthFrame(0, (GtObject(0, Rect(0, 0, 100, 100)),))
    after = GroundTruthFrame(1, (GtObject(0, Rect(10, 0, 110, 100)),))
    tiou = temporal_region_iou(before, after, S1)
    if tiou != 9 / 11:
        failures.append(f"temporal iou {tiou!r} != 9/11")
    criterion(8, "hand-checkable fixtures: occupancy 0.5, sliding-box overlap 9/11", failures)


def test_criterion_9_average_precision_matches_brute_force():
    failures = []
    gt_a, gt_b = Rect(10, 10, 50, 50), Rect(100, 100, 160, 160)
    far = Rect(200, 10, 240, 40)
    gts = [(0, GtObject(0, gt_a)), (0, GtObject(0, gt_b))]
    dets = [
        (0, Detection(gt_a, 0, 0.9)),
        (0, Detection(far, 0, 0.8)),
        (0, Detection(gt_b, 0, 0.7)),
    ]
    ap = evaluate_detections(matched_frames(dets, gts)).per_class.get(0)
    if abs(ap - 5 / 6) > 1e-6:
        failures.append(f"hit-miss-hit AP {ap!r}")

    rng = np.random.default_rng(909)
    checked = 0
    for case in range(100):
        det_pairs, det_rows, gt_pairs, gt_rows = [], [], [], []
        for _ in range(int(rng.integers(1, 6))):
            frame = int(rng.integers(0, 3))
            cls = int(rng.integers(0, 2))
            x, y = rng.uniform(0, 250, 2)
            w, h = rng.uniform(10, 40, 2)
            gt_pairs.append((frame, GtObject(cls, Rect(x, y, x + w, y + h))))
            gt_rows.append((frame, (x, y, x + w, y + h), cls))
        confs = (0.2, 0.4, 0.6, 0.6, 0.8, 0.95)
        for frame, gt in gt_pairs:
            if rng.uniform() < 0.7 and len(det_pairs) < 10:
                r = gt.rect
                dx, dy = rng.uniform(-0.6, 0.6, 2) * r.width
                box = Rect(r.x_min + dx, r.y_min + dy, r.x_max + dx, r.y_max + dy)
                conf = float(confs[rng.integers(0, len(confs))])
                det_pairs.append((frame, Detection(box, gt.class_id, conf)))
                det_rows.append(
                    (frame, (box.x_min, box.y_min, box.x_max, box.y_max), gt.class_id, conf)
                )
        while len(det_pairs) < 10 and rng.uniform() < 0.3:
            frame = int(rng.integers(0, 3))
            cls = int(rng.integers(0, 2))
            x, y = rng.uniform(0, 250, 2)
            conf = float(confs[rng.integers(0, len(confs))])
            det_pairs.append((frame, Detection(Rect(x, y, x + 20, y + 20), cls, conf)))
            det_rows.append((frame, (x, y, x + 20, y + 20), cls, conf))
        per_class = evaluate_detections(matched_frames(det_pairs, gt_pairs)).per_class
        for cls in (0, 1):
            got = per_class.get(cls)
            want = reference_ap(det_rows, gt_rows, cls)
            if got != want:
                failures.append(f"case {case} class {cls}: {got!r} vs oracle {want!r}")
            if got is not None:
                checked += 1
    if checked < 100:
        failures.append(f"only {checked} defined AP comparisons; generator too sparse")
    criterion(9, "AP: worked example within 1e-6, exact oracle match on 100 instances", failures)
