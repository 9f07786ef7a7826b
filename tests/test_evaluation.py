import numpy as np
import pytest

from oracles import reference_ap, reference_average_precision, reference_evaluate_detections
from roipack.evaluation import average_precision, evaluate_detections, mean_average_precision
from roipack.geometry import Rect
from roipack.pipeline import Detection, GtObject, PipelineConfig, run_video
from roipack.simdet import NoiseModel, SimulatedDetector, SyntheticParams, gen_synthetic

GT_A = Rect(10, 10, 50, 50)
GT_B = Rect(100, 100, 160, 160)
FAR = Rect(200, 10, 240, 40)


def d(rect, conf, cls=0):
    return Detection(rect=rect, class_id=cls, confidence=conf)


def worked_example():
    """Two ground-truth boxes; ranked detections hit, miss, hit."""
    gts = [(0, GtObject(0, GT_A)), (0, GtObject(0, GT_B))]
    dets = [(0, d(GT_A, 0.9)), (0, d(FAR, 0.8)), (0, d(GT_B, 0.7))]
    return dets, gts


class TestAveragePrecision:
    def test_hit_miss_hit_example(self):
        dets, gts = worked_example()
        ap = average_precision(dets, gts, class_id=0)
        assert ap == 0.5 + 0.5 * (2 / 3)
        assert ap == pytest.approx(5 / 6, abs=1e-9)

    def test_perfect_detections(self):
        gts = [(i, GtObject(0, GT_A)) for i in range(3)]
        dets = [(i, d(GT_A, 0.9 - 0.1 * i)) for i in range(3)]
        assert average_precision(dets, gts, 0) == 1.0

    def test_nothing_matches(self):
        gts = [(0, GtObject(0, GT_A))]
        dets = [(0, d(FAR, 0.9)), (0, d(FAR, 0.8))]
        assert average_precision(dets, gts, 0) == 0.0

    def test_no_detections_is_zero(self):
        gts = [(0, GtObject(0, GT_A))]
        assert average_precision([], gts, 0) == 0.0

    def test_class_without_ground_truth_is_undefined(self):
        dets, gts = worked_example()
        assert average_precision(dets, gts, class_id=9) is None

    def test_matching_is_per_frame(self):
        gts = [(0, GtObject(0, GT_A))]
        dets = [(1, d(GT_A, 0.9))]  # right box, wrong frame
        assert average_precision(dets, gts, 0) == 0.0

    def test_confidence_tie_broken_by_frame_key(self):
        gts = [(0, GtObject(0, GT_A)), (1, GtObject(0, GT_B))]
        dets = [(1, d(GT_B, 0.5)), (0, d(FAR, 0.5))]
        # The frame-0 false positive ranks first on the tie, so precision
        # at the only recall step is 1/2.
        assert average_precision(dets, gts, 0) == 0.25

    def test_duplicate_detections_count_once(self):
        gts = [(0, GtObject(0, GT_A))]
        dets = [(0, d(GT_A, 0.9)), (0, d(GT_A, 0.8))]
        assert average_precision(dets, gts, 0) == 1.0

    def test_detection_prefers_higher_iou_ground_truth(self):
        # det1 overlaps both boxes above a 0.75 threshold; taking the
        # higher-IoU match leaves the other box for det2.
        gt1, gt2 = Rect(0, 0, 10, 10), Rect(0, 0, 14, 10)
        gts = [(0, GtObject(0, gt1)), (0, GtObject(0, gt2))]
        dets = [(0, d(Rect(0, 0, 13, 10), 0.9)), (0, d(gt1, 0.8))]
        assert average_precision(dets, gts, 0, iou_threshold=0.75) == 1.0

    def test_iou_tie_matches_first_ground_truth(self):
        gt1, gt2 = Rect(0, 0, 10, 10), Rect(20, 0, 30, 10)
        gts = [(0, GtObject(0, gt1)), (0, GtObject(0, gt2))]
        dets = [(0, d(Rect(5, 0, 25, 10), 0.9)), (0, d(gt1, 0.8))]
        # The straddling box ties at IoU 0.2 and takes gt1, leaving the
        # exact copy of gt1 unmatched.
        assert average_precision(dets, gts, 0, iou_threshold=0.1) == 0.5

    def test_threshold_is_inclusive(self):
        gts = [(0, GtObject(0, Rect(0, 0, 10, 10)))]
        dets = [(0, d(Rect(0, 0, 10, 5), 0.9))]  # IoU exactly 0.5
        assert average_precision(dets, gts, 0, iou_threshold=0.5) == 1.0

    def test_monotone_confidence_transform_is_invariant(self):
        dets, gts = worked_example()
        squeezed = [(k, d(det.rect, det.confidence / 2 + 0.25, det.class_id))
                    for k, det in dets]
        assert average_precision(squeezed, gts, 0) == average_precision(dets, gts, 0)

    def test_trailing_false_positive_never_helps(self):
        dets, gts = worked_example()
        base = average_precision(dets, gts, 0)
        worse = average_precision(dets + [(0, d(FAR, 0.1))], gts, 0)
        assert worse <= base


def random_instance(rng):
    """Small evaluation problem with deliberate ties and near misses."""
    classes = (0, 1)
    confs = (0.15, 0.3, 0.5, 0.5, 0.7, 0.9)
    gts, gt_rows = [], []
    for frame in range(int(rng.integers(1, 4))):
        for _ in range(int(rng.integers(1, 4))):
            x, y = rng.uniform(0, 250, 2)
            w, h = rng.uniform(8, 40, 2)
            cls = int(rng.integers(0, len(classes)))
            gts.append((frame, GtObject(cls, Rect(x, y, x + w, y + h))))
            gt_rows.append((frame, (x, y, x + w, y + h), cls))
    dets, det_rows = [], []
    for frame_key, gt in gts:
        if rng.uniform() < 0.75:
            r = gt.rect
            dx, dy = rng.uniform(-0.6, 0.6, 2) * r.width
            box = Rect(r.x_min + dx, r.y_min + dy, r.x_max + dx, r.y_max + dy)
            conf = float(confs[rng.integers(0, len(confs))])
            cls = gt.class_id if rng.uniform() < 0.9 else 1 - gt.class_id
            dets.append((frame_key, d(box, conf, cls)))
            det_rows.append((frame_key, (box.x_min, box.y_min, box.x_max, box.y_max), cls, conf))
    for _ in range(int(rng.integers(0, 3))):
        x, y = rng.uniform(0, 250, 2)
        box = Rect(x, y, x + 20, y + 20)
        conf = float(confs[rng.integers(0, len(confs))])
        cls = int(rng.integers(0, len(classes)))
        dets.append((0, d(box, conf, cls)))
        det_rows.append((0, (x, y, x + 20, y + 20), cls, conf))
    return dets, gts, det_rows, gt_rows


class TestAgainstReference:
    def test_matches_prefix_rematching_oracle(self):
        rng = np.random.default_rng(77)
        checked = 0
        for _ in range(40):
            dets, gts, det_rows, gt_rows = random_instance(rng)
            for cls in (0, 1):
                got = average_precision(dets, gts, cls)
                want = reference_ap(det_rows, gt_rows, cls)
                assert got == want
                if got is not None:
                    checked += 1
                    exact = reference_ap(det_rows, gt_rows, cls, exact=True)
                    assert got == pytest.approx(exact, abs=1e-12)
        assert checked >= 40


def tricky_instance(rng):
    """Evaluation problem on an integer grid, built to hit every tie rule.

    Confidences come from four values, so ties are common. Ground-truth
    boxes have even sizes, so a detection covering half of one has IoU
    exactly 0.5, and a detection straddling two equal boxes equally has
    equal IoU with both. Some frames have no ground truth, class 3 never
    has any, and some detections are repeated verbatim.
    """
    confs = (0.2, 0.5, 0.8, 1.0)
    gts, dets = [], []

    def det(key, box, cls):
        dets.append((key, d(Rect(*box), float(rng.choice(confs)), cls)))

    for f in range(int(rng.integers(1, 6))):
        key = ("v", f)
        if rng.uniform() < 0.25:
            continue  # no ground truth in this frame
        for _ in range(int(rng.integers(1, 5))):
            x, y = (int(v) for v in rng.integers(0, 40, 2))
            w, h = (2 * int(v) for v in rng.integers(1, 8, 2))
            cls = int(rng.integers(0, 3))
            gts.append((key, GtObject(cls, Rect(x, y, x + w, y + h))))
            kind = int(rng.integers(0, 5))
            if kind == 0:
                det(key, (x, y, x + w, y + h), cls)
            elif kind == 1:  # duplicates
                for _ in range(2):
                    dets.append((key, d(Rect(x, y, x + w, y + h), 0.5, cls)))
            elif kind == 2:  # IoU exactly 0.5
                det(key, (x, y, x + w // 2, y + h), cls)
            elif kind == 3:
                dx, dy = (int(v) for v in rng.integers(-3, 4, 2))
                det(key, (x + dx, y + dy, x + dx + w, y + dy + h), cls)
        if rng.uniform() < 0.5:  # two equal boxes and a detection straddling both
            x, y, w = 60 + 10 * f, 5, 6
            cls = int(rng.integers(0, 3))
            gts.append((key, GtObject(cls, Rect(x, y, x + w, y + w))))
            gts.append((key, GtObject(cls, Rect(x + w + 2, y, x + 2 * w + 2, y + w))))
            det(key, (x + w // 2, y, x + w + 2 + w // 2, y + w), cls)
    for _ in range(int(rng.integers(1, 5))):
        key = ("v", int(rng.integers(0, 7)))
        x, y = (int(v) for v in rng.integers(0, 40, 2))
        det(key, (x, y, x + 8, y + 8), int(rng.integers(0, 4)))
    order = rng.permutation(len(dets))
    return [dets[i] for i in order], gts


class TestMatchesPreviousEvaluator:
    """The one-pass evaluator against the per-class rescans it replaced."""

    @pytest.mark.parametrize("threshold", [0.5, 0.25, 0.75])
    def test_equal_on_tricky_inputs(self, threshold):
        rng = np.random.default_rng(2024)
        defined = 0
        for case in range(300):
            dets, gts = tricky_instance(rng)
            if not gts:
                continue
            got = evaluate_detections(dets, gts, threshold)
            want = reference_evaluate_detections(dets, gts, threshold)
            assert got.per_class == want.per_class, case
            assert got.mean_ap == want.mean_ap, case
            assert (got.num_detections, got.num_ground_truth) == (
                want.num_detections, want.num_ground_truth)
            for cls in range(4):
                assert average_precision(dets, gts, cls, threshold) == (
                    reference_average_precision(dets, gts, cls, threshold)), (case, cls)
            defined += len(got.per_class)
        assert defined > 500

    def test_benchmark_like_run(self):
        # Detections from the simulated detector over generated videos.
        dets, gts = [], []
        for seed in range(6):
            frames = gen_synthetic(SyntheticParams(frames=30, seed=seed, num_objects=(3, 6)))
            detector = SimulatedDetector(frames, NoiseModel(seed=1))
            run = run_video(len(frames), PipelineConfig(), detector)
            for frame, rec in zip(frames, run.records):
                key = (f"v{seed}", frame.frame_id)
                dets.extend((key, det) for det in rec.detections)
                gts.extend((key, obj) for obj in frame.objects)
        got = evaluate_detections(dets, gts)
        want = reference_evaluate_detections(dets, gts)
        assert (got.per_class, got.mean_ap) == (want.per_class, want.mean_ap)


class TestMeanAveragePrecision:
    def test_simple_mean(self):
        assert mean_average_precision({0: 1.0, 1: 0.5}) == 0.75

    def test_sums_left_to_right(self):
        # Not the compensated sum() of Python 3.12+, which rounds differently.
        assert mean_average_precision({0: 0.1, 1: 0.2, 2: 0.3}) == ((0.1 + 0.2) + 0.3) / 3

    def test_undefined_classes_are_skipped(self):
        dets, gts = worked_example()
        ap = average_precision(dets, gts, 0)
        assert mean_average_precision({0: ap, 1: 1.0, 2: None}) == (ap + 1.0) / 2
        assert mean_average_precision({0: ap, 1: 1.0, 2: None}) == pytest.approx(
            0.9166666666666666, abs=1e-9
        )

    def test_all_undefined_rejected(self):
        with pytest.raises(ValueError):
            mean_average_precision({0: None, 1: None})


class TestEvaluateDetections:
    def test_report_fields(self):
        dets, gts = worked_example()
        gts = gts + [(0, GtObject(1, FAR))]
        report = evaluate_detections(dets, gts)
        assert sorted(report.per_class) == [0, 1]
        assert report.per_class[0] == 0.5 + 0.5 * (2 / 3)
        assert report.per_class[1] == 0.0  # no detections for that class
        assert report.num_detections == 3
        assert report.num_ground_truth == 3
        assert report.mean_ap == (report.per_class[0] + 0.0) / 2

    def test_json_payload(self):
        dets, gts = worked_example()
        payload = evaluate_detections(dets, gts).to_json_dict()
        assert set(payload) == {"per_class_ap", "mAP", "num_detections", "num_ground_truth"}
        assert list(payload["per_class_ap"]) == ["0"]

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError):
            evaluate_detections([(0, d(GT_A, 0.9))], [])
