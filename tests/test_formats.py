import json

import pytest

from roipack.costmodel import FrameDecision
from roipack.formats import (
    AnnotationError,
    detection_entry,
    plan_entry,
    read_annotations,
    result_record,
    write_annotations,
    write_json,
    write_jsonl,
)
from roipack.geometry import FrameSpec, Rect
from roipack.packing import pack
from roipack.pipeline import Detection, GroundTruthFrame, GtObject

FRAME = FrameSpec(300.0)


def frame_of(frame_id, *rects, cls=0):
    return GroundTruthFrame(frame_id, tuple(GtObject(cls, r) for r in rects))


def parse_error(tmp_path, *lines):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(AnnotationError) as err:
        read_annotations(str(path), FRAME)
    return str(err.value)


class TestRoundTrip:
    def test_exact_for_representable_coordinates(self, tmp_path):
        videos = {
            "amble": [
                frame_of(0, Rect(0, 37.5, 75, 150), cls=1),
                frame_of(2, Rect(150, 150, 300, 300)),
            ],
            "brisk": [frame_of(0, Rect(75, 0, 225, 75), Rect(0, 0, 37.5, 37.5))],
        }
        path = tmp_path / "ann.jsonl"
        write_annotations(str(path), videos, FRAME)
        back = read_annotations(str(path), FRAME)
        assert back == videos

    def test_close_for_arbitrary_coordinates(self, tmp_path):
        videos = {"v": [frame_of(0, Rect(12.34, 56.78, 91.01, 112.13))]}
        path = tmp_path / "ann.jsonl"
        write_annotations(str(path), videos, FRAME)
        (obj,) = read_annotations(str(path), FRAME)["v"][0].objects
        want = videos["v"][0].objects[0].rect
        assert obj.rect.x_min == pytest.approx(want.x_min, abs=1e-9)
        assert obj.rect.y_max == pytest.approx(want.y_max, abs=1e-9)

    def test_blank_lines_and_empty_frames_are_fine(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"video": "v", "frame": 0, "objects": []}\n'
            "\n"
            '{"video": "v", "frame": 3, "objects": []}\n'
            "\n"
        )
        videos = read_annotations(str(path), FRAME)
        assert [f.frame_id for f in videos["v"]] == [0, 3]

    def test_interleaved_videos_keep_their_own_order(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"video": "a", "frame": 0, "objects": []}\n'
            '{"video": "b", "frame": 0, "objects": []}\n'
            '{"video": "a", "frame": 1, "objects": []}\n'
        )
        videos = read_annotations(str(path), FRAME)
        assert sorted(videos) == ["a", "b"]


class TestReadErrors:
    def test_invalid_json_names_line(self, tmp_path):
        msg = parse_error(tmp_path, '{"video": "v", "frame": 0, "objects": []}', "{oops")
        assert "line 2" in msg and "invalid JSON" in msg

    def test_non_object_record(self, tmp_path):
        assert "line 1" in parse_error(tmp_path, "[1, 2, 3]")

    @pytest.mark.parametrize(
        "record",
        [
            '{"frame": 0, "objects": []}',
            '{"video": "", "frame": 0, "objects": []}',
            '{"video": 7, "frame": 0, "objects": []}',
        ],
    )
    def test_bad_video_field(self, tmp_path, record):
        assert "'video'" in parse_error(tmp_path, record)

    @pytest.mark.parametrize(
        "frame", ["-1", "true", '"0"', "null", "1.5"]
    )
    def test_bad_frame_field(self, tmp_path, frame):
        record = f'{{"video": "v", "frame": {frame}, "objects": []}}'
        assert "'frame'" in parse_error(tmp_path, record)

    def test_objects_must_be_a_list(self, tmp_path):
        record = '{"video": "v", "frame": 0, "objects": {}}'
        assert "'objects'" in parse_error(tmp_path, record)

    def test_object_entry_must_be_dict(self, tmp_path):
        record = '{"video": "v", "frame": 0, "objects": [42]}'
        assert "object entry" in parse_error(tmp_path, record)

    def test_object_missing_coordinate(self, tmp_path):
        record = '{"video": "v", "frame": 0, "objects": [{"class": 0, "x0": 0.1, "y0": 0.1, "x1": 0.5}]}'
        assert "missing key" in parse_error(tmp_path, record)

    @pytest.mark.parametrize("cls", ["-1", "0.5", '"car"', "true"])
    def test_bad_class(self, tmp_path, cls):
        record = (
            f'{{"video": "v", "frame": 0, "objects": '
            f'[{{"class": {cls}, "x0": 0.1, "y0": 0.1, "x1": 0.5, "y1": 0.5}}]}}'
        )
        assert "class" in parse_error(tmp_path, record)

    @pytest.mark.parametrize("x1", ["1.5", "-0.1", '"wide"', "true"])
    def test_bad_coordinates(self, tmp_path, x1):
        record = (
            f'{{"video": "v", "frame": 0, "objects": '
            f'[{{"class": 0, "x0": 0.1, "y0": 0.1, "x1": {x1}, "y1": 0.5}}]}}'
        )
        msg = parse_error(tmp_path, record)
        assert "coordinate" in msg or "numbers" in msg

    @pytest.mark.parametrize("coords", ["0.5, 0.1, 0.5, 0.9", "0.6, 0.1, 0.5, 0.9"])
    def test_empty_box(self, tmp_path, coords):
        x0, y0, x1, y1 = coords.split(", ")
        record = (
            f'{{"video": "v", "frame": 0, "objects": '
            f'[{{"class": 0, "x0": {x0}, "y0": {y0}, "x1": {x1}, "y1": {y1}}}]}}'
        )
        assert "empty box" in parse_error(tmp_path, record)

    def test_frame_ids_strictly_increasing(self, tmp_path):
        msg = parse_error(
            tmp_path,
            '{"video": "v", "frame": 2, "objects": []}',
            '{"video": "v", "frame": 2, "objects": []}',
        )
        assert "line 2" in msg and "increasing" in msg

    def test_decreasing_frame_ids(self, tmp_path):
        msg = parse_error(
            tmp_path,
            '{"video": "v", "frame": 5, "objects": []}',
            '{"video": "v", "frame": 4, "objects": []}',
        )
        assert "increasing" in msg


class TestResultRecords:
    def test_detection_entry_normalizes(self):
        det = Detection(Rect(75, 150, 225, 300), class_id=2, confidence=0.7)
        assert detection_entry(det, 300.0) == {
            "class": 2,
            "confidence": 0.7,
            "x0": 0.25,
            "y0": 0.5,
            "x1": 0.75,
            "y1": 1.0,
        }

    def test_plan_entry_lists_slots_in_pixels(self):
        plan = pack([Rect(100, 120, 180, 180)], FRAME, FrameSpec(150.0))
        entry = plan_entry(plan)
        assert entry["method"] == "greedy"
        assert entry["slots"] == [
            {"src": [65.0, 75.0, 215.0, 225.0], "dst": [0.0, 0.0, 150.0, 150.0],
             "scale": [1.0, 1.0]}
        ]

    def test_packed_record_carries_plan(self):
        plan = pack([Rect(100, 120, 180, 180)], FRAME, FrameSpec(150.0))
        frame = frame_of(4, Rect(75, 75, 150, 150))
        record = result_record("v", frame, FrameDecision.packed(plan), [], FRAME)
        assert record["decision"] == "packed"
        assert record["video"] == "v" and record["frame"] == 4
        assert "plan" in record

    def test_other_records_have_no_plan(self):
        frame = frame_of(0, Rect(75, 75, 150, 150))
        record = result_record(
            "v", frame, FrameDecision.anchor(),
            [Detection(Rect(75, 75, 150, 150), 0, 0.9)], FRAME,
        )
        assert record["decision"] == "anchor"
        assert "plan" not in record
        assert len(record["detections"]) == 1


class TestWriters:
    def test_jsonl_one_record_per_line(self, tmp_path):
        path = tmp_path / "out.jsonl"
        write_jsonl(str(path), [{"a": 1}, {"b": 2.5}])
        lines = path.read_text().splitlines()
        assert [json.loads(l) for l in lines] == [{"a": 1}, {"b": 2.5}]

    def test_jsonl_takes_records_as_they_are_made(self, tmp_path):
        path = tmp_path / "out.jsonl"
        tmp = tmp_path / "out.jsonl.tmp"
        seen = []

        def records():
            for i in range(3):
                seen.append(tmp.exists())
                yield {"i": i}

        write_jsonl(str(path), records())
        assert seen == [True, True, True]
        assert [json.loads(l) for l in path.read_text().splitlines()] == [
            {"i": 0}, {"i": 1}, {"i": 2}]

    def test_failure_while_making_records_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.jsonl"

        def records():
            yield {"a": 1}
            raise RuntimeError("producer failed")

        with pytest.raises(RuntimeError):
            write_jsonl(str(path), records())
        assert list(tmp_path.iterdir()) == []

    def test_json_sorted_and_newline_terminated(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"zebra": 1, "apple": 2})
        text = path.read_text()
        assert text.endswith("\n")
        assert text.index('"apple"') < text.index('"zebra"')
        assert json.loads(text) == {"zebra": 1, "apple": 2}

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        # The second record cannot be serialized, after the first is written.
        with pytest.raises(TypeError):
            write_jsonl(str(path), [{"a": 1}, {"b": object()}])
        assert path.read_text() == "old\n"
        with pytest.raises(TypeError):
            write_json(str(tmp_path / "new.json"), {"a": object()})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
