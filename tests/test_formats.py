import json
import marshal
import math
import os
import subprocess
import sys
from enum import IntEnum
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_read_annotations

import roipack
from roipack.costmodel import FrameDecision
from roipack.formats import (
    AnnotationError,
    flat_frame,
    iter_frames,
    read_annotations,
    result_record,
    write_annotations,
    write_json,
    write_jsonl,
)
from roipack.geometry import FrameSpec, Rect
from roipack.packing import pack
from roipack.pipeline import Detection, FrameRecord, GroundTruthFrame, GtObject

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
        write_annotations(str(path), videos.items(), FRAME)
        back = read_annotations(str(path), FRAME)
        assert back == videos

    def test_close_for_arbitrary_coordinates(self, tmp_path):
        videos = {"v": [frame_of(0, Rect(12.34, 56.78, 91.01, 112.13))]}
        path = tmp_path / "ann.jsonl"
        write_annotations(str(path), videos.items(), FRAME)
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

    def test_frames_come_one_line_at_a_time_in_file_order(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(
            '{"video": "b", "frame": 0, "objects": []}\n'
            '{"video": "a", "frame": 4, "objects": []}\n'
            '{"video": "b", "frame": 2, "objects": []}\n'
            '{"video": "a", "frame": 4, "objects": []}\n'
        )
        frames = iter_frames(str(path), FRAME)
        assert [(video, f.frame_id) for video, f in islice(frames, 3)] == [
            ("b", 0), ("a", 4), ("b", 2)]
        # A video's frame ids are checked across the lines of other videos.
        with pytest.raises(AnnotationError, match="line 4: frame ids must be strictly"):
            next(frames)


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


LONG_INT = 10**399  # 400 digits, under json's 4,300-digit limit
EDGE_COORDS = [0, 1, 0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, LONG_INT, -LONG_INT,
               True, False, None, "0.5", 1.0000000000000002, -5e-324, [0.5]]
EDGE_CLASSES = [True, False, -1, 0.0, 1.5, "car", None, LONG_INT, -LONG_INT]


@st.composite
def valid_object_st(draw):
    x0, x1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    y0, y1 = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    return {"class": draw(st.integers(0, 5)), "x0": x0, "y0": y0, "x1": x1, "y1": y1}


@st.composite
def rounding_together_st(draw):
    """A box whose x edges are adjacent floats; at side 300 they can round
    to the same pixel coordinate."""
    x0 = draw(st.floats(0.0, 0.99))
    return {"class": 0, "x0": x0, "y0": 0.25, "x1": math.nextafter(x0, 1.0), "y1": 0.75}


@st.composite
def edge_object_st(draw):
    """A valid object with one entry replaced, a key removed or added, or
    not an object at all."""
    obj = draw(valid_object_st())
    change = draw(st.sampled_from(["coord", "class", "drop", "extra", "not a dict"]))
    if change == "coord":
        obj[draw(st.sampled_from(["x0", "y0", "x1", "y1"]))] = draw(st.sampled_from(EDGE_COORDS))
    elif change == "class":
        obj["class"] = draw(st.sampled_from(EDGE_CLASSES))
    elif change == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif change == "extra":
        obj[draw(st.sampled_from(["score", "x2", "Class"]))] = draw(st.sampled_from(EDGE_COORDS))
    else:
        return draw(st.sampled_from([42, None, "object", [0.1, 0.1, 0.5, 0.5], True]))
    return obj


@st.composite
def object_st(draw):
    """Mostly valid objects, so that most files parse past their first line."""
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return draw(edge_object_st())
    if kind == 1:
        return draw(rounding_together_st())
    return draw(valid_object_st())


# Records, each with a video name and a frame-id step; a step of 0 or -1
# breaks the strictly increasing rule.
record_st = st.tuples(st.sampled_from(["a", "b"]), st.sampled_from([1, 1, 1, 1, 2, 3, 0, -1]),
                      st.lists(object_st(), max_size=5))


def parse_outcome(read, path):
    """Frames as exact values (the type and bits of every number), or the
    error message."""
    try:
        videos = read(str(path), FRAME)
    except AnnotationError as exc:
        return str(exc)
    return [
        (name, frame.frame_id, [
            (type(o.class_id), o.class_id,
             [(type(v), v.hex()) for v in (o.rect.x_min, o.rect.y_min, o.rect.x_max, o.rect.y_max)])
            for o in frame.objects
        ])
        for name, frames in videos.items()
        for frame in frames
    ]


class TestParseMatchesReference:
    """read_annotations parses what reference_read_annotations parses, to
    the same bits, and refuses the rest with the identical message."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(record_st, max_size=6))
    def test_same_frames_or_same_error(self, tmp_path_factory, records):
        path = tmp_path_factory.getbasetemp() / "fuzz.jsonl"
        last = {}
        lines = []
        for video, step, objects in records:
            last[video] = max(0, last.get(video, -1) + step)
            lines.append(json.dumps({"video": video, "frame": last[video], "objects": objects}))
        path.write_text("".join(line + "\n" for line in lines))
        outcome = parse_outcome(read_annotations, path)
        assert outcome == parse_outcome(reference_read_annotations, path)

    @pytest.mark.parametrize("coord", EDGE_COORDS, ids=repr)
    @pytest.mark.parametrize("key", ["x0", "y0", "x1", "y1"])
    def test_each_edge_coordinate(self, tmp_path, key, coord):
        obj = {"class": 1, "x0": 0.0, "y0": 0.25, "x1": 1.0, "y1": 0.75, key: coord}
        path = tmp_path / "edge.jsonl"
        path.write_text(json.dumps({"video": "v", "frame": 0, "objects": [obj]}) + "\n")
        assert parse_outcome(read_annotations, path) == parse_outcome(
            reference_read_annotations, path
        )


class TestResultRecords:
    def test_detection_entry_normalizes(self):
        det = Detection(Rect(75, 150, 225, 300), class_id=2, confidence=0.7)
        outcome = FrameRecord(0, FrameDecision.anchor(), (det,))
        record = result_record(flat_frame("v", frame_of(0), outcome), FRAME)
        assert record["detections"] == [{
            "class": 2,
            "confidence": 0.7,
            "x0": 0.25,
            "y0": 0.5,
            "x1": 0.75,
            "y1": 1.0,
        }]

    def test_plan_entry_lists_slots_in_pixels(self):
        plan = pack([Rect(100, 120, 180, 180)], FRAME, FrameSpec(150.0))
        outcome = FrameRecord(4, FrameDecision.packed(), (), plan)
        record = result_record(flat_frame("v", frame_of(4), outcome), FRAME)
        assert record["plan"] == {
            "method": "greedy",
            "slots": [{"src": [65.0, 75.0, 215.0, 225.0], "dst": [0.0, 0.0, 150.0, 150.0],
                       "scale": [1.0, 1.0]}],
        }

    def test_packed_record_carries_plan(self):
        plan = pack([Rect(100, 120, 180, 180)], FRAME, FrameSpec(150.0))
        frame = frame_of(4, Rect(75, 75, 150, 150))
        outcome = FrameRecord(4, FrameDecision.packed(), (), plan)
        record = result_record(flat_frame("v", frame, outcome), FRAME)
        assert record["decision"] == "packed"
        assert record["video"] == "v" and record["frame"] == 4
        assert "plan" in record

    def test_other_records_have_no_plan(self):
        frame = frame_of(0, Rect(75, 75, 150, 150))
        detections = (Detection(Rect(75, 75, 150, 150), 0, 0.9),)
        outcome = FrameRecord(0, FrameDecision.anchor(), detections)
        record = result_record(flat_frame("v", frame, outcome), FRAME)
        assert record["decision"] == "anchor"
        assert "plan" not in record
        assert len(record["detections"]) == 1

    def test_a_frame_without_an_outcome_is_its_annotation_line(self):
        frame = frame_of(3, Rect(0, 37.5, 75, 150), cls=1)
        assert result_record(flat_frame("v", frame), FRAME) == {
            "video": "v",
            "frame": 3,
            "objects": [{"class": 1, "x0": 0.0, "y0": 0.125, "x1": 0.25, "y1": 0.5}],
        }

    def test_the_flat_form_holds_only_exact_builtins(self):
        plan = pack([Rect(100, 120, 180, 180)], FRAME, FrameSpec(150.0))
        detections = (Detection(Rect(75, 75, 150, 150), 0, 0.9),)
        outcome = FrameRecord(4, FrameDecision.packed(), detections, plan)
        flat = flat_frame("v", frame_of(4, Rect(75, 75, 150, 150)), outcome)
        assert marshal.loads(marshal.dumps(flat)) == flat  # marshal refuses subclasses


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
        # The second record cannot cross to the encoder: marshal refuses it.
        with pytest.raises(ValueError):
            write_jsonl(str(path), [{"a": 1}, {"b": object()}])
        assert path.read_text() == "old\n"
        with pytest.raises(TypeError):
            write_json(str(tmp_path / "new.json"), {"a": object()})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Level(IntEnum):
    HIGH = 2


VARIED = [
    {"video": "v\u00e9", "frame": 3, "objects": [], "x": -0.0, "y": 1e-310, "z": 0.1},
    {"nested": [[1, 2.5], (3, None)], "flag": True, 7: "int key", 2.5: "float key"},
    {"big": 10**40, "nan": float("nan"), "inf": float("-inf"), "tuple": ()},
    "a bare string",
    [1, "list record"],
]


@pytest.fixture(params=["forked", "in-process"])
def encoder(request, monkeypatch):
    if request.param == "in-process":
        monkeypatch.delattr(os, "fork")
    elif not hasattr(os, "fork"):
        pytest.skip("no os.fork here")
    return request.param


class TestEncoderProcess:
    def test_bytes_are_json_lines_in_either_process(self, tmp_path, encoder):
        records = VARIED * 50  # several batches
        path = tmp_path / "out.jsonl"
        write_jsonl(str(path), records)
        assert path.read_text() == "".join(json.dumps(r) + "\n" for r in records)

    def test_an_item_marshal_refuses_fails_cleanly(self, tmp_path, encoder):
        # json would write an IntEnum as its int; marshal carries only exact
        # built-in types, so the item fails before it is sent.
        path = tmp_path / "out.jsonl"
        with pytest.raises(ValueError, match="unmarshallable object"):
            write_jsonl(str(path), [{"a": 1}] * 100 + [{"level": Level.HIGH}])
        assert list(tmp_path.iterdir()) == []
        no_child_left()

    def test_records_are_taken_as_they_are_yielded(self, tmp_path, encoder):
        def records():
            record = {"i": 0}
            for i in range(3):
                record["i"] = i
                yield record

        path = tmp_path / "out.jsonl"
        write_jsonl(str(path), records())
        assert path.read_text() == '{"i": 0}\n{"i": 1}\n{"i": 2}\n'

    def test_encoder_side_failure_raises_type_error(self, tmp_path, encoder):
        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        # marshal carries a set; json refuses it where the records are encoded.
        with pytest.raises(TypeError, match="set is not JSON serializable"):
            write_jsonl(str(path), [{"a": 1}, {"s": {1, 2}}])
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]

    def test_the_value_lines_returns_comes_back_intact(self, tmp_path, encoder):
        # Larger than a pipe's default 64 KiB buffer, so it crosses in parts.
        big = {"pad": "x" * (1 << 17), "floats": [0.1 * i for i in range(5000)], "none": None}

        def lines(items):
            seen = 0
            for item in items:
                seen += 1
                yield {"n": 2 * item["n"]}
            return {**big, "seen": seen}

        path = tmp_path / "out.jsonl"
        value = write_jsonl(str(path), ({"n": i} for i in range(200)), lines)
        assert value == {**big, "seen": 200}
        assert len(marshal.dumps(value)) > 1 << 16
        assert path.read_text() == "".join(f'{{"n": {2 * i}}}\n' for i in range(200))
        assert write_jsonl(str(path), [{"a": 1}]) is None  # the default writes items as records
        no_child_left()

    @pytest.mark.parametrize("where", ["per item", "at the end"])
    def test_a_failure_in_lines_is_raised_as_its_built_in_class(self, tmp_path, encoder, where):
        def lines(items):
            for item in items:
                if where == "per item" and item == 150:
                    raise AnnotationError("item 150 failed")
                yield item
            raise AnnotationError("the end failed")

        path = tmp_path / "out.jsonl"
        path.write_text("old\n")
        # AnnotationError is a ValueError, which is what crosses the pipe.
        message = "item 150 failed" if where == "per item" else "the end failed"
        with pytest.raises(ValueError, match=message):
            write_jsonl(str(path), range(300), lines)
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]
        no_child_left()

    def test_encoder_failure_stops_the_producer_early(self, tmp_path):
        taken = []

        def records():
            yield {"s": {1}}
            for i in range(100_000):
                taken.append(i)
                yield {"pad": "x" * 1000, "i": i}

        with pytest.raises(TypeError):
            write_jsonl(str(tmp_path / "out.jsonl"), records())
        assert len(taken) < 100_000
        assert list(tmp_path.iterdir()) == []
        no_child_left()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_encoder_write_error_is_raised_with_its_errno(self, tmp_path):
        (tmp_path / "out.jsonl.tmp").symlink_to("/dev/full")
        with pytest.raises(OSError) as err:
            write_jsonl(str(tmp_path / "out.jsonl"), [{"a": 1}])
        assert err.value.errno == 28  # ENOSPC
        assert list(tmp_path.iterdir()) == []
        no_child_left()

    @pytest.mark.parametrize("ending", ["success", "producer error", "interrupt"])
    def test_the_encoder_process_is_always_reaped(self, tmp_path, ending):
        def records():
            for i in range(300):
                yield {"i": i}
            if ending == "producer error":
                raise RuntimeError("producer failed")
            if ending == "interrupt":
                raise KeyboardInterrupt

        path = tmp_path / "out.jsonl"
        if ending == "success":
            write_jsonl(str(path), records())
            assert len(path.read_text().splitlines()) == 300
        else:
            with pytest.raises((RuntimeError, KeyboardInterrupt)):
                write_jsonl(str(path), records())
            assert list(tmp_path.iterdir()) == []
        no_child_left()

    def test_unflushed_stdout_is_written_once(self, tmp_path):
        code = (
            "from roipack.formats import write_jsonl\n"
            "print('before', end='')\n"
            f"write_jsonl({str(tmp_path / 'out.jsonl')!r}, [{{'a': 1}}] * 200)\n"
            "print(' after', end='')\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(roipack.__file__))}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "before after"
        assert len((tmp_path / "out.jsonl").read_text().splitlines()) == 200
