"""Reading and writing the line-oriented dataset and result files.

Annotations are JSON Lines, one frame per line:

    {"video": "v0000", "frame": 0, "objects": [
        {"class": 1, "x0": 0.1, "y0": 0.2, "x1": 0.4, "y1": 0.5}, ...]}

Coordinates are normalized to [0, 1] and scaled to the working frame side
on ingest. `iter_frames` parses and checks one line at a time and yields
each frame as its line is read; `read_annotations` groups them per video.
Result files mirror the input records and add the processing
decision and the detections (with confidence); packed frames also carry
their plan in working-frame pixels.

Every file is written to `<path>.tmp` and moved over `path` once complete.
`write_jsonl` takes each item as its iterable yields it and hands it, in
batches, to a helper process that turns it into a record, encodes that as
JSON and writes it, so a caller can stream items that are made one at a
time while the rest of the work runs on another CPU; a failure while
producing them leaves neither a partial file nor the temporary one. A
command's main process therefore makes each frame only in `flat_frame`'s
form of built-in values, and the helper builds its line with
`result_record`: `gen` hands over annotation frames so, and `run` its
result frames, which its helper also scores.
"""

import builtins
import json
import marshal
import os
import signal
from contextlib import contextmanager, suppress
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

try:
    from fcntl import F_SETPIPE_SZ, fcntl
except ImportError:  # F_SETPIPE_SZ is Linux-only
    F_SETPIPE_SZ = None

from .geometry import FrameSpec, Rect
from .pipeline import FrameRecord, GroundTruthFrame, GtObject


class AnnotationError(ValueError):
    """Malformed annotation input; the message names the offending line."""


def temporary(path: str) -> str:
    """The name `replacing` writes `path` under until it is complete."""
    return f"{path}.tmp"


@contextmanager
def replacing(path: str, newline=None):
    """Open a temporary file beside `path` for writing and move it over
    `path` once written, so a failure never leaves a partial file there."""
    tmp = temporary(path)
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


_corners = attrgetter("x_min", "y_min", "x_max", "y_max")


def flat_frame(video: str, frame: GroundTruthFrame, outcome: Optional[FrameRecord] = None):
    """`frame` of `video` in the flat form that crosses to the encoder
    process, a tuple of built-in values alone, which marshal carries:

        (video, frame_id, decision, objects, detections, plan)

    Each object is (class_id, box), each detection (class_id, confidence,
    box) and each box (x_min, y_min, x_max, y_max) in working-frame pixels.
    A packed frame's plan is (method, slots), each slot (src box, dst box,
    scale_x, scale_y). Without `outcome` the decision and the plan are None
    and there are no detections: the frame's annotation line.
    """
    objects = [(o.class_id, _corners(o.rect)) for o in frame.objects]
    if outcome is None:
        return video, frame.frame_id, None, objects, [], None
    detections = [(d.class_id, d.confidence, _corners(d.rect)) for d in outcome.detections]
    plan = outcome.plan
    if plan is not None:
        slots = [(_corners(s.src), _corners(s.dst), s.scale_x, s.scale_y) for s in plan.slots]
        plan = plan.method.value, slots
    return video, frame.frame_id, outcome.decision.kind.value, objects, detections, plan


def result_record(frame: tuple, frame_spec: FrameSpec) -> dict:
    """The line of a flat frame: its annotation line, and with a decision
    its result line, whose detections and plan follow the objects."""
    video, frame_id, decision, objects, detections, plan = frame
    s = frame_spec.side
    record = {"video": video, "frame": frame_id, "objects": [
        {"class": c, "x0": x0 / s, "y0": y0 / s, "x1": x1 / s, "y1": y1 / s}
        for c, (x0, y0, x1, y1) in objects
    ]}
    if decision is not None:
        record["decision"] = decision
        record["detections"] = [
            {"class": c, "confidence": p, "x0": x0 / s, "y0": y0 / s, "x1": x1 / s, "y1": y1 / s}
            for c, p, (x0, y0, x1, y1) in detections
        ]
    if plan is not None:
        method, slots = plan
        slots = [{"src": list(src), "dst": list(dst), "scale": [sx, sy]}
                 for src, dst, sx, sy in slots]
        record["plan"] = {"method": method, "slots": slots}
    return record


def write_annotations(
    path: str, videos: Iterable[tuple[str, Sequence[GroundTruthFrame]]], frame_spec: FrameSpec
):
    """Write each (name, frames) pair's frames as it is yielded."""
    flat = (flat_frame(name, f) for name, frames in videos for f in frames)
    write_jsonl(path, flat, lambda frames: (result_record(f, frame_spec) for f in frames))


def _parse_object(raw: object, side: float, where: str) -> GtObject:
    # A well-formed entry (an exact int class, four exact floats in [0, 1]
    # and a nonempty box after scaling) is accepted here; float(v) of a
    # float is v, so the box is the one the checks below would build.
    if type(raw) is dict:
        class_id = raw.get("class")
        x0, y0, x1, y1 = raw.get("x0"), raw.get("y0"), raw.get("x1"), raw.get("y1")
        if (
            type(class_id) is int
            and class_id >= 0
            and type(x0) is float
            and type(y0) is float
            and type(x1) is float
            and type(y1) is float
            and 0.0 <= x0 <= 1.0
            and 0.0 <= y0 <= 1.0
            and 0.0 <= x1 <= 1.0
            and 0.0 <= y1 <= 1.0
        ):
            x0 *= side
            y0 *= side
            x1 *= side
            y1 *= side
            if x0 < x1 and y0 < y1:
                return GtObject(class_id, Rect(x0, y0, x1, y1))
    # Anything else goes through every rule, and the first one broken is
    # the one reported.
    if not isinstance(raw, dict):
        raise AnnotationError(f"{where}: object entry must be a JSON object")
    try:
        class_id = raw["class"]
        coords = [raw["x0"], raw["y0"], raw["x1"], raw["y1"]]
    except KeyError as exc:
        raise AnnotationError(f"{where}: object missing key {exc}") from None
    if not isinstance(class_id, int) or isinstance(class_id, bool) or class_id < 0:
        raise AnnotationError(f"{where}: class must be a nonnegative integer")
    for v in coords:
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise AnnotationError(f"{where}: coordinates must be numbers")
        # Compared as given: float() of a long integer overflows.
        if not 0 <= v <= 1:
            raise AnnotationError(f"{where}: coordinate {v} outside [0, 1]")
    x0, y0, x1, y1 = (float(v) for v in coords)
    # Tested after scaling, where two close coordinates can round together.
    rect = (x0 * side, y0 * side, x1 * side, y1 * side)
    if rect[0] >= rect[2] or rect[1] >= rect[3]:
        raise AnnotationError(
            f"{where}: empty box ({x0}, {y0}, {x1}, {y1}) at frame side {side:g}"
        )
    return GtObject(class_id, Rect(*rect))


def iter_frames(path: str, frame_spec: FrameSpec) -> Iterator[tuple[str, GroundTruthFrame]]:
    """Parse an annotation file line by line into (video, frame) pairs, in
    file order.

    A video's frames must carry strictly increasing frame ids, wherever its
    lines are in the file. Any malformed line raises AnnotationError naming
    the line, once the lines before it have been yielded. Each object is
    first tried against exact types (an int class, float coordinates) with
    plain comparisons, which accept a well-formed entry without a call per
    rule; only an entry that fails them goes through the full checks, which
    name the first rule it breaks.
    """
    last_ids: dict[str, int] = {}
    side = frame_spec.side
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AnnotationError(f"{where}: invalid JSON ({exc.msg})") from None
            except (ValueError, RecursionError) as exc:  # too many digits, too deep
                raise AnnotationError(f"{where}: unreadable JSON ({exc})") from None
            if not isinstance(record, dict):
                raise AnnotationError(f"{where}: record must be a JSON object")
            video = record.get("video")
            frame_id = record.get("frame")
            objects = record.get("objects")
            if not isinstance(video, str) or not video:
                raise AnnotationError(f"{where}: 'video' must be a nonempty string")
            if not isinstance(frame_id, int) or isinstance(frame_id, bool) or frame_id < 0:
                raise AnnotationError(f"{where}: 'frame' must be a nonnegative integer")
            if not isinstance(objects, list):
                raise AnnotationError(f"{where}: 'objects' must be a list")
            parsed = tuple([_parse_object(raw, side, where) for raw in objects])
            if last_ids.get(video, -1) >= frame_id:
                raise AnnotationError(
                    f"{where}: frame ids must be strictly increasing per video"
                )
            last_ids[video] = frame_id
            yield video, GroundTruthFrame(frame_id, parsed)


def read_annotations(path: str, frame_spec: FrameSpec) -> dict[str, list[GroundTruthFrame]]:
    """Parse a whole annotation file into per-video frame lists, each in
    file order, with the checks and messages of `iter_frames`."""
    videos: dict[str, list[GroundTruthFrame]] = {}
    for video, frame in iter_frames(path, frame_spec):
        videos.setdefault(video, []).append(frame)
    return videos


_BATCH = 64  # records per message to the encoder process
_PIPE_BYTES = 1 << 20  # pipe capacity asked for, so the producer seldom waits


def _batches(items: Iterable) -> Iterator[list]:
    """Lists of up to _BATCH items, each taken as marshal bytes the moment
    it is yielded; marshal's ValueError names an item it cannot carry."""
    batch = []
    for item in items:
        batch.append(marshal.dumps(item))
        if len(batch) == _BATCH:
            yield batch
            batch = []
    if batch:
        yield batch


def _encode(batches: Iterable[list], fh, lines=iter):
    """The encoder loop: one JSON line per record that `lines` makes of the
    items in `batches`; returns the value `lines` returns."""
    records = lines(marshal.loads(item) for batch in batches for item in batch)
    while True:
        try:
            record = next(records)
        except StopIteration as end:
            return end.value
        fh.write(json.dumps(record) + "\n")


def _send(pipe, message) -> bool:
    """Write one length-prefixed message; False once the reader has gone."""
    payload = marshal.dumps(message)
    try:
        for part in (len(payload).to_bytes(8, "little"), payload):
            view = memoryview(part)
            while view:
                view = view[pipe.write(view):]
    except BrokenPipeError:
        return False
    return True


def _received(pipe) -> Iterator:
    """The messages `_send` wrote, until the pipe is closed. Each is read
    whole: marshal.load would read a pipe object by object."""
    while header := pipe.read(8):
        yield marshal.loads(pipe.read(int.from_bytes(header, "little")))


def _encoder_child(fh, lines, data_r: int, report_w: int, parent_ends: tuple) -> None:
    """The forked encoder: write the lines `lines` makes of what the pipe
    brings into `fh`, then report (None, the value `lines` returns), or a
    failure as (the name of its exception's nearest built-in class, its
    args). It leaves only through os._exit, so it never returns into the
    caller's frames, runs their `finally` blocks or flushes the stdio
    buffers it inherited."""
    status = 1
    try:
        with open(report_w, "wb", buffering=0) as report:
            try:
                for fd in parent_ends:
                    os.close(fd)
                with open(data_r, "rb") as data:
                    outcome = None, _encode(_received(data), fh, lines)
                fh.flush()
            except Exception as exc:
                kind = next(c for c in type(exc).__mro__ if getattr(builtins, c.__name__, 0) is c)
                outcome = kind.__name__, exc.args
            _send(report, outcome)
        status = 0
    finally:
        os._exit(status)


def _encode_in_child(batches: Iterable[list], fh, lines):
    """Run `_encode` in a forked process that writes into `fh`, feed it the
    batches over a pipe, reap it however this ends, and return the value
    its `lines` returned."""
    data_r, data_w = os.pipe()
    report_r, report_w = os.pipe()
    if F_SETPIPE_SZ is not None:
        with suppress(OSError):  # above the system's limit: keep the default
            fcntl(data_w, F_SETPIPE_SZ, _PIPE_BYTES)
    with open(report_r, "rb") as report, open(data_w, "wb", buffering=0) as pipe:
        # SIGINT is blocked across the fork and stays blocked in the child
        # for its whole life: an interrupt stops this process, which then
        # ends the child.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pid = os.fork()
        except OSError:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            os.close(data_r)
            os.close(report_w)
            raise
        if pid == 0:
            _encoder_child(fh, lines, data_r, report_w, (data_w, report_r))
        os.close(data_r)
        os.close(report_w)
        try:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for batch in batches:
                if not _send(pipe, batch):
                    break  # the encoder failed; its report says why
            pipe.close()
            outcome = next(_received(report), None)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            status = os.waitpid(pid, 0)[1]
    if outcome is None:
        raise OSError(f"JSON encoder process ended with wait status {status}")
    failure, value = outcome
    if failure is not None:
        raise getattr(builtins, failure)(*value)
    return value


def write_jsonl(path: str, items: Iterable, lines=iter):
    """Write one JSON line per record that `lines` makes of `items`, in the
    order yielded, and return the value `lines` returns.

    `lines` takes an iterator of the items and yields one record for each;
    the default, `iter`, writes each item as its record. Each item is taken
    as soon as it is yielded, so the caller may reuse or drop it. A helper
    process forked for the call gets the items in batches, runs `lines`
    over them, encodes the records and writes the file while the caller
    goes on making the next items, and sends the value back as a marshal
    copy; where `os.fork` does not exist the same loop runs here. Items
    cross as marshal copies, so each must be built of exact built-in types
    (`flat_frame`'s form is); an item marshal refuses raises its
    ValueError. A record json cannot encode raises TypeError, a failure in
    the helper is raised here as its exception's nearest built-in class,
    and any failure, in either process, leaves neither a partial file nor
    the temporary one. No command starts a thread, so the fork never meets
    Python 3.12's DeprecationWarning about forking a process that has
    threads.
    """
    with replacing(path) as fh:
        encode = _encode_in_child if hasattr(os, "fork") else _encode
        return encode(_batches(items), fh, lines)


def write_json(path: str, payload: dict):
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
