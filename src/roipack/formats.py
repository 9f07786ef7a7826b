"""Reading and writing the line-oriented dataset and result files.

Annotations are JSON Lines, one frame per line:

    {"video": "v0000", "frame": 0, "objects": [
        {"class": 1, "x0": 0.1, "y0": 0.2, "x1": 0.4, "y1": 0.5}, ...]}

Coordinates are normalized to [0, 1] and scaled to the working frame side
on ingest. Result files mirror the input records and add the processing
decision and the detections (with confidence); packed frames also carry
their plan in working-frame pixels. Annotation lines and result lines share
one frame encoder, `_frame_entry`, and one writer, `write_jsonl`.

Every file is written to `<path>.tmp` and moved over `path` once complete.
`write_jsonl` encodes and writes each record as its iterable yields it, so
a caller can stream records that are made one at a time; a failure while
producing them leaves neither a partial file nor the temporary one.
"""

import json
import os
from contextlib import contextmanager, suppress
from typing import Iterable, Mapping, Sequence

from .costmodel import FrameDecision
from .geometry import FrameSpec, Rect
from .packing import PackPlan
from .pipeline import Detection, GroundTruthFrame, GtObject


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


def _rect_to_norm(rect: Rect, side: float) -> dict:
    return {
        "x0": rect.x_min / side,
        "y0": rect.y_min / side,
        "x1": rect.x_max / side,
        "y1": rect.y_max / side,
    }


def _frame_entry(video: str, frame: GroundTruthFrame, side: float) -> dict:
    """A frame's annotation line; its result line starts from it."""
    objects = [{"class": o.class_id, **_rect_to_norm(o.rect, side)} for o in frame.objects]
    return {"video": video, "frame": frame.frame_id, "objects": objects}


def write_annotations(
    path: str, videos: Mapping[str, Sequence[GroundTruthFrame]], frame_spec: FrameSpec
):
    side = frame_spec.side
    write_jsonl(path, (_frame_entry(name, f, side) for name in videos for f in videos[name]))


def _parse_object(raw: object, side: float, where: str) -> GtObject:
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
        if not 0.0 <= float(v) <= 1.0:
            raise AnnotationError(f"{where}: coordinate {v} outside [0, 1]")
    x0, y0, x1, y1 = (float(v) for v in coords)
    if x0 >= x1 or y0 >= y1:
        raise AnnotationError(f"{where}: empty box ({x0}, {y0}, {x1}, {y1})")
    return GtObject(class_id, Rect(x0 * side, y0 * side, x1 * side, y1 * side))


def read_annotations(path: str, frame_spec: FrameSpec) -> dict[str, list[GroundTruthFrame]]:
    """Parse an annotation file into per-video frame lists.

    Frames keep file order per video and must carry strictly increasing
    frame ids. Any malformed line raises AnnotationError naming the line.
    """
    videos: dict[str, list[GroundTruthFrame]] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}: line {lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise AnnotationError(f"{where}: invalid JSON ({exc.msg})") from None
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
            parsed = tuple(
                _parse_object(raw, frame_spec.side, where) for raw in objects
            )
            frames = videos.setdefault(video, [])
            if frames and frame_id <= frames[-1].frame_id:
                raise AnnotationError(
                    f"{where}: frame ids must be strictly increasing per video"
                )
            frames.append(GroundTruthFrame(frame_id, parsed))
    return videos


def detection_entry(det: Detection, side: float) -> dict:
    return {
        "class": det.class_id,
        "confidence": det.confidence,
        **_rect_to_norm(det.rect, side),
    }


def _rect_list(rect: Rect) -> list[float]:
    return [rect.x_min, rect.y_min, rect.x_max, rect.y_max]


def plan_entry(plan: PackPlan) -> dict:
    """Plan summary in working-frame pixels (src at full size, dst reduced)."""
    return {
        "method": plan.method.value,
        "slots": [
            {
                "src": _rect_list(slot.src),
                "dst": _rect_list(slot.dst),
                "scale": [slot.scale_x, slot.scale_y],
            }
            for slot in plan.slots
        ],
    }


def result_record(
    video: str,
    frame: GroundTruthFrame,
    decision: FrameDecision,
    detections: Sequence[Detection],
    frame_spec: FrameSpec,
) -> dict:
    side = frame_spec.side
    record = _frame_entry(video, frame, side)
    record["decision"] = decision.kind.value
    record["detections"] = [detection_entry(det, side) for det in detections]
    if decision.plan is not None:
        record["plan"] = plan_entry(decision.plan)
    return record


def write_jsonl(path: str, records: Iterable[dict]):
    """Write one JSON line per record, each as soon as it is yielded."""
    with replacing(path) as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_json(path: str, payload: dict):
    with replacing(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
