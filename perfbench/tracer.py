"""Run one roipack command with timing spans around each layer's public functions.

Usage: python perfbench/tracer.py SPANS_OUT.json ROIPACK_ARG...

The wrappers are installed from outside the package, at the name each caller
looks the function up by, so nothing in `src/` changes. Spans (name, start,
end, parent index, note) are kept in memory and written to SPANS_OUT.json
when the command ends. Geometry helpers are deliberately not wrapped: they
are called at microsecond granularity and their time lands in the callers'
self time.
"""

import functools
import importlib
import json
import sys
import time


def _returned_plan(args, result):
    return result is not None


def _view_kind(args, result):
    return type(args[2]).__name__


def _kept(args, result):
    return [len(args[0]), len(result)]


# (module, attribute path in that module, span name, note taken from a call)
TARGETS = (
    ("roipack.cli", "read_annotations", "formats.read_annotations", None),
    ("roipack.cli", "result_record", "formats.result_record", None),
    ("roipack.cli", "write_jsonl", "formats.write_jsonl", None),
    ("roipack.cli", "write_annotations", "formats.write_annotations", None),
    ("roipack.cli", "gen_synthetic", "simdet.gen_synthetic", None),
    ("roipack.cli", "run_video", "pipeline.run_video", None),
    ("roipack.cli", "pack", "packing.pack", _returned_plan),
    ("roipack.cli", "aggregate", "costmodel.aggregate", None),
    ("roipack.cli", "evaluate_detections", "evaluation.evaluate_detections", None),
    ("roipack.pipeline", "aggregate", "costmodel.aggregate", None),
    ("roipack.pipeline", "map_back", "pipeline.map_back", _kept),
    ("roipack.packing", "merge_overlaps", "packing.merge_overlaps", None),
    ("roipack.packing", "place_and_fit", "packing.place_and_fit", _returned_plan),
    ("roipack.packing", "expand_greedy", "packing.expand_greedy", None),
    ("roipack.simdet", "SimulatedDetector.detect", "simdet.detect", _view_kind),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[4] = note(args, result)
            return result

        return traced

    def install(self, targets=TARGETS) -> list:
        """Wrap every target that exists; return the span names of those that do not."""
        missing = []
        for module_name, path, name, note in targets:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(name)
                continue
            setattr(owner, attr, self.wrap(name, fn, note))
        return missing


def main(argv) -> int:
    out_path, command = argv[0], argv[1:]
    import roipack.cli

    tracer = Tracer()
    missing = tracer.install()
    status = tracer.wrap("cli.main", roipack.cli.main)(command)
    with open(out_path, "w") as fh:
        json.dump({"status": status, "untraced": missing, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
