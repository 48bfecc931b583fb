"""Spans around the calls into each cycleint layer.

While installed, every public module-level function of the layers is
replaced, in every module namespace that holds it, by a wrapper that records
a span: function name, start, end and the span it was called from. A call
from a function of the same layer records nothing, so spans mark layer
boundaries and a layer's self time (its spans' durations minus the part their
child spans cover) counts work done inside that layer only. Spans are kept in
memory as flat arrays and written out by :meth:`Tracer.dump`.

Generator functions (``perm.all_permutations``) return at once; the walk over
the generator is counted as work of the layer that iterates it.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

# module name -> layer name; report shares the cli layer, config has no
# public functions that do work
LAYERS = {
    "cycleint.perm": "perm",
    "cycleint.intersect": "intersect",
    "cycleint.transform": "transform",
    "cycleint.gensets": "gensets",
    "cycleint.extremal": "extremal",
    "cycleint.search": "search",
    "cycleint.report": "cli",
    "cycleint.cli": "cli",
}


class Tracer:
    def __init__(self, modules):
        self.modules = modules          # every namespace to patch
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []       # ids of the spans now running
        self._layers: list[str | None] = [None]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[object, object] = {}

    def __enter__(self) -> "Tracer":
        wrappers = self._wrappers
        for module in self.modules:
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                layer = LAYERS.get(fn.__module__)
                if layer is None:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, layer)
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, layer: str):
        name_id = len(self.names)
        self.names.append(f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}")
        self.name_layer.append(layer)
        layers, open_spans = self._layers, self._open
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if layers[-1] is layer:
                return fn(*args, **kwargs)
            span = len(starts)
            names.append(name_id)
            parents.append(open_spans[-1] if open_spans else -1)
            ends.append(0.0)
            open_spans.append(span)
            layers.append(layer)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                layers.pop()
                open_spans.pop()

        return traced

    def __len__(self) -> int:
        return len(self.span_start)

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer outside the spans it called."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        covered = [0.0] * len(durations)
        for span, parent in enumerate(self.span_parent):
            if parent >= 0:
                covered[parent] += durations[span]
        totals = {layer: 0.0 for layer in dict.fromkeys(LAYERS.values())}
        for span, name_id in enumerate(self.span_name):
            totals[self.name_layer[name_id]] += durations[span] - covered[span]
        return totals

    def dump(self, path, extra: dict) -> None:
        """Write every span, column by column, with the layer self times."""
        payload = dict(extra)
        payload["self_s"] = self.self_times()
        payload["names"] = self.names
        payload["name_layer"] = self.name_layer
        origin = self.span_start[0] if len(self) else 0.0
        payload["spans"] = {
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start_s": [round(s - origin, 7) for s in self.span_start],
            "end_s": [round(e - origin, 7) for e in self.span_end],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
