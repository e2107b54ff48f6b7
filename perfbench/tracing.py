"""Spans around the benchmark's calls into the package, kept in memory.

A span records a name, start, end, its parent span and any counts attached
to it.  The first part of a span's name is its layer (`noir.retrieve` is in
layer `noir`); a layer's self time is the time its spans cover minus the
time their child spans cover.  With tracing off every call goes straight
through, so an untraced run pays nothing for the hooks.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []  # dicts: name, start, end, parent, counts
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        """Record one span; yields its counts dict for the caller to fill."""
        if not self.enabled:
            yield {}
            return
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "counts": {}}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record["counts"]
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def trainer(self, name, fn):
        """Wrap a trainer so its span counts iterations and the gaps between
        successive `on_iteration` calls."""
        def traced(*args, on_iteration=None, **kwargs):
            if not self.enabled:
                return fn(*args, on_iteration=on_iteration, **kwargs)
            marks = []

            def tick(iteration, U, V, value):
                marks.append(time.perf_counter())
                if on_iteration is not None:
                    on_iteration(iteration, U, V, value)

            with self.span(name) as counts:
                model = fn(*args, on_iteration=tick, **kwargs)
                counts["iterations"] = len(marks)
                counts["gaps"] = [b - a for a, b in zip(marks, marks[1:])]
            return model
        return traced

    def durations(self, name):
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def counts(self, name, key):
        return [s["counts"][key] for s in self.spans
                if s["name"] == name and key in s["counts"]]

    def self_times(self):
        """{layer: seconds of self time} over every recorded span."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        totals = {}
        for s, inner in zip(self.spans, child_time):
            layer = s["name"].split(".", 1)[0]
            totals[layer] = totals.get(layer, 0.0) + (s["end"] - s["start"]) - inner
        return totals

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


@contextlib.contextmanager
def patched(module, replacements):
    """Temporarily replace module attributes by name ({name: new_object})."""
    saved = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)
