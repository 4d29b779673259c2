"""Spans recorded from the benchmark's own code, around calls into layers.

A :class:`SpanRecorder` keeps ``(name, start_ns, end_ns, parent)`` in
memory.  :meth:`SpanRecorder.wrap` replaces a callable at the name its
caller looks it up by (a module global or a class attribute) with a
timed wrapper, and :meth:`SpanRecorder.restore` puts every original
back, so nothing under ``src/`` changes.  Nested wrapped calls record
their parent, which is what the self-time table needs.

The spans export as a Chrome ``trace_event`` document, the same shape
``repro trace`` writes, so Perfetto opens both side by side.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager


class SpanRecorder:
    """In-memory span list plus the patches that feed it."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent_index or -1]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Time every call of ``owner.attr`` as a span named ``name``.

        ``on_result(result)`` — when given — sees each return value
        (counting useful outcomes without a second call).
        """
        original = getattr(owner, attr)
        rec = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            with rec.span(name):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def total_s(spans: list[list], name: str) -> float:
    """Summed duration of every span called ``name``."""
    return sum(e - s for n, s, e, _p in spans if n == name) / 1e9


def count(spans: list[list], name: str) -> int:
    """Number of spans called ``name``."""
    return sum(1 for n, *_ in spans if n == name)


def self_s(spans: list[list], name: str) -> float:
    """Summed self time (duration minus direct children) of ``name``."""
    return sum(ns for sp, ns in zip(spans, _self_ns(spans))
               if sp[0] == name) / 1e9


def first_s(spans: list[list], name: str, *, self_time: bool = False
            ) -> float:
    """Duration (or self time) of the first span called ``name``;
    0.0 when there is none."""
    selfs = _self_ns(spans) if self_time else None
    for i, (n, s, e, _p) in enumerate(spans):
        if n == name:
            return (selfs[i] if selfs is not None else e - s) / 1e9
    return 0.0


def _self_ns(spans: list[list]) -> list[int]:
    """Per-span self time in ns.

    Children of one parent run one after another (one thread), so they
    never overlap and subtracting their summed durations is exact.
    """
    out = [e - s for _n, s, e, _p in spans]
    for _n, s, e, parent in spans:
        if parent >= 0:
            out[parent] -= e - s
    return out


def layer_table(spans: list[list]) -> dict[str, float]:
    """Self seconds per layer (the span name's prefix before the dot).

    The root spans are named ``bench.*``; their self time is the part
    of the wall no layer span covers and is reported as ``uncovered``.
    """
    out: dict[str, float] = {}
    for (name, *_), ns in zip(spans, _self_ns(spans)):
        layer = name.split(".", 1)[0]
        layer = "uncovered" if layer == "bench" else layer
        out[layer] = out.get(layer, 0.0) + ns / 1e9
    return out


def chrome_trace(passes: list[dict]) -> dict:
    """One Chrome ``trace_event`` document for every traced pass.

    ``passes`` holds ``{"pid", "label", "spans"}`` per process; each
    span becomes a complete (``"ph": "X"``) event with microsecond
    times and its span id and parent id in ``args``.
    """
    events = []
    for p in passes:
        pid = p["pid"]
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": p["label"]}})
        for i, (name, s, e, parent) in enumerate(p["spans"]):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": s / 1e3,
                "dur": (e - s) / 1e3,
                "pid": pid,
                "tid": 0,
                "args": {"id": i, "parent": parent},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
