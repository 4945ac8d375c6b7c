"""Span tracing of dnetknn from outside the package.

A Tracer replaces public functions of dnetknn modules by wrappers, at the
module attributes their callers look up, and records one span per call:
name, start, end and parent span.  Spans stay in memory while the run
measures and are written out when it ends.  Spans named in
`memory_spans` also get the tracemalloc peak of the allocations made
during the call; tracemalloc runs only inside those calls, because tracing
every allocation slows Python-heavy code such as the per-point energy
classifier by half.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0  # summed durations of the direct children
    peak_bytes: int = 0  # tracemalloc peak of the call, for memory spans
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


def span_name(fn) -> str:
    """'encoder.forward' for dnetknn.encoder.forward."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Wraps `targets` (pairs of module and attribute name) while entered.

    `measure` maps a span name to a function of (args, kwargs, result) that
    returns counts to store on the span; it runs after the span has closed,
    so its cost is not charged to the span.  `rename` maps a span name to a
    function of the call's args that may return a more specific name.
    A memory span called inside another one gets no peak.
    """

    def __init__(self, run_id: str, targets, measure=None, rename=None,
                 memory_spans=()):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._targets = list(targets)
        self._measure = measure or {}
        self._rename = rename or {}
        self._memory_spans = set(memory_spans)
        self._stack: list[Span] = []
        self._saved = []

    def __enter__(self):
        wrappers = {}
        for module, attr in self._targets:
            original = getattr(module, attr)
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original)
            self._saved.append((module, attr, original))
            setattr(module, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc_info):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, fn):
        name = span_name(fn)
        rename = self._rename.get(name)
        measure = self._measure.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open((rename(args) or name) if rename else name)
            memory = name in self._memory_spans and not tracemalloc.is_tracing()
            if memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if memory:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(span)
            if measure is not None:
                span.counts.update(measure(args, kwargs, result))
            return result

        return traced

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None, name, 0.0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.seconds

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "run": self.run_id, "id": s.id, "parent": s.parent,
                    "name": s.name, "start": s.start, "end": s.end,
                    "self_s": s.self_s, "peak_bytes": s.peak_bytes, **s.counts,
                }) + "\n")
