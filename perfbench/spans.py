"""In-memory span recorder for the traced benchmark run.

A span is ``(id, name, start, end, parent, attrs)`` on the
``time.perf_counter`` clock.  The parent is the innermost span open in the
same context (a ``contextvars`` stack), so spans opened in an executor
thread start new roots.  The recorder wraps public entry points of the
library by replacing the attribute on its class or module for the length
of the traced run; :meth:`SpanRecorder.restore` puts every original back.
The untraced run never creates a recorder, so it runs the library as is.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans in memory; aggregates and writes them when asked."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _next_id(self) -> int:
        with self._lock:
            return next(self._ids)

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block as one span; yields its mutable attrs."""
        span_id = self._next_id()
        parent = self._current.get()
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, attrs))

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs) -> int:
        """Record a span whose bounds were measured elsewhere; returns its id."""
        span_id = self._next_id()
        with self._lock:
            self.spans.append(Span(span_id, name, start, end, parent, attrs))
        return span_id

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``describe(args, kwargs, result)`` may return extra span attributes
        (work counts) computed from the call.
        """
        original = getattr(owner, attr)
        # An attribute found on a base class (or the class of an instance)
        # is shadowed while traced and removed again on restore.
        owned = attr in vars(owner)
        recorder = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with recorder.span(name) as attrs:
                result = original(*args, **kwargs)
                if describe is not None:
                    attrs.update(describe(args, kwargs, result))
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original if owned else None))

    def restore(self) -> None:
        """Undo every :meth:`wrap`, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #
    def named(self, name: str, since: float = float("-inf"),
              until: float = float("inf")) -> list[Span]:
        """Spans called ``name`` that started inside ``[since, until)``."""
        return [s for s in self.spans if s.name == name and since <= s.start < until]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_time(self, name: str) -> float:
        """Total self time of the spans called ``name``."""
        self_times = self.self_times()
        return sum(self_times[s.id] for s in self.named(name))

    def self_times(self) -> dict[int, float]:
        """Per span id: its duration minus the time its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        result = {}
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for child in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(child.start, cursor), min(child.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[s.id] = s.duration - covered
        return result

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, total time and self time."""
        self_times = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            entry = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += s.duration
            entry["self_s"] += self_times[s.id]
        return out

    def write(self, path: Path, header: dict) -> None:
        """Write a header line, then one JSON line per span (start order)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"header": header, "summary": self.summary()}) + "\n")
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "attrs": s.attrs,
                }, default=str) + "\n")
