"""Span recording for the benchmark's traced runs.

Spans are opened only by the benchmark itself: either at its own call sites
(``with tracer.span(...)``) or by :meth:`Tracer.wrap`, which replaces one
public method on one instance the benchmark built.  The wrapped methods are
layer-boundary batch calls (``run_trace``, ``access_many``,
``fetch_rows``, ...), never a per-access hook: wrapping a hook that the
fused array drivers bypass would force the engine onto its slow path and
measure code production does not run.  Because an instance attribute
shadows the class method, calls the library makes on itself (``run_trace``
calling ``self.preprocess``) are recorded too, while class-level capability
checks still see the unmodified class.

Spans live in memory until the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass
class Span:
    """One recorded interval; ``parent`` indexes the enclosing span or is -1."""

    name: str
    start_ns: int
    end_ns: int
    parent: int

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """In-memory span recorder; parents are tracked per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a span named ``name``."""
        stack = self._stack()
        record = Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else -1)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end_ns = time.perf_counter_ns()
            stack.pop()

    def wrap(self, obj: object, method: str, name: str) -> None:
        """Record every call of ``obj.method`` as a span named ``name``."""
        inner = getattr(obj, method)

        def traced(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, method, traced)

    # ------------------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every span called ``name``, in start order."""
        return [span.duration_s for span in self.spans if span.name == name]

    def total(self, names: Sequence[str]) -> float:
        """Summed duration (seconds) of the spans with any of ``names``."""
        return sum(span.duration_s for span in self.spans if span.name in names)

    def self_total(self, names: Sequence[str]) -> float:
        """Summed self time (seconds) of the spans with any of ``names``."""
        own = self_times(self.spans)
        return sum(t for span, t in zip(self.spans, own) if span.name in names)


def union_ns(intervals: Sequence[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    covered = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(spans: Sequence[Span]) -> list[float]:
    """Self time (seconds) of every span: duration minus its children's cover.

    Children are clipped to their parent's interval, and overlapping
    children (possible when they ran on other threads) are counted once.
    """
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            parent = spans[span.parent]
            start = max(span.start_ns, parent.start_ns)
            end = min(span.end_ns, parent.end_ns)
            if end > start:
                children[span.parent].append((start, end))
    return [
        (span.end_ns - span.start_ns - union_ns(kids)) * 1e-9
        for span, kids in zip(spans, children)
    ]
