"""In-memory span recorder and the self-time arithmetic over its spans.

A span is one call across a layer boundary: its name, start and end on
the monotonic clock, the span that was open when it started (its
parent), and the id of the work item it served.  Spans stay in memory
while the workload runs and are written out once, after it ends, so the
recorder adds a list append per call and no I/O.

Self time is a span's duration minus the part of it that its child
spans cover.  Over a properly nested tree the self times sum to the
time covered by the top-level spans, so ``wall - sum(self)`` is the
time no boundary accounts for (:func:`reconcile`).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    """One recorded call.  ``parent`` is an index into the span list."""

    name: str
    start: float
    end: float
    parent: int
    trace: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread.

    ``trace`` is the id stamped on every span opened while it is set:
    the benchmark sets it to ``"setup"`` and then to one id per cell,
    stratum or campaign, so all spans of one work item share an id.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.trace = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block; yields the span's attrs for updates."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = Span(name, self.clock(), 0.0, parent, self.trace, attrs)
        self.spans.append(span)
        self._open.append(index)
        try:
            yield attrs
        finally:
            self._open.pop()
            span.end = self.clock()

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        """Add an already-finished span under the currently open one."""
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, start, end, parent, self.trace, attrs))

    def dump(self, path: str) -> None:
        """Write every span as JSON, atomically (called once, after the run)."""
        from repro.store import atomic_write_bytes

        spans = [asdict(s) for s in self.spans]
        atomic_write_bytes(path, json.dumps(spans, sort_keys=True).encode("utf-8"))


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - covered(kids, span.start, span.end)
        for span, kids in zip(spans, children)
    ]


def reconcile(spans: list[Span], wall: float) -> tuple[float, float]:
    """``(sum of self times, unattributed)`` for a run of *wall* seconds.

    ``unattributed = wall - sum(self)``: with nested spans the self
    times sum to the union of the top-level spans, so this is the time
    spent outside every recorded boundary.
    """
    attributed = sum(self_times(spans))
    return attributed, wall - attributed
