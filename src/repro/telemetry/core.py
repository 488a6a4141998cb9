"""The telemetry sink handed through the campaign stack.

Every instrumented call site takes ``telemetry: Telemetry | None = None``
and resolves ``None`` to the shared :data:`NULL_TELEMETRY`.  Call sites
gate their instrumentation on ``telemetry.enabled`` — a plain attribute
read — so the disabled path adds one branch per *cell or batch*, never
per fault, and allocates nothing.

An enabled :class:`Telemetry` bundles the two backends:

- a :class:`~repro.telemetry.journal.Journal` (durable JSONL events), and
- a :class:`~repro.telemetry.metrics.MetricsRegistry` (in-process
  aggregates, snapshot to JSON at the end of a run).

Either may be omitted: metrics-only telemetry skips journal writes,
journal-only telemetry still aggregates (into its private registry) so
spans always have somewhere to land.
"""

from __future__ import annotations

import os

from repro.telemetry.events import Event, new_run_id
from repro.telemetry.journal import Journal
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry, Timer
from repro.telemetry.spans import NULL_SPAN, Span, _NullSpan


class Telemetry:
    """An enabled sink: events to the journal, aggregates to the registry."""

    enabled = True

    def __init__(
        self,
        *,
        journal: Journal | None = None,
        metrics: MetricsRegistry | None = None,
        run_id: str | None = None,
        on_event=None,
    ) -> None:
        self.journal = journal
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.run_id = run_id or (journal.run_id if journal else new_run_id())
        #: Optional ``callable(Event)`` invoked on every emitted event in
        #: the emitting process — live progress displays hook in here.
        self.on_event = on_event

    @classmethod
    def to_file(
        cls, trace_path: str | os.PathLike, *, run_id: str | None = None
    ) -> "Telemetry":
        """Telemetry journaling to *trace_path* (the CLI ``--trace`` form)."""
        return cls(journal=Journal(trace_path, run_id=run_id))

    # -- events ----------------------------------------------------------

    def emit(self, type: str, **fields) -> Event:
        """Record one event: journal it (if any) and notify ``on_event``."""
        event = Event.now(type, self.run_id, **fields)
        if self.journal is not None:
            self.journal.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    # -- spans -----------------------------------------------------------

    def span(self, name: str, *, emit: bool = False, **fields) -> Span:
        """Time a section; ``emit=True`` also journals it on exit."""
        return Span(
            name, self.metrics, self.journal, emit=emit, fields=fields
        )

    # -- metrics ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def timer(self, name: str) -> Timer:
        return self.metrics.timer(name)

    def save_metrics(self, path: str | os.PathLike) -> None:
        self.metrics.save(path)


class NullTelemetry(Telemetry):
    """The zero-cost default: every operation is a no-op.

    ``enabled`` is ``False`` so hot paths can skip instrumentation with
    one attribute read; even unguarded calls cost only a constant-return
    method — no allocation, no I/O, no timestamps.
    """

    enabled = False

    def __init__(self) -> None:  # no backends to build
        self.journal = None
        self.metrics = MetricsRegistry()
        self.run_id = "null"
        self.on_event = None

    def emit(self, type: str, **fields) -> None:
        return None

    def span(self, name: str, *, emit: bool = False, **fields) -> _NullSpan:
        return NULL_SPAN

    def save_metrics(self, path: str | os.PathLike) -> None:
        return None


#: Shared no-op sink; ``resolve_telemetry(None)`` returns this.
NULL_TELEMETRY = NullTelemetry()


def resolve_telemetry(telemetry: Telemetry | None) -> Telemetry:
    """Normalise an optional telemetry argument to a usable sink."""
    return NULL_TELEMETRY if telemetry is None else telemetry


def progress_printer(prefix: str = "  progress"):
    """An ``on_event`` hook printing ``progress`` events as they arrive::

        telemetry = Telemetry(on_event=progress_printer("  exhaustive"))
    """

    def on_event(event: Event) -> None:
        if event.type == "progress":
            done, total = event.fields["done"], event.fields["total"]
            print(f"{prefix}: {done:,}/{total:,}", flush=True)

    return on_event
