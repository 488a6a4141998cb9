"""Campaign telemetry: event journal, metrics and profiling hooks.

The fault-injection stack is instrumented end to end, off by default:

- :mod:`repro.telemetry.events` — the typed event vocabulary
  (``campaign_start`` … ``campaign_end``) with monotonic + wall clocks
  and run ids.
- :mod:`repro.telemetry.journal` — the durable record: an append-only
  JSONL file whose appends are single ``O_APPEND`` writes
  (:func:`repro.store.atomic_append_line`), safe to share between the
  campaign parent and its fork-pool workers.
- :mod:`repro.telemetry.metrics` — in-process counters, gauges and
  histogram timers, snapshot to JSON.
- :mod:`repro.telemetry.spans` — context-manager profiling spans around
  the hot paths.
- :mod:`repro.telemetry.core` — the :class:`Telemetry` sink threaded
  through the stack, and the zero-cost :class:`NullTelemetry` default.
- :mod:`repro.telemetry.stats` — journal summarisation (cell wall
  times, faults/sec, worker utilisation) behind the ``repro-stats`` CLI.
- :mod:`repro.telemetry.costmodel` — the campaign cost model fitted
  from those summaries: predicts wall clock and fault-evaluations per
  engine kind and worker count, tunes ``repro-dist submit --auto``, and
  is validated by predicted-vs-actual accounting in ``repro-stats``.

Instrumented call sites accept ``telemetry=None`` and gate on
``telemetry.enabled``, so the disabled path costs one attribute read per
cell/batch — never per fault — and allocates nothing.
"""

from repro.telemetry.costmodel import (
    CampaignPrediction,
    CostModel,
    CostModelError,
    EngineRate,
    PredictionComparison,
    SubmitChoice,
    choose_submit_settings,
    fit_cost_model,
    format_comparisons,
    load_bench,
    predicted_vs_actual,
)
from repro.telemetry.core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    progress_printer,
    resolve_telemetry,
)
from repro.telemetry.events import EVENT_TYPES, Event, new_run_id
from repro.telemetry.journal import Journal, read_journal
from repro.telemetry.metrics import Counter, Gauge, MetricsRegistry, Timer
from repro.telemetry.spans import NULL_SPAN, Span
from repro.telemetry.stats import (
    CampaignSummary,
    CellTiming,
    SpanStats,
    WorkerStats,
    format_summary,
    summarize_journal,
)

__all__ = [
    "EVENT_TYPES",
    "Event",
    "Journal",
    "NULL_SPAN",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "CampaignPrediction",
    "CampaignSummary",
    "CellTiming",
    "CostModel",
    "CostModelError",
    "Counter",
    "EngineRate",
    "Gauge",
    "MetricsRegistry",
    "PredictionComparison",
    "Span",
    "SpanStats",
    "SubmitChoice",
    "Telemetry",
    "Timer",
    "WorkerStats",
    "choose_submit_settings",
    "fit_cost_model",
    "format_comparisons",
    "format_summary",
    "load_bench",
    "new_run_id",
    "predicted_vs_actual",
    "progress_printer",
    "read_journal",
    "resolve_telemetry",
    "summarize_journal",
]
