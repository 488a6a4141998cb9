"""Command-line entry points.

- ``repro-plan`` — print campaign plans (sample sizes per subpopulation)
  for a model, reproducing the paper's Table I layout.
- ``repro-run`` — execute a statistical (or exhaustive) campaign on a
  pretrained mini model and print the resulting estimates.
- ``repro-analyze`` — criticality analyses over cached exhaustive results:
  most critical layer/bit, per-bit rates, data-aware p(i) profile.
- ``repro-train`` — train reference models and cache their weights.
- ``repro-verify-artifacts`` — integrity-check every artifact against its
  ``MANIFEST.json`` checksum and zip structure.
- ``repro-stats`` — summarise telemetry journals into per-phase timing
  tables, throughput and worker utilisation (several per-worker
  journals from one distributed campaign merge into one timeline).
- ``repro-dist`` — sharded campaigns over a file-backed work queue:
  ``submit`` / ``work`` / ``status`` / ``merge``, drainable by any
  number of workers on any host sharing the queue directory.
- ``repro-check`` — static analysis: verify captured execution plans
  (``plan``) and run the determinism linter (``lint``).

Entry points that do real work (`plan`, `run`, `analyze`, `train`) share
the ``--trace``/``--metrics-out`` telemetry flags via
:func:`add_telemetry_arguments` / :func:`telemetry_from_args`.
"""

from __future__ import annotations

import argparse

from repro.telemetry import Journal, Telemetry

__all__ = [
    "plan",
    "run",
    "analyze",
    "train",
    "verify",
    "stats",
    "dist",
    "check",
    "add_telemetry_arguments",
    "telemetry_from_args",
    "finish_telemetry",
]


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--trace`` / ``--metrics-out`` options."""
    group = parser.add_argument_group("telemetry")
    group.add_argument(
        "--trace",
        metavar="JOURNAL",
        default=None,
        help="append telemetry events to this JSONL journal "
        "(summarise it with repro-stats)",
    )
    group.add_argument(
        "--metrics-out",
        metavar="JSON",
        default=None,
        help="write the metrics snapshot (counters/gauges/timers) to "
        "this JSON file on exit",
    )


def telemetry_from_args(
    args: argparse.Namespace, *, on_event=None
) -> Telemetry | None:
    """Build the telemetry sink the flags ask for (``None`` when off).

    *on_event* (a ``callable(Event)``) forces an enabled sink even
    without flags — CLIs use it to print live progress from ``progress``
    events.
    """
    if args.trace is None and args.metrics_out is None and on_event is None:
        return None
    journal = Journal(args.trace) if args.trace is not None else None
    return Telemetry(journal=journal, on_event=on_event)


def finish_telemetry(
    telemetry: Telemetry | None, args: argparse.Namespace
) -> None:
    """Flush end-of-run telemetry outputs (the metrics snapshot)."""
    if telemetry is None:
        return
    if args.metrics_out is not None:
        telemetry.save_metrics(args.metrics_out)
    if args.trace is not None:
        print(
            f"telemetry: journal at {args.trace} "
            f"(run id {telemetry.run_id}; summarise with "
            f"`repro-stats {args.trace}`)"
        )
