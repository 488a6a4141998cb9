"""Journal summarisation: from raw events to campaign statistics.

This is the read side of the telemetry subsystem (the ``repro-stats``
CLI is a thin shell around it): group a journal's events by run id and
reconstruct, per campaign, what the operator actually asks about —
per-(layer, bit) cell wall times, overall faults/sec and inferences/sec,
per-worker utilisation, checkpoint/resume behaviour, and per-phase span
timings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.telemetry.events import Event
from repro.telemetry.journal import read_journal


@dataclass(frozen=True)
class CellTiming:
    """Wall time of one classified (layer, bit) cell."""

    layer: int
    bit: int
    seconds: float
    faults: int
    inferences: int
    pid: int


@dataclass(frozen=True)
class WorkerStats:
    """One process's share of a campaign."""

    pid: int
    cells: int
    busy_seconds: float
    utilisation: float  # busy_seconds / campaign wall time, in [0, 1]ish


@dataclass(frozen=True)
class SpanStats:
    """Aggregated timings of one named span."""

    name: str
    count: int
    total_seconds: float
    mean_seconds: float
    max_seconds: float


@dataclass
class CampaignSummary:
    """Everything the journal says about one run id."""

    run_id: str
    kind: str  # "exhaustive" | "sampled" | "train" | "unknown"
    started_wall: float | None = None
    elapsed_seconds: float = 0.0
    finished: bool = False
    # Work accounting.
    population: int | None = None  # total faults in the space, if known
    faults_classified: int = 0  # classified *in this run* (resumes excluded)
    inferences: int = 0
    cells: list[CellTiming] = field(default_factory=list)
    # Plan-engine accounting (zero when the module engine ran).
    tail_passes: int = 0  # tail passes (each covers >= 1 faults)
    ops_executed: int = 0  # plan ops recomputed across all tail passes
    ops_cached: int = 0  # plan ops served from the golden op cache
    # Checkpointing.
    cells_resumed: int = 0
    cells_total: int | None = None
    checkpoint_writes: int = 0
    resumed: bool = False
    # Concurrency.
    workers: list[WorkerStats] = field(default_factory=list)
    heartbeats: int = 0
    # Distributed shards (repro.dist campaigns).
    shards_done: int = 0
    shards_requeued: int = 0
    shards_poisoned: int = 0
    shards_split: int = 0
    shard_workers: list[str] = field(default_factory=list)
    merged: bool = False
    # Idle accounting (starvation vs slowness for the cost model).
    idle_events: int = 0
    idle_workers: list[str] = field(default_factory=list)
    # Cost-model predictions issued in this run (``campaign_predicted``
    # event fields, plus the event's monotonic ``t``).
    predictions: list[dict] = field(default_factory=list)
    # Monotonic window of actual campaign *work* (cell/shard/progress
    # events) — lets a fleet of per-worker summaries be aggregated into
    # one actual wall clock for predicted-vs-actual accounting.
    work_t_first: float | None = None
    work_t_last: float | None = None
    # Profiling.
    spans: list[SpanStats] = field(default_factory=list)
    # Anything the campaign_start event carried (model, method, ...).
    info: dict = field(default_factory=dict)

    @property
    def faults_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.faults_classified / self.elapsed_seconds

    @property
    def inferences_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.inferences / self.elapsed_seconds

    @property
    def batched_faults_per_pass(self) -> float:
        """Mean logical fault inferences amortised per tail pass."""
        if not self.tail_passes:
            return 0.0
        return self.inferences / self.tail_passes

    @property
    def op_cache_hit_rate(self) -> float:
        """Fraction of plan ops served from the golden op cache."""
        total = self.ops_executed + self.ops_cached
        if not total:
            return 0.0
        return self.ops_cached / total

    @property
    def resume_hit_rate(self) -> float:
        """Fraction of the space's cells served from the checkpoint."""
        if not self.cells_total:
            return 0.0
        return self.cells_resumed / self.cells_total

    def cell_seconds(self) -> dict[tuple[int, int], float]:
        """(layer, bit) -> wall seconds for every cell classified here."""
        return {(c.layer, c.bit): c.seconds for c in self.cells}

    def slowest_cells(self, n: int = 10) -> list[CellTiming]:
        return sorted(self.cells, key=lambda c: c.seconds, reverse=True)[:n]


def summarize_journal(
    source: str | os.PathLike | list[Event],
) -> list[CampaignSummary]:
    """Summaries of every campaign in a journal, in first-seen order.

    Events are grouped by run id, then split into one summary per
    campaign: a single CLI invocation shares one run id across e.g. an
    exhaustive ground-truth run followed by the sampled campaign, and
    merging those would blend their throughputs into nonsense.
    """
    events = source if isinstance(source, list) else read_journal(source)
    by_run: dict[str, list[Event]] = {}
    for event in events:
        by_run.setdefault(event.run_id, []).append(event)
    summaries = []
    for run_id, evs in by_run.items():
        for segment in _split_campaigns(evs):
            summaries.append(_summarize_run(run_id, segment))
    return summaries


def _split_campaigns(events: list[Event]) -> list[list[Event]]:
    """Split one run's events at ``campaign_start`` boundaries.

    Events preceding the first ``campaign_start`` (planning spans,
    cache-hit records, ...) stay with the first campaign.
    """
    segments: list[list[Event]] = [[]]
    started = False
    for event in events:
        if event.type == "campaign_start" and started:
            segments.append([])
        if event.type == "campaign_start":
            started = True
        segments[-1].append(event)
    return segments


_WORK_EVENTS = frozenset(
    {
        "cell_start",
        "cell_done",
        "checkpoint_write",
        "progress",
        "shard_claim",
        "shard_done",
        "shard_fail",
        "worker_heartbeat",
    }
)


def _summarize_run(run_id: str, events: list[Event]) -> CampaignSummary:
    summary = CampaignSummary(run_id=run_id, kind="unknown")
    start_t: float | None = None
    end_t: float | None = None
    explicit_elapsed: float | None = None
    span_acc: dict[str, list[float]] = {}
    worker_busy: dict[int, list[float]] = {}
    shard_workers: list[str] = summary.shard_workers

    for event in events:
        f = event.fields
        if event.type in _WORK_EVENTS:
            if summary.work_t_first is None:
                summary.work_t_first = event.t
            summary.work_t_last = event.t
        if event.type == "campaign_start":
            start_t = event.t
            summary.started_wall = event.wall
            summary.kind = f.get("kind", "unknown")
            summary.population = f.get("total")
            summary.cells_total = f.get("cells_total")
            summary.info = {
                k: v
                for k, v in f.items()
                if k not in {"kind", "total", "cells_total"}
            }
        elif event.type == "campaign_end":
            end_t = event.t
            summary.finished = True
            if "elapsed_seconds" in f:
                explicit_elapsed = float(f["elapsed_seconds"])
            for key, value in f.items():
                if key != "elapsed_seconds":
                    summary.info.setdefault(key, value)
        elif event.type == "cell_done":
            if "layer" not in f or "bit" not in f:
                continue  # torn or foreign record: summarise what's present
            timing = CellTiming(
                layer=int(f["layer"]),
                bit=int(f["bit"]),
                seconds=float(f.get("seconds", 0.0)),
                faults=int(f.get("faults", 0)),
                inferences=int(f.get("inferences", 0)),
                pid=event.pid,
            )
            summary.cells.append(timing)
            summary.faults_classified += timing.faults
            summary.inferences += timing.inferences
            summary.tail_passes += int(f.get("tail_passes", 0))
            summary.ops_executed += int(f.get("ops_executed", 0))
            summary.ops_cached += int(f.get("ops_cached", 0))
            worker_busy.setdefault(event.pid, []).append(timing.seconds)
        elif event.type == "checkpoint_write":
            summary.checkpoint_writes += 1
        elif event.type == "checkpoint_resume":
            summary.resumed = True
            summary.cells_resumed = int(f.get("cells_resumed", 0))
            if summary.cells_total is None:
                summary.cells_total = f.get("cells_total")
        elif event.type == "worker_heartbeat":
            summary.heartbeats += 1
        elif event.type == "shard_done":
            summary.shards_done += 1
            worker = f.get("worker")
            if worker and worker not in shard_workers:
                shard_workers.append(worker)
        elif event.type == "shard_requeue":
            summary.shards_requeued += 1
        elif event.type == "shard_poison":
            summary.shards_poisoned += 1
        elif event.type == "shard_split":
            summary.shards_split += 1
        elif event.type == "merge_done":
            summary.merged = True
        elif event.type == "campaign_predicted":
            summary.predictions.append({**f, "t": event.t})
        elif event.type == "worker_idle":
            summary.idle_events += 1
            worker = f.get("worker")
            if worker and worker not in summary.idle_workers:
                summary.idle_workers.append(worker)
        elif event.type == "span":
            if "name" not in f or "seconds" not in f:
                continue  # span whose end never landed (killed mid-section)
            span_acc.setdefault(f["name"], []).append(float(f["seconds"]))
        elif event.type == "epoch_done":
            summary.kind = "train"

    if summary.kind == "unknown" and (
        summary.shards_done or summary.shards_requeued
    ):
        # A per-worker journal from a distributed campaign: shard events
        # but no campaign_start (that one lives in the submitter's log).
        summary.kind = "dist-worker"

    # Prefer the campaign's own elapsed measure; fall back to the event
    # timestamp window (e.g. for killed runs with no campaign_end).
    times = [event.t for event in events]
    window_start = start_t if start_t is not None else min(times)
    window_end = end_t if end_t is not None else max(times)
    summary.elapsed_seconds = max(0.0, window_end - window_start)
    if explicit_elapsed is not None:
        summary.elapsed_seconds = explicit_elapsed

    window = summary.elapsed_seconds
    for pid in sorted(worker_busy):
        busy = sum(worker_busy[pid])
        summary.workers.append(
            WorkerStats(
                pid=pid,
                cells=len(worker_busy[pid]),
                busy_seconds=busy,
                utilisation=busy / window if window > 0 else 0.0,
            )
        )

    for name in sorted(span_acc):
        samples = span_acc[name]
        summary.spans.append(
            SpanStats(
                name=name,
                count=len(samples),
                total_seconds=sum(samples),
                mean_seconds=sum(samples) / len(samples),
                max_seconds=max(samples),
            )
        )
    return summary


# -- rendering ------------------------------------------------------------


def format_summary(summary: CampaignSummary, *, top_cells: int = 10) -> str:
    """One campaign as a human-readable block of tables."""
    lines: list[str] = []
    title = f"run {summary.run_id} [{summary.kind}]"
    if summary.started_wall is not None and not summary.finished:
        title += " (no campaign_end — killed or still running)"
    lines.append(title)
    info = " ".join(f"{k}={v}" for k, v in sorted(summary.info.items()))
    if info:
        lines.append(f"  {info}")
    lines.append(f"  elapsed: {summary.elapsed_seconds:.2f}s")
    if summary.population is not None:
        lines.append(f"  population: {summary.population:,} faults")
    if summary.faults_classified:
        lines.append(
            f"  classified this run: {summary.faults_classified:,} faults "
            f"({summary.faults_per_second:,.0f} faults/sec), "
            f"{summary.inferences:,} inferences "
            f"({summary.inferences_per_second:,.0f} inferences/sec)"
        )
    if summary.tail_passes:
        lines.append(
            f"  plan engine: {summary.tail_passes:,} tail passes "
            f"({summary.batched_faults_per_pass:.1f} faults/pass), "
            f"op cache hit rate {summary.op_cache_hit_rate * 100:.0f}% "
            f"({summary.ops_cached:,} cached / {summary.ops_executed:,} "
            "executed)"
        )
    if summary.cells_total is not None:
        lines.append(
            f"  checkpoint: {summary.cells_resumed}/{summary.cells_total} "
            f"cells resumed (hit rate {summary.resume_hit_rate * 100:.0f}%), "
            f"{summary.checkpoint_writes} cell writes"
        )
    if summary.shards_done or summary.shards_requeued or summary.shards_poisoned:
        shard_line = (
            f"  shards: {summary.shards_done} done, "
            f"{summary.shards_requeued} requeued, "
            f"{summary.shards_poisoned} poisoned"
        )
        if summary.shards_split:
            shard_line += f", {summary.shards_split} split"
        if summary.shard_workers:
            shard_line += (
                f" across {len(summary.shard_workers)} worker(s): "
                + ", ".join(summary.shard_workers)
            )
        if summary.merged:
            shard_line += " [merged]"
        lines.append(shard_line)
    if summary.idle_events:
        idle = ", ".join(summary.idle_workers) or "unnamed"
        lines.append(
            f"  idle: {summary.idle_events} worker_idle event(s) "
            f"from {idle} (queue drained / starved, not slow)"
        )
    if summary.predictions:
        for prediction in summary.predictions:
            wall = prediction.get("wall_seconds")
            evals = prediction.get("fault_evals")
            lines.append(
                "  prediction: "
                f"engine={prediction.get('engine', '?')} "
                f"batch={prediction.get('batch_size', '?')} "
                f"workers={prediction.get('workers', '?')} -> "
                f"{float(wall):.2f}s wall, {int(evals):,} fault-evals"
                if wall is not None and evals is not None
                else f"  prediction: {prediction}"
            )
    if summary.workers:
        lines.append(
            f"  workers ({len(summary.workers)} pids, "
            f"{summary.heartbeats} heartbeats):"
        )
        lines.append("    pid        cells   busy(s)   utilisation")
        for w in summary.workers:
            lines.append(
                f"    {w.pid:<10d} {w.cells:>5d} {w.busy_seconds:>9.2f}"
                f"   {w.utilisation * 100:>6.1f}%"
            )
    if summary.spans:
        lines.append("  phases (span timings):")
        lines.append(
            "    name                               count   total(s)"
            "    mean(s)     max(s)"
        )
        for s in summary.spans:
            lines.append(
                f"    {s.name:<34s} {s.count:>5d} {s.total_seconds:>10.3f}"
                f" {s.mean_seconds:>10.4f} {s.max_seconds:>10.4f}"
            )
    if summary.cells:
        slowest = summary.slowest_cells(top_cells)
        lines.append(f"  slowest cells (top {len(slowest)}):")
        lines.append("    layer  bit   seconds    faults  inferences")
        for c in slowest:
            lines.append(
                f"    {c.layer:>5d} {c.bit:>4d} {c.seconds:>9.4f}"
                f" {c.faults:>9,d} {c.inferences:>11,d}"
            )
    return "\n".join(lines)
