"""Telemetry-driven campaign cost model.

The write side of the telemetry subsystem records what campaigns *did*
cost — per-(layer, bit) cell wall times in the journal, engine
throughput in ``BENCH_engine.json``, worker utilisation in fleet
journals.  This module closes the loop: it fits those measurements into
a :class:`CostModel` that prices a campaign *before* it runs
(``repro-plan --predict``), picks engine kind and shard granularity
for ``repro-dist submit --auto``, and — because every
prediction is journalled as a ``campaign_predicted`` event — lets
``repro-stats`` report predicted-vs-actual error so the model is
continuously validated against reality.

The model is deliberately simple and inspectable: per-layer
seconds-per-fault fitted from measured cells, a relative engine-speed
table keyed by engine kind from the throughput bench (each engine runs
at its own fixed batch size, so the kind is the whole configuration),
and an observed worker-utilisation factor.  Every prediction carries
the features it was derived from.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.telemetry.stats import CampaignSummary

#: Fallback busy fraction when no fleet journal has been observed yet.
DEFAULT_UTILISATION = 0.9

#: Default shard sizing target for ``--auto`` submits: small enough that
#: a straggler holds at most this much work, large enough that claim /
#: attestation overhead stays negligible.
DEFAULT_TARGET_SHARD_SECONDS = 30.0

#: ``create_engine`` kinds the bench rates and predictions are keyed by.
_ENGINE_KINDS = ("module", "plan", "plan_vectorized")


class CostModelError(RuntimeError):
    """The cost model cannot be fitted or applied as requested."""


@dataclass(frozen=True)
class EngineRate:
    """One engine kind's measured throughput (from the bench)."""

    kind: str  # create_engine kind: module / plan / plan_vectorized
    faults_per_sec: float

    def to_dict(self) -> dict:
        return {"kind": self.kind, "faults_per_sec": self.faults_per_sec}


def _kind_rates(rows: dict) -> dict[str, EngineRate]:
    """Rates keyed by engine kind; rows named otherwise are skipped.

    Bench files and saved cost models written before batch size became
    an engine constant also carry a ``plan_batched`` row and per-row
    ``batch_size`` fields; the former is not a kind, the latter is
    ignored.
    """
    return {
        kind: EngineRate(
            kind=kind, faults_per_sec=float(rows[kind]["faults_per_sec"])
        )
        for kind in _ENGINE_KINDS
        if kind in rows
    }


def load_bench(path: str | os.PathLike) -> dict[str, EngineRate]:
    """Engine throughput rates from a ``BENCH_engine.json`` file.

    Reads the top-level (latest) ``engines`` block; the appended
    ``history`` trajectory is ignored here — the newest measurement is
    the one that prices future campaigns.
    """
    with open(path, encoding="utf-8") as stream:
        payload = json.load(stream)
    return _kind_rates(payload.get("engines", {}))


@dataclass(frozen=True)
class CampaignPrediction:
    """What one campaign configuration is predicted to cost."""

    kind: str  # "exhaustive" | "sampled"
    model: str | None
    engine: str
    workers: int
    shards: int | None
    fault_evals: int
    serial_seconds: float  # single worker, chosen engine
    wall_seconds: float  # across *workers* at observed utilisation
    utilisation: float
    engine_scale: float  # measured-engine seconds x scale = chosen-engine
    fitted_from: dict = field(default_factory=dict)

    @property
    def faults_per_sec(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.fault_evals / self.wall_seconds

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "model": self.model,
            "engine": self.engine,
            "workers": self.workers,
            "shards": self.shards,
            "fault_evals": self.fault_evals,
            "serial_seconds": round(self.serial_seconds, 4),
            "wall_seconds": round(self.wall_seconds, 4),
            "faults_per_sec": round(self.faults_per_sec, 2),
            "utilisation": round(self.utilisation, 4),
            "engine_scale": round(self.engine_scale, 4),
            "fitted_from": self.fitted_from,
        }

    def event_fields(self) -> dict:
        """Flat fields for a ``campaign_predicted`` journal event."""
        record = self.to_dict()
        record["wall_seconds"] = float(record["wall_seconds"])
        record.pop("fitted_from", None)
        return record


@dataclass
class CostModel:
    """Per-fault cost features fitted from measured telemetry.

    ``layer_seconds_per_fault`` maps layer index to the measured mean
    wall seconds per fault in that layer's cells (masked faults included
    — they are part of every cell's population and their near-zero cost
    is priced into the mean).  ``engine_rates`` carries the throughput
    bench keyed by engine kind, used only for *relative* speed between
    engine choices — the absolute faults/sec transfers poorly across
    hosts and models, the ratio transfers well.
    """

    model: str | None = None
    measured_engine: str = "module"
    seconds_per_fault: float = 0.0
    layer_seconds_per_fault: dict[int, float] = field(default_factory=dict)
    engine_rates: dict[str, EngineRate] = field(default_factory=dict)
    utilisation: float = DEFAULT_UTILISATION
    host_cpus: int | None = None
    cells_observed: int = 0
    faults_observed: int = 0

    # -- features --------------------------------------------------------

    def fitted_from(self) -> dict:
        return {
            "cells_observed": self.cells_observed,
            "faults_observed": self.faults_observed,
            "measured_engine": self.measured_engine,
            "bench_engines": sorted(self.engine_rates),
        }

    def engine_scale(self, kind: str) -> float:
        """Seconds multiplier from the measured engine to *kind*.

        Derived from the bench's relative rates; 1.0 when either side is
        missing from the bench (prediction falls back to measured cost).
        """
        source = self.engine_rates.get(self.measured_engine)
        target = self.engine_rates.get(kind)
        if source is None or target is None:
            return 1.0
        if target.faults_per_sec <= 0:
            return 1.0
        return source.faults_per_sec / target.faults_per_sec

    def layer_rate(self, layer: int) -> float:
        """Measured seconds per fault for one layer (global fallback)."""
        return self.layer_seconds_per_fault.get(layer, self.seconds_per_fault)

    # -- prediction ------------------------------------------------------

    def _wall(
        self, serial_seconds: float, workers: int, shards: int | None
    ) -> float:
        # Parallelism is capped by shard granularity (W workers cannot
        # share fewer than W shards) and by the fit host's core count
        # (extra CPU-bound workers on a saturated host time-slice, they
        # do not speed up).  host_cpus is None for hand-built models.
        lanes = workers if shards is None else min(workers, max(1, shards))
        if self.host_cpus is not None:
            lanes = min(lanes, max(1, self.host_cpus))
        effective = max(1.0, lanes * self.utilisation)
        return serial_seconds / effective

    def predict_exhaustive(
        self,
        space,
        *,
        engine: str | None = None,
        workers: int = 1,
        shards: int | None = None,
        model: str | None = None,
    ) -> CampaignPrediction:
        """Price an exhaustive campaign over *space*."""
        if self.seconds_per_fault <= 0:
            raise CostModelError(
                "cost model holds no measured cells; fit it from a "
                "journal with cell_done events first"
            )
        engine = engine or self.measured_engine
        scale = self.engine_scale(engine)
        bits = space.bits
        serial = 0.0
        for layer in range(len(space.layers)):
            cell_faults = space.cell_population(layer)
            serial += bits * cell_faults * self.layer_rate(layer)
        serial *= scale
        return CampaignPrediction(
            kind="exhaustive",
            model=model or self.model,
            engine=engine,
            workers=int(workers),
            shards=shards,
            fault_evals=int(space.total_population),
            serial_seconds=serial,
            wall_seconds=self._wall(serial, workers, shards),
            utilisation=self.utilisation,
            engine_scale=scale,
            fitted_from=self.fitted_from(),
        )

    def predict_sampled(
        self,
        plan,
        *,
        engine: str | None = None,
        workers: int = 1,
        shards: int | None = None,
        model: str | None = None,
    ) -> CampaignPrediction:
        """Price a sampled campaign executing *plan* with live injection."""
        if self.seconds_per_fault <= 0:
            raise CostModelError(
                "cost model holds no measured cells; fit it from a "
                "journal with cell_done events first"
            )
        engine = engine or self.measured_engine
        scale = self.engine_scale(engine)
        serial = 0.0
        for item in plan.items:
            layer = getattr(item.subpopulation, "layer", None)
            rate = (
                self.layer_rate(layer)
                if layer is not None
                else self.seconds_per_fault
            )
            serial += item.sample_size * rate
        serial *= scale
        return CampaignPrediction(
            kind="sampled",
            model=model or self.model,
            engine=engine,
            workers=int(workers),
            shards=shards,
            fault_evals=int(plan.total_injections),
            serial_seconds=serial,
            wall_seconds=self._wall(serial, workers, shards),
            utilisation=self.utilisation,
            engine_scale=scale,
            fitted_from=self.fitted_from(),
        )

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "measured_engine": self.measured_engine,
            "seconds_per_fault": self.seconds_per_fault,
            "layer_seconds_per_fault": {
                str(layer): rate
                for layer, rate in sorted(self.layer_seconds_per_fault.items())
            },
            "engine_rates": {
                kind: rate.to_dict()
                for kind, rate in sorted(self.engine_rates.items())
            },
            "utilisation": self.utilisation,
            "host_cpus": self.host_cpus,
            "cells_observed": self.cells_observed,
            "faults_observed": self.faults_observed,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "CostModel":
        """Inverse of :meth:`to_dict`; an older record's
        ``measured_batch_size`` is ignored."""
        return cls(
            model=record.get("model"),
            measured_engine=record.get("measured_engine", "module"),
            seconds_per_fault=float(record.get("seconds_per_fault", 0.0)),
            layer_seconds_per_fault={
                int(layer): float(rate)
                for layer, rate in record.get(
                    "layer_seconds_per_fault", {}
                ).items()
            },
            engine_rates=_kind_rates(record.get("engine_rates", {})),
            utilisation=float(
                record.get("utilisation", DEFAULT_UTILISATION)
            ),
            host_cpus=(
                int(record["host_cpus"])
                if record.get("host_cpus") is not None
                else None
            ),
            cells_observed=int(record.get("cells_observed", 0)),
            faults_observed=int(record.get("faults_observed", 0)),
        )

    def save(self, path: str | os.PathLike) -> None:
        from repro.store import atomic_write_bytes

        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(Path(path), payload.encode("utf-8"))

    @classmethod
    def load(cls, path: str | os.PathLike) -> "CostModel":
        with open(path, encoding="utf-8") as stream:
            return cls.from_dict(json.load(stream))


def fit_cost_model(
    summaries: list[CampaignSummary],
    *,
    bench: dict[str, EngineRate] | None = None,
    model: str | None = None,
) -> CostModel:
    """Fit a :class:`CostModel` from journal summaries (+ optional bench).

    Cell wall times come from every summary holding ``cell_done``
    records; worker utilisation from every summary with per-worker
    accounting (fleet journals).  The measured engine is taken from the
    first campaign that declared one (``campaign_start`` carries it
    since the plan engine landed).  The fit host's core
    count is recorded so wall predictions never assume more parallelism
    than the hardware offers.
    """
    layer_seconds: dict[int, float] = {}
    layer_faults: dict[int, int] = {}
    total_seconds = 0.0
    total_faults = 0
    cells = 0
    utilisations: list[float] = []
    measured_engine = None
    fitted_model = model
    for summary in summaries:
        if fitted_model is None:
            fitted_model = summary.info.get("model")
        if measured_engine is None and "engine" in summary.info:
            measured_engine = summary.info["engine"]
        for cell in summary.cells:
            if cell.faults <= 0 or cell.seconds < 0:
                continue
            layer_seconds[cell.layer] = (
                layer_seconds.get(cell.layer, 0.0) + cell.seconds
            )
            layer_faults[cell.layer] = (
                layer_faults.get(cell.layer, 0) + cell.faults
            )
            total_seconds += cell.seconds
            total_faults += cell.faults
            cells += 1
        for worker in summary.workers:
            if worker.utilisation > 0:
                utilisations.append(min(1.0, worker.utilisation))
    if total_faults <= 0:
        raise CostModelError(
            "no measured cells in the supplied journals; run a campaign "
            "with --trace first (cell_done events are the model's input)"
        )
    utilisation = (
        sum(utilisations) / len(utilisations)
        if utilisations
        else DEFAULT_UTILISATION
    )
    return CostModel(
        model=fitted_model,
        measured_engine=measured_engine or "module",
        seconds_per_fault=total_seconds / total_faults,
        layer_seconds_per_fault={
            layer: layer_seconds[layer] / layer_faults[layer]
            for layer in sorted(layer_seconds)
            if layer_faults[layer] > 0
        },
        engine_rates=dict(bench or {}),
        utilisation=utilisation,
        host_cpus=os.cpu_count(),
        cells_observed=cells,
        faults_observed=total_faults,
    )


# -- auto-tuned submit ------------------------------------------------------


@dataclass(frozen=True)
class SubmitChoice:
    """Engine / shard choice for an auto-tuned submission."""

    engine: str
    shards: int
    prediction: CampaignPrediction

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "shards": self.shards,
            "prediction": self.prediction.to_dict(),
        }


def choose_submit_settings(
    cost_model: CostModel,
    space,
    *,
    workers: int = 1,
    target_shard_seconds: float = DEFAULT_TARGET_SHARD_SECONDS,
    allowed_engines: tuple[str, ...] = _ENGINE_KINDS,
    model: str | None = None,
) -> SubmitChoice:
    """Pick engine kind and shard count from the model.

    The engine is the fastest benched configuration among
    *allowed_engines* (the measured engine when no bench is loaded);
    the shard count targets *target_shard_seconds* of predicted wall
    time per shard, clamped so the fleet is never starved (at least one
    shard per worker) and shards never go below one cell.
    """
    candidates = [
        kind for kind in sorted(cost_model.engine_rates) if kind in allowed_engines
    ] or [cost_model.measured_engine]
    best = None
    for kind in candidates:
        prediction = cost_model.predict_exhaustive(
            space,
            engine=kind,
            workers=workers,
            model=model,
        )
        if best is None or prediction.serial_seconds < best.serial_seconds:
            best = prediction
    cells = len(space.layers) * space.bits
    if target_shard_seconds <= 0:
        raise CostModelError(
            f"target shard seconds must be positive, got {target_shard_seconds}"
        )
    shards = math.ceil(best.serial_seconds / target_shard_seconds)
    shards = max(shards, workers, 1)
    shards = min(shards, cells)
    prediction = cost_model.predict_exhaustive(
        space,
        engine=best.engine,
        workers=workers,
        shards=shards,
        model=model,
    )
    return SubmitChoice(
        engine=best.engine,
        shards=shards,
        prediction=prediction,
    )


# -- predicted vs actual ----------------------------------------------------


@dataclass(frozen=True)
class PredictionComparison:
    """One journalled prediction against the work observed after it."""

    prediction: dict  # campaign_predicted event fields
    actual_wall_seconds: float | None
    actual_fault_evals: int
    actual_summaries: int  # how many journal summaries carried the work

    @property
    def resolved(self) -> bool:
        return self.actual_wall_seconds is not None

    @property
    def wall_ratio(self) -> float | None:
        predicted = float(self.prediction.get("wall_seconds") or 0.0)
        if not self.resolved or predicted <= 0:
            return None
        return self.actual_wall_seconds / predicted

    @property
    def evals_ratio(self) -> float | None:
        predicted = int(self.prediction.get("fault_evals") or 0)
        if not self.resolved or predicted <= 0:
            return None
        return self.actual_fault_evals / predicted

    def to_dict(self) -> dict:
        prediction = {
            key: value
            for key, value in self.prediction.items()
            if key != "t"
        }
        return {
            "prediction": prediction,
            "actual_wall_seconds": self.actual_wall_seconds,
            "actual_fault_evals": self.actual_fault_evals,
            "actual_summaries": self.actual_summaries,
            "wall_ratio": self.wall_ratio,
            "evals_ratio": self.evals_ratio,
        }


def predicted_vs_actual(
    summaries: list[CampaignSummary],
) -> list[PredictionComparison]:
    """Match journalled predictions to the work that followed them.

    Each ``campaign_predicted`` event is compared against the aggregate
    of every summary whose *work* (cell/shard events) started at or
    after the prediction was issued — a distributed fleet's per-worker
    journals collapse into one actual wall clock (monotonic clocks are
    system-wide on Linux, so cross-process windows compose).
    """
    predictions = sorted(
        (p for s in summaries for p in s.predictions),
        key=lambda p: float(p.get("t", 0.0)),
    )
    work = [
        s
        for s in summaries
        if (s.faults_classified > 0 or s.shards_done > 0)
        and s.work_t_first is not None
    ]
    comparisons = []
    for prediction in predictions:
        issued = float(prediction.get("t", 0.0))
        group = [s for s in work if s.work_t_first >= issued]
        if not group:
            comparisons.append(
                PredictionComparison(
                    prediction=prediction,
                    actual_wall_seconds=None,
                    actual_fault_evals=0,
                    actual_summaries=0,
                )
            )
            continue
        wall = max(s.work_t_last for s in group) - min(
            s.work_t_first for s in group
        )
        comparisons.append(
            PredictionComparison(
                prediction=prediction,
                actual_wall_seconds=wall,
                actual_fault_evals=sum(s.faults_classified for s in group),
                actual_summaries=len(group),
            )
        )
    return comparisons


def format_comparisons(comparisons: list[PredictionComparison]) -> str:
    """The ``repro-stats`` predicted-vs-actual section."""
    lines = ["predicted vs actual:"]
    for cmp in comparisons:
        p = cmp.prediction
        lines.append(
            f"  predicted [{p.get('kind', '?')}] "
            f"engine={p.get('engine', '?')} "
            f"workers={p.get('workers', '?')} shards={p.get('shards')}: "
            f"{float(p.get('wall_seconds') or 0.0):.2f}s wall, "
            f"{int(p.get('fault_evals') or 0):,} fault-evals"
        )
        if not cmp.resolved:
            lines.append("    actual: no campaign work observed after it")
            continue
        lines.append(
            f"    actual ({cmp.actual_summaries} journal segment(s)): "
            f"{cmp.actual_wall_seconds:.2f}s wall, "
            f"{cmp.actual_fault_evals:,} fault-evals"
        )
        wall_ratio = cmp.wall_ratio
        evals_ratio = cmp.evals_ratio
        if wall_ratio is not None:
            error = (wall_ratio - 1.0) * 100.0
            line = (
                f"    error: wall {error:+.1f}% "
                f"(actual/predicted {wall_ratio:.2f}x)"
            )
            if evals_ratio is not None:
                line += f", fault-evals {(evals_ratio - 1.0) * 100.0:+.1f}%"
            lines.append(line)
    return "\n".join(lines)
