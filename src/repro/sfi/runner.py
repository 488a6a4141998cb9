"""Campaign execution: sampled campaigns and the exhaustive baseline."""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Callable, Iterable

import numpy as np

from repro.faults.engine import FaultInjectionEngine, FaultOutcome
from repro.faults.model import STUCK_AT_MODELS, FaultModel
from repro.faults.oracle import Oracle
from repro.faults.space import FaultSpace
from repro.faults.table import OutcomeTable, resolve_workers
from repro.ieee754 import FLOAT32, FloatFormat
from repro.nn import Module
from repro.sfi.granularity import Granularity
from repro.sfi.planners import CampaignPlan
from repro.sfi.results import CampaignResult
from repro.sfi.sampler import sample_subpopulation
from repro.telemetry import Telemetry, resolve_telemetry


def stratum_rng(seed: int, index: int) -> np.random.Generator:
    """The RNG substream of plan item *index* under base *seed*.

    Built from ``SeedSequence(seed, spawn_key=(index,))`` — the same
    stream :meth:`numpy.random.SeedSequence.spawn` would hand the
    *index*-th child — so a stratum's draws depend only on ``(seed,
    index)``, never on which strata ran before it, which process ran
    it, or how a campaign was sharded.  This is the property that makes
    distributed campaign results bit-identical to serial ones.
    """
    return np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(index,))
    )


def execute_plan_items(
    plan: CampaignPlan,
    oracle: Oracle,
    indices: Iterable[int],
    *,
    seed: int,
    on_item: Callable[[int], None] | None = None,
) -> tuple[dict[tuple[int, int], list[int]], dict[tuple[int, int], float]]:
    """Sample and classify a subset of *plan*'s items.

    Returns ``(cell_tallies, assumed_p)`` in the
    :class:`~repro.sfi.results.CampaignResult` layout.  Each item draws
    from its own :func:`stratum_rng` substream, so any partition of the
    item indices — across loop iterations, pool workers or distributed
    shards — produces the same observations as a serial pass.
    *on_item* fires after each processed item (progress/heartbeats).
    """
    tallies: dict[tuple[int, int], list[int]] = {}
    assumed: dict[tuple[int, int], float] = {}
    for index in indices:
        item = plan.items[index]
        subpop = item.subpopulation
        if item.sample_size == 0:
            if (
                plan.granularity is Granularity.BIT_LAYER
                and subpop.layer is not None
                and subpop.bit is not None
            ):
                assumed[(subpop.layer, subpop.bit)] = item.p_assumed
            if on_item is not None:
                on_item(index)
            continue
        rng = stratum_rng(seed, index)
        faults = sample_subpopulation(subpop, item.sample_size, rng)
        outcomes = oracle.classify_many(faults)
        for fault, outcome in zip(faults, outcomes):
            tally = tallies.setdefault((fault.layer, fault.bit), [0, 0, 0])
            tally[0] += 1
            tally[1] += int(outcome is FaultOutcome.CRITICAL)
            tally[2] += int(outcome is FaultOutcome.MASKED)
        if on_item is not None:
            on_item(index)
    return tallies, assumed


# Fork-inherited state for sampled-campaign pool workers: (plan, oracle,
# seed).  Like the exhaustive pool, children share the oracle (table or
# engine) copy-on-write and return plain tallies.
_RUN_POOL_STATE: tuple[CampaignPlan, Oracle, int] | None = None


def _pool_run_item(index: int):
    assert _RUN_POOL_STATE is not None, "worker used outside a campaign pool"
    plan, oracle, seed = _RUN_POOL_STATE
    return execute_plan_items(plan, oracle, [index], seed=seed)


class CampaignRunner:
    """Executes a :class:`CampaignPlan` against a fault oracle.

    The oracle is either an :class:`~repro.faults.InferenceOracle` (real
    injections) or a :class:`~repro.faults.TableOracle` (replay of an
    exhaustive campaign's recorded outcomes — bit-exact and much faster).

    With *telemetry*, every :meth:`run` is journaled as a sampled
    campaign (``campaign_start``/``campaign_end`` plus a
    ``sfi.run`` span) and its injections counted.
    """

    def __init__(
        self,
        oracle: Oracle,
        space: FaultSpace,
        *,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.oracle = oracle
        self.space = space
        self.telemetry = resolve_telemetry(telemetry)

    def run(
        self,
        plan: CampaignPlan,
        *,
        seed: int = 0,
        workers: int | None = 1,
    ) -> CampaignResult:
        """Sample and classify every planned stratum; returns the result.

        Strata are independent (each draws from its own
        :func:`stratum_rng` substream), so with ``workers > 1`` they fan
        out over a fork-based process pool — same
        :func:`~repro.faults.table.resolve_workers` semantics as the
        exhaustive campaign (``None`` honours ``REPRO_WORKERS``, then
        the CPU count) — and the result is identical to a serial run.
        """
        tele = self.telemetry
        if not tele.enabled:
            return self._run(plan, seed, workers=workers)
        tele.emit(
            "campaign_start",
            kind="sampled",
            method=plan.method,
            seed=seed,
            total=plan.total_injections,
        )
        start = time.monotonic()
        with tele.span("sfi.run", method=plan.method, seed=seed):
            result = self._run(plan, seed, workers=workers)
        tele.counter("sfi.injections").add(result.total_injections)
        tele.emit(
            "campaign_end",
            elapsed_seconds=time.monotonic() - start,
            injections=result.total_injections,
            criticals=result.total_criticals,
            masked=result.total_masked,
        )
        return result

    def _run(
        self, plan: CampaignPlan, seed: int, *, workers: int | None = 1
    ) -> CampaignResult:
        result = CampaignResult(
            method=plan.method,
            granularity=plan.granularity,
            t=plan.t,
            space=self.space,
            seed=seed,
        )
        workers = resolve_workers(workers)
        sampled = [
            idx for idx, item in enumerate(plan.items) if item.sample_size > 0
        ]
        parts: list[tuple[dict, dict]] = []
        if workers > 1 and len(sampled) > 1:
            # Zero-sample strata are pure bookkeeping; keep them out of
            # the pool and fold them in the parent.
            sampled_set = set(sampled)
            unsampled = [
                i for i in range(len(plan.items)) if i not in sampled_set
            ]
            parts.append(
                execute_plan_items(plan, self.oracle, unsampled, seed=seed)
            )
            global _RUN_POOL_STATE
            _RUN_POOL_STATE = (plan, self.oracle, seed)
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork: run serially
                _RUN_POOL_STATE = None
                parts.append(
                    execute_plan_items(plan, self.oracle, sampled, seed=seed)
                )
            else:
                try:
                    with ctx.Pool(processes=workers) as pool:
                        parts.extend(
                            pool.map(_pool_run_item, sampled, chunksize=1)
                        )
                finally:
                    _RUN_POOL_STATE = None
        else:
            parts.append(
                execute_plan_items(
                    plan, self.oracle, range(len(plan.items)), seed=seed
                )
            )
        for tallies, assumed in parts:
            for (layer, bit), counts in tallies.items():
                tally = result.cell_tallies.setdefault(
                    (layer, bit), [0, 0, 0]
                )
                tally[0] += counts[0]
                tally[1] += counts[1]
                tally[2] += counts[2]
            result.assumed_p.update(assumed)
        return result

    def run_many(
        self, plan: CampaignPlan, *, seeds: list[int]
    ) -> list[CampaignResult]:
        """Run the plan once per seed (the paper's S0-S9 samples).

        Each stratum draws from the ``SeedSequence(seed,
        spawn_key=(item,))`` substream, so results are a pure function
        of ``(plan, seed)``: the same seed always yields the same
        samples (and, against a deterministic oracle, the same result),
        distinct seeds draw independent samples, and the draws are
        independent of stratum execution order.
        """
        return [self.run(plan, seed=seed) for seed in seeds]


def run_exhaustive(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    fmt: FloatFormat = FLOAT32,
    fault_models: tuple[FaultModel, ...] = STUCK_AT_MODELS,
    policy: str = "accuracy_drop",
    threshold: float = 0.0,
    engine_kind: str = "plan",
    workers: int | None = 1,
    checkpoint: str | os.PathLike | None = None,
    telemetry: Telemetry | None = None,
) -> tuple[OutcomeTable, FaultSpace, FaultInjectionEngine]:
    """Run the full exhaustive campaign for *model* over the eval set.

    Returns ``(table, space, engine)``; the table is the paper's exhaustive
    ground truth (every possible fault classified).  *engine_kind* picks
    the execution path: ``"plan"`` (default, op-granular caching and
    batched fault evaluation — bit-identical outcomes) or ``"module"``
    (the stage-granular reference engine).  ``workers > 1`` fans the
    campaign's (layer, bit) cells out over a process pool; with
    *checkpoint* (a directory path) set, a killed campaign resumes from
    its last persisted cell.  *telemetry* journals the whole campaign
    (see :meth:`OutcomeTable.from_exhaustive`).
    """
    from repro.runtime import create_engine

    engine = create_engine(
        model,
        images,
        labels,
        kind=engine_kind,
        fmt=fmt,
        policy=policy,
        threshold=threshold,
        telemetry=telemetry,
    )
    space = FaultSpace(engine.layers, fmt=fmt, fault_models=fault_models)
    table = OutcomeTable.from_exhaustive(
        engine,
        space,
        workers=workers,
        checkpoint=checkpoint,
        telemetry=telemetry,
    )
    return table, space, engine
