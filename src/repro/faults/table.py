"""Dense per-fault outcome storage (the exhaustive ground truth).

An :class:`OutcomeTable` holds the outcome of *every* fault in a
:class:`~repro.faults.FaultSpace` as per-layer uint8 arrays of shape
``(weights, bits, models)``.  It is produced once by an exhaustive campaign
(:meth:`OutcomeTable.from_exhaustive`) and then serves two purposes:

- ground truth for validating statistical campaigns (the paper's dark-blue
  exhaustive bars), and
- a replay oracle: a sampled campaign can look up outcomes instead of
  re-running inference, since classification is deterministic for a fixed
  model, eval set and policy.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import time

import numpy as np

from repro.faults.engine import (
    FaultInjectionEngine,
    FaultOutcome,
    classify_predictions,
)
from repro.faults.model import Fault
from repro.faults.space import FaultSpace
from repro.store import CampaignCheckpoint, load_verified_npz, save_verified_npz
from repro.telemetry import Telemetry, resolve_telemetry


def _classify_cell(
    engine: FaultInjectionEngine, space: FaultSpace, layer_idx: int, bit: int
) -> np.ndarray:
    """Outcomes of every fault in one (layer, bit) cell: ``(weights, models)``.

    Masked faults are detected vectorised (no inference); every other
    fault of a fault model goes through one :meth:`~repro.faults.
    FaultInjectionEngine.predictions_for_faults` call — the plan engines
    cut it into tail passes of their own batch size (one seeding GEMM,
    then the tail per variant), the module engine runs the classic
    one-inference-per-fault loop.  Cells are the campaign's unit of
    parallelism and checkpointing: independent, deterministic, and a few
    hundred per model.
    """
    layer = space.layers[layer_idx]
    fmt = space.fmt
    models = space.fault_models
    size = layer.size
    cell = np.empty((size, len(models)), dtype=np.uint8)
    golden_bits = fmt.encode(layer.flat_weights())
    mask = np.array(1, dtype=fmt.uint_dtype) << np.array(bit, dtype=fmt.uint_dtype)
    bit_is_one = (golden_bits & mask) != 0
    for model_idx, fault_model in enumerate(models):
        stuck = fault_model.stuck_value
        if stuck == 0:
            masked = ~bit_is_one
        elif stuck == 1:
            masked = bit_is_one
        else:
            masked = np.zeros(size, dtype=bool)
        cell[masked, model_idx] = FaultOutcome.MASKED
        live = np.flatnonzero(~masked)
        if not live.size:
            continue
        rows = engine.predictions_for_faults(
            [
                Fault(layer=layer_idx, index=int(i), bit=bit, model=fault_model)
                for i in live
            ]
        )
        for index, predictions in zip(live, rows):
            cell[index, model_idx] = classify_predictions(
                predictions,
                engine.golden_predictions,
                engine.labels,
                policy=engine.policy,
                threshold=engine.threshold,
            )
    return cell


def cell_key(layer_idx: int, bit: int) -> str:
    """Stable name of one (layer, bit) cell (checkpoint and shard keys)."""
    return f"L{layer_idx:03d}_B{bit:02d}"


def campaign_config(engine: FaultInjectionEngine, space: FaultSpace) -> dict:
    """Identity of an exhaustive campaign.

    Includes the engine fingerprint (weights, eval images, policy, engine
    kind) so a checkpoint taken against different weights (e.g. after
    retraining) is never resumed — and, via :mod:`repro.dist`, so shards
    computed under a mismatching configuration are never merged.  The
    engine kind is carried explicitly too, for human-readable refusal
    messages and ``repro-stats`` display.

    A non-reference kernel backend changes the campaign's numerics, so
    its attestation (name, version, per-op tolerance/invariance claims)
    joins the config.  The reference backend contributes nothing — the
    config hash of every existing campaign artifact is unchanged.
    """
    config = {
        "fmt": space.fmt.name,
        "fault_models": [m.value for m in space.fault_models],
        "policy": engine.policy,
        "threshold": engine.threshold,
        "eval_images": int(len(engine.images)),
        "layer_sizes": [layer.size for layer in space.layers],
        "engine": getattr(engine, "kind", "module"),
        # Constant: keeps config hashes recorded in earlier checkpoints
        # and queues valid.
        "fusions": [],
        "golden_sha256": engine.fingerprint(),
    }
    backend = getattr(engine, "backend", None)
    if backend is not None and not backend.is_reference:
        config["backend"] = backend.attestation()
    return config


# Fork-inherited state for pool workers: (engine, space, telemetry).  The
# golden weights and eval set are shared copy-on-write with the parent;
# workers only mutate their private injector scratch space.  The telemetry
# journal is append-only and fork-safe, so workers write cell events and
# heartbeats to the same file as the parent.
_POOL_STATE: tuple[FaultInjectionEngine, FaultSpace, Telemetry] | None = None

# Per-process tally of cells classified, reported in worker heartbeats.
_WORKER_CELLS = 0


def timed_classify_cell(
    engine: FaultInjectionEngine,
    space: FaultSpace,
    layer_idx: int,
    bit: int,
    telemetry: Telemetry,
) -> tuple[np.ndarray, float, int]:
    """One cell plus its wall time and inference count.

    Emits ``cell_start``/``cell_done`` journal events when telemetry is
    enabled, ``cell_done`` carrying the process's peak RSS so far;
    runs the untouched classification loop when it is not.
    """
    if not telemetry.enabled:
        start = time.monotonic()
        before = engine.inference_count
        cell = _classify_cell(engine, space, layer_idx, bit)
        return cell, time.monotonic() - start, engine.inference_count - before
    telemetry.emit("cell_start", layer=layer_idx, bit=bit)
    start = time.monotonic()
    before = engine.inference_count
    tail_before = getattr(engine, "tail_passes", 0)
    exec_before = getattr(engine, "ops_executed", 0)
    cached_before = getattr(engine, "ops_cached", 0)
    cell = _classify_cell(engine, space, layer_idx, bit)
    seconds = time.monotonic() - start
    inferences = engine.inference_count - before
    extras = {}
    if hasattr(engine, "tail_passes"):  # plan engine: op-cache accounting
        extras = {
            "tail_passes": engine.tail_passes - tail_before,
            "ops_executed": engine.ops_executed - exec_before,
            "ops_cached": engine.ops_cached - cached_before,
        }
    telemetry.emit(
        "cell_done",
        layer=layer_idx,
        bit=bit,
        seconds=seconds,
        faults=int(cell.size),
        inferences=inferences,
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **extras,
    )
    return cell, seconds, inferences


def _pool_classify(
    args: tuple[int, int]
) -> tuple[int, int, np.ndarray, float, int]:
    global _WORKER_CELLS
    layer_idx, bit = args
    assert _POOL_STATE is not None, "worker used outside a campaign pool"
    engine, space, telemetry = _POOL_STATE
    cell, seconds, inferences = timed_classify_cell(
        engine, space, layer_idx, bit, telemetry
    )
    _WORKER_CELLS += 1
    if telemetry.enabled:
        telemetry.emit("worker_heartbeat", cells_done=_WORKER_CELLS)
    return layer_idx, bit, cell, seconds, inferences


def resolve_workers(workers: int | None = None) -> int:
    """Normalise a worker-count request to an achievable pool size.

    ``None`` (the caller expressed no preference) resolves to the
    ``REPRO_WORKERS`` environment variable when set — the operator's
    fleet-wide override — and otherwise to the CPU count.  The result is
    always clamped to at least one worker.  An explicit *workers*
    argument wins over the environment.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS")
        if env is not None and env.strip():
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    return max(1, int(workers))


class OutcomeTable:
    """Per-fault outcomes for a whole fault space."""

    def __init__(
        self,
        outcomes: list[np.ndarray],
        *,
        metadata: dict | None = None,
    ) -> None:
        for arr in outcomes:
            if arr.ndim != 3:
                raise ValueError(
                    "each layer's outcomes must be (weights, bits, models), "
                    f"got shape {arr.shape}"
                )
        self.outcomes = [np.asarray(a, dtype=np.uint8) for a in outcomes]
        self.metadata = dict(metadata or {})

    # -- construction -----------------------------------------------------

    @classmethod
    def from_exhaustive(
        cls,
        engine: FaultInjectionEngine,
        space: FaultSpace,
        *,
        workers: int | None = 1,
        checkpoint: str | os.PathLike | None = None,
        telemetry: Telemetry | None = None,
        progress_every: int = 20_000,
    ) -> "OutcomeTable":
        """Classify every fault in *space* using *engine*.

        The campaign runs one (layer, bit) cell at a time (see
        :func:`_classify_cell`); cells are independent, so with
        ``workers > 1`` they fan out over a fork-based process pool whose
        children share the golden weights and eval set copy-on-write.
        With *checkpoint* set, every finished cell is persisted atomically
        to that directory and a killed campaign resumes from its last
        persisted cell — outcomes are deterministic, so the resumed table
        is bit-identical to an uninterrupted run.

        *telemetry* records the campaign: ``campaign_start``/``_end``,
        per-cell ``cell_start``/``cell_done`` (wall time, inference
        count — emitted by the worker that ran the cell), checkpoint
        writes and resume hits, worker heartbeats, and ``progress``
        events roughly every *progress_every* faults.  The default
        :class:`~repro.telemetry.NullTelemetry` adds no measurable cost.
        """
        tele = resolve_telemetry(telemetry)
        start = time.time()
        total = space.total_population
        bits = space.bits
        n_models = len(space.fault_models)
        workers = resolve_workers(workers)
        cells_total = len(space.layers) * bits

        store = None
        if checkpoint is not None:
            store = CampaignCheckpoint(
                checkpoint,
                config=campaign_config(engine, space),
                telemetry=tele,
            )

        cells: dict[tuple[int, int], np.ndarray] = {}
        pending: list[tuple[int, int]] = []
        done = 0
        reported = 0
        for layer_idx in range(len(space.layers)):
            for bit in range(bits):
                saved = (
                    store.load(cell_key(layer_idx, bit))
                    if store is not None
                    else None
                )
                expected = (space.layers[layer_idx].size, n_models)
                if saved is not None and saved.shape == expected:
                    cells[(layer_idx, bit)] = saved
                    done += saved.size
                else:
                    pending.append((layer_idx, bit))

        resumed_cells = len(cells)
        if tele.enabled:
            tele.emit(
                "campaign_start",
                kind="exhaustive",
                total=total,
                cells_total=cells_total,
                workers=workers,
                fmt=space.fmt.name,
                eval_images=int(len(engine.images)),
                policy=engine.policy,
                engine=getattr(engine, "kind", "module"),
                batch_size=int(getattr(engine, "batch_size", 1)),
                checkpointed=store is not None,
            )
            if resumed_cells:
                tele.emit(
                    "checkpoint_resume",
                    cells_resumed=resumed_cells,
                    cells_total=cells_total,
                    faults_resumed=done,
                )
            tele.counter("campaign.cells_resumed").add(resumed_cells)
            tele.gauge("campaign.workers").set(workers)

        def finish(
            layer_idx: int,
            bit: int,
            cell: np.ndarray,
            seconds: float,
            inferences: int,
        ) -> None:
            nonlocal done, reported
            cells[(layer_idx, bit)] = cell
            if store is not None:
                store.store(cell_key(layer_idx, bit), cell)
            done += cell.size
            if tele.enabled:
                tele.timer("campaign.cell_seconds").observe(seconds)
                tele.counter("campaign.cells_computed").add(1)
                tele.counter("campaign.faults_classified").add(int(cell.size))
                tele.counter("campaign.inferences").add(inferences)
            if done - reported >= progress_every or done == total:
                if tele.enabled:
                    tele.emit("progress", done=done, total=total)
                reported = done

        if workers > 1 and len(pending) > 1:
            global _POOL_STATE
            _POOL_STATE = (engine, space, tele)
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork: run serially
                _POOL_STATE = None
            else:
                try:
                    with ctx.Pool(processes=workers) as pool:
                        for result in pool.imap_unordered(
                            _pool_classify, pending, chunksize=1
                        ):
                            finish(*result)
                finally:
                    _POOL_STATE = None
                pending = []
        for layer_idx, bit in pending:
            cell, seconds, inferences = timed_classify_cell(
                engine, space, layer_idx, bit, tele
            )
            finish(layer_idx, bit, cell, seconds, inferences)

        outcomes: list[np.ndarray] = []
        for layer_idx, layer in enumerate(space.layers):
            table = np.empty((layer.size, bits, n_models), dtype=np.uint8)
            for bit in range(bits):
                table[:, bit, :] = cells[(layer_idx, bit)]
            outcomes.append(table)
        masked = sum(
            int((arr == FaultOutcome.MASKED).sum()) for arr in outcomes
        )
        metadata = {
            "fmt": space.fmt.name,
            "fault_models": [m.value for m in space.fault_models],
            "policy": engine.policy,
            "threshold": engine.threshold,
            "eval_images": int(len(engine.images)),
            "golden_accuracy": engine.golden_accuracy,
            # Inferences the campaign requires (deterministic: population
            # minus masked), independent of how many were served from a
            # checkpoint or by pool workers in this particular run.
            "inference_count": total - masked,
            "elapsed_seconds": time.time() - start,
        }
        if tele.enabled:
            tele.emit(
                "campaign_end",
                elapsed_seconds=metadata["elapsed_seconds"],
                faults=total,
                masked=masked,
                cells_resumed=resumed_cells,
                cells_computed=cells_total - resumed_cells,
            )
            tele.gauge("campaign.elapsed_seconds").set(
                metadata["elapsed_seconds"]
            )
        return cls(outcomes, metadata=metadata)

    # -- lookup ---------------------------------------------------------------

    def outcome(self, fault: Fault, model_index: int) -> FaultOutcome:
        """Outcome of one fault; *model_index* positions it in the table."""
        return FaultOutcome(
            int(self.outcomes[fault.layer][fault.index, fault.bit, model_index])
        )

    # -- aggregation -------------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.outcomes)

    @property
    def bits(self) -> int:
        return self.outcomes[0].shape[1]

    def cell_counts(self, layer: int, bit: int) -> tuple[int, int]:
        """(criticals, population) of one (bit, layer) cell."""
        cell = self.outcomes[layer][:, bit, :]
        return int((cell == FaultOutcome.CRITICAL).sum()), int(cell.size)

    def layer_counts(self, layer: int) -> tuple[int, int]:
        """(criticals, population) of one layer."""
        arr = self.outcomes[layer]
        return int((arr == FaultOutcome.CRITICAL).sum()), int(arr.size)

    def total_counts(self) -> tuple[int, int]:
        """(criticals, population) over the whole network."""
        criticals = sum(self.layer_counts(l)[0] for l in range(self.num_layers))
        population = sum(self.layer_counts(l)[1] for l in range(self.num_layers))
        return criticals, population

    def cell_rate(self, layer: int, bit: int) -> float:
        """Exhaustive critical rate of one (bit, layer) cell."""
        criticals, population = self.cell_counts(layer, bit)
        return criticals / population if population else 0.0

    def layer_rate(self, layer: int) -> float:
        """Exhaustive critical rate of one layer."""
        criticals, population = self.layer_counts(layer)
        return criticals / population if population else 0.0

    def total_rate(self) -> float:
        """Exhaustive critical rate of the whole network."""
        criticals, population = self.total_counts()
        return criticals / population if population else 0.0

    def masked_fraction(self) -> float:
        """Fraction of the population masked by the data."""
        masked = sum(
            int((arr == FaultOutcome.MASKED).sum()) for arr in self.outcomes
        )
        _, population = self.total_counts()
        return masked / population if population else 0.0

    # -- persistence --------------------------------------------------------------

    def save(self, path: str | os.PathLike) -> None:
        """Write the table (and metadata) to *path* (.npz).

        Goes through the verified store: the archive is written atomically
        and recorded in its directory's ``MANIFEST.json``.
        """
        arrays = {f"layer{i}": arr for i, arr in enumerate(self.outcomes)}
        arrays["metadata"] = np.frombuffer(
            json.dumps(self.metadata, sort_keys=True).encode("utf-8"),
            dtype=np.uint8,
        )
        save_verified_npz(path, arrays)

    @classmethod
    def load(
        cls, path: str | os.PathLike, *, regenerate: str | None = None
    ) -> "OutcomeTable":
        """Load a table written by :meth:`save`.

        Integrity (manifest checksum + zip structure) is validated first;
        corruption raises :class:`~repro.store.CorruptArtifactError`
        naming *path* and the *regenerate* command.
        """
        archive = load_verified_npz(path, regenerate=regenerate)
        metadata = json.loads(bytes(archive["metadata"]).decode("utf-8"))
        layer_names = sorted(
            (name for name in archive if name.startswith("layer")),
            key=lambda name: int(name[5:]),
        )
        outcomes = [archive[name] for name in layer_names]
        return cls(outcomes, metadata=metadata)
