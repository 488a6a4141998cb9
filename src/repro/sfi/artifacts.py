"""Cached exhaustive ground truth for the mini models.

The exhaustive campaign is the expensive part of the reproduction (it is
what took the paper 37-54 GPU-days at full scale).  This module runs it
once per (model, eval size, policy) configuration and caches the
:class:`~repro.faults.OutcomeTable` under the artifacts directory; every
benchmark and example replays from the cache.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.data import SynthCIFAR
from repro.faults import FaultInjectionEngine, FaultSpace, OutcomeTable
from repro.models import create_model
from repro.telemetry import Telemetry, resolve_telemetry
from repro.utils import artifacts_dir


def exhaustive_table_path(
    model_name: str,
    *,
    eval_size: int = 64,
    policy: str = "accuracy_drop",
) -> Path:
    """Cache location for one exhaustive configuration.

    Every engine kind shares a cache entry (their outcomes are
    bit-identical).
    """
    return (
        artifacts_dir() / "exhaustive" / f"{model_name}_n{eval_size}_{policy}.npz"
    )


def exhaustive_checkpoint_path(
    model_name: str,
    *,
    eval_size: int = 64,
    policy: str = "accuracy_drop",
) -> Path:
    """Checkpoint directory for one exhaustive configuration."""
    path = exhaustive_table_path(
        model_name, eval_size=eval_size, policy=policy
    )
    return path.with_suffix(".ckpt")


def regenerate_command(
    model_name: str, *, eval_size: int = 64, policy: str = "accuracy_drop"
) -> str:
    """Command that rebuilds one cached exhaustive table from scratch."""
    command = f"repro-run --model {model_name} --eval-size {eval_size}"
    if policy != "accuracy_drop":
        command += f"  (policy {policy})"
    return f"delete the file and run `{command}`"


def load_or_run_exhaustive(
    model_name: str,
    *,
    eval_size: int = 64,
    policy: str = "accuracy_drop",
    engine_kind: str = "plan",
    workers: int | None = 1,
    shards: int | None = None,
    resume: bool = True,
    telemetry: Telemetry | None = None,
) -> tuple[OutcomeTable, FaultSpace, FaultInjectionEngine]:
    """Return the exhaustive table for a pretrained mini model.

    Loads from the artifact cache when present; otherwise runs the full
    exhaustive campaign (minutes for the mini models) and caches it,
    fanning out over *workers* processes and — with *resume* (default) —
    checkpointing finished cells so a killed campaign picks up where it
    stopped.  Always returns a live ``(table, space, engine)`` triple for
    the same model/eval configuration, so sampled campaigns can either
    replay from the table or re-inject through the engine.

    *engine_kind* selects ``"plan"`` (default), ``"plan_vectorized"``
    or ``"module"`` (reference) execution; all three are bit-identical
    in outcomes, so every kind shares the cache.

    With *shards* set the cold-cache campaign instead goes through
    :func:`repro.dist.run_sharded_exhaustive`: the work is split into
    that many shards, drained by a local worker fleet through a queue
    directory next to the cache file, and merged — bit-identical to the
    serial run, and resumable across kills (done shards are kept).

    *telemetry* journals the campaign (or an ``artifact_cache_hit``
    event when the table is served from the cache).
    """
    # Late import: repro.runtime is only needed to build live engines.
    from repro.runtime import create_engine

    tele = resolve_telemetry(telemetry)
    model = create_model(model_name, pretrained=True)
    data = SynthCIFAR("test", size=eval_size, seed=1234)
    engine = create_engine(
        model,
        data.images,
        data.labels,
        kind=engine_kind,
        policy=policy,
        telemetry=telemetry,
    )
    space = FaultSpace(engine.layers)
    path = exhaustive_table_path(
        model_name, eval_size=eval_size, policy=policy
    )
    if path.is_file():
        with tele.span("artifacts.load_exhaustive", emit=True, model=model_name):
            table = OutcomeTable.load(
                path,
                regenerate=regenerate_command(
                    model_name, eval_size=eval_size, policy=policy
                ),
            )
        if table.num_layers != len(space.layers):
            raise ValueError(
                f"cached table at {path} does not match model {model_name}"
            )
        if tele.enabled:
            tele.emit(
                "artifact_cache_hit", model=model_name, path=str(path)
            )
            tele.counter("artifacts.cache_hits").add(1)
        return table, space, engine
    if shards is not None:
        # Late import: repro.dist pulls in the queue/merge machinery,
        # which most artifact consumers never need.
        from repro.dist import run_sharded_exhaustive

        table = run_sharded_exhaustive(
            engine,
            space,
            path.with_suffix(".queue"),
            shards=shards,
            workers=workers,
            telemetry=telemetry,
            runtime={
                "model": model_name,
                "eval_size": eval_size,
                "policy": policy,
                "engine": engine.kind,
            },
        )
        table.metadata["model"] = model_name
        table.save(path)
        shutil.rmtree(path.with_suffix(".queue"), ignore_errors=True)
        return table, space, engine
    checkpoint = (
        exhaustive_checkpoint_path(
            model_name, eval_size=eval_size, policy=policy
        )
        if resume
        else None
    )
    table = OutcomeTable.from_exhaustive(
        engine,
        space,
        workers=workers,
        checkpoint=checkpoint,
        telemetry=telemetry,
    )
    table.metadata["model"] = model_name
    table.save(path)
    if checkpoint is not None and checkpoint.exists():
        # The finished table is persisted and verified; the checkpoint has
        # served its purpose.
        shutil.rmtree(checkpoint, ignore_errors=True)
    return table, space, engine
