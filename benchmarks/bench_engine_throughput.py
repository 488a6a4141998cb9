"""Engine throughput trajectory: module vs plan vs vectorized plan.

Times the three engines, each at its own batch size, on the same
deterministic, campaign-representative fault sample from
``resnet14_mini`` (layers drawn proportionally to their weight count,
all 32 bit positions, both stuck-at models — the population the
committed exhaustive artifact enumerates) and writes
``BENCH_engine.json`` so CI can track faults/sec across commits:

- ``module``          — stage-granular prefix caching, one fault at a
                        time,
- ``plan``            — op-granular caching plus up to 16 same-layer
                        faults per tail pass: one seeding GEMM, then the
                        exact dense tail once per variant,
- ``plan_vectorized`` — certified variant-axis stacking over up to 256
                        faults: no-flip certification retires most rows,
                        survivors run cache-blocked stacked kernels.

Outcomes are bit-identical across all three (asserted here); the run
aborts if they ever diverge, so a throughput number never ships for
an engine that changed the science.  The plan engine is also timed fed
one fault per call over the layer-sorted sample — the one-fault tail
pass a stratum with a single live fault takes — and the run aborts if
that falls below the module engine, the regression this trajectory
exists to keep fixed.  That floor is recorded next to ``engines``, not
in it, so the cost model never prices it.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        [--out BENCH_engine.json] [--faults 768]
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.data import SynthCIFAR
from repro.faults import Fault, FaultModel
from repro.models import create_model, pretrained_path
from repro.runtime import create_engine
from repro.store import atomic_write_bytes
from repro.train import train_reference_model

MODEL = "resnet14_mini"
EVAL_SIZE = 64
ENGINE_KINDS = ("module", "plan", "plan_vectorized")
#: Where the plan engine's one-fault-per-call floor is recorded.
FLOOR = "plan_one_fault_per_call"


def sample_faults(engine, count: int, seed: int = 0) -> list[Fault]:
    """A deterministic, non-masked sample mirroring the exhaustive campaign.

    Layers are drawn proportionally to their weight count, bits uniformly
    over all 32 positions, and models over the two stuck-at variants —
    the same population the committed exhaustive artifact enumerates — so
    the reported faults/sec predicts real campaign wall-clock rather than
    flattering the layers an engine happens to be fastest on.  Masked
    faults short-circuit without inference in every engine and are
    excluded (the campaign tallies them for free).
    """
    rng = np.random.default_rng(seed)
    faults: list[Fault] = []
    layers = engine.layers
    sizes = np.array([layer.size for layer in layers], dtype=np.float64)
    weights = sizes / sizes.sum()
    models = [FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1]
    while len(faults) < count:
        layer = int(rng.choice(len(layers), p=weights))
        fault = Fault(
            layer=layer,
            index=int(rng.integers(layers[layer].size)),
            bit=int(rng.integers(0, 32)),
            model=models[int(rng.integers(2))],
        )
        if not engine.injector.is_masked(fault):
            faults.append(fault)
    return faults


def time_engine(engine, faults: list[Fault]) -> tuple[float, list]:
    # Warm prefix caches with one full batch so the timed run measures
    # steady-state throughput.
    engine.classify_many(faults[: max(8, engine.batch_size)])
    start = time.perf_counter()
    outcomes = engine.classify_many(faults)
    return time.perf_counter() - start, outcomes


def time_one_per_call(engine, faults: list[Fault]) -> tuple[float, list]:
    """*engine* fed one fault per call, layer by layer; input-order outcomes."""
    order = sorted(range(len(faults)), key=lambda i: faults[i].layer)
    outcomes = [None] * len(faults)
    start = time.perf_counter()
    for i in order:
        outcomes[i] = engine.classify_many([faults[i]])[0]
    return time.perf_counter() - start, outcomes


def _appended_history(out: Path, payload: dict) -> list[dict]:
    """Prior runs' engine rates plus this one, oldest first.

    The bench file carries its own trajectory instead of being
    overwritten, so engine-throughput drift is visible across commits.
    Entries are keyed by run order, not wall time — the repo's
    determinism lint forbids clock reads next to serialization, and the
    git history already dates each entry.
    """
    history: list[dict] = []
    if out.is_file():
        try:
            with open(out, encoding="utf-8") as stream:
                previous = json.load(stream)
        except (OSError, json.JSONDecodeError):
            previous = {}
        history = list(previous.get("history", []))
    history.append(
        {
            "engines": payload["engines"],
            "faults": payload["faults"],
            "speedup_vs_module": payload["speedup_vs_module"],
            FLOOR: payload[FLOOR],
            "backend": payload["backend"],
        }
    )
    return history


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_engine.json"))
    parser.add_argument("--faults", type=int, default=768)
    args = parser.parse_args(argv)

    if not pretrained_path(MODEL).is_file():
        train_reference_model(MODEL)
    model = create_model(MODEL, pretrained=True)
    data = SynthCIFAR("test", size=EVAL_SIZE, seed=1234)

    engines = {
        kind: create_engine(model, data.images, data.labels, kind=kind)
        for kind in ENGINE_KINDS
    }
    faults = sample_faults(engines["module"], args.faults)

    timed = {kind: time_engine(engine, faults) for kind, engine in engines.items()}
    timed[FLOOR] = time_one_per_call(engines["plan"], faults)
    reference = timed["module"][1]
    results: dict[str, dict] = {}
    for name, (seconds, outcomes) in timed.items():
        if outcomes != reference:
            raise SystemExit(
                f"{name!r} diverged from the module outcomes — "
                "refusing to report throughput for broken numerics"
            )
        results[name] = {
            "seconds": round(seconds, 4),
            "faults_per_sec": round(len(faults) / seconds, 2),
        }
        print(
            f"{name:23s} {seconds:7.2f} s  "
            f"{len(faults) / seconds:8.1f} faults/s"
        )
    floor = results.pop(FLOOR)

    module_rate = results["module"]["faults_per_sec"]
    floor["speedup_vs_module"] = round(floor["faults_per_sec"] / module_rate, 2)
    # All three engines run the reference backend here (bit-identity is
    # asserted above, and only the reference attests it); the stamp
    # records the numpy version the rates were measured on.
    backend = engines["plan"].backend
    payload = {
        "benchmark": "engine_throughput",
        "model": MODEL,
        "eval_size": EVAL_SIZE,
        "faults": len(faults),
        "backend": {"name": backend.name, "version": backend.version},
        "engines": results,
        "speedup_vs_module": {
            name: round(row["faults_per_sec"] / module_rate, 2)
            for name, row in results.items()
        },
        FLOOR: floor,
        "outcomes_identical": True,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    payload["history"] = _appended_history(args.out, payload)
    serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_bytes(args.out, serialized.encode("utf-8"))
    print(
        f"wrote {args.out} "
        f"({len(payload['history'])} history entr"
        f"{'y' if len(payload['history']) == 1 else 'ies'})"
    )

    one_per_call = floor["speedup_vs_module"]
    if one_per_call < 1.0:
        raise SystemExit(
            f"plan engine fed one fault per call is {one_per_call:.2f}x the "
            "module engine — the unbatched throughput regression is back"
        )
    for name, speedup in payload["speedup_vs_module"].items():
        print(f"{name} speedup vs module: {speedup:.2f}x")
    print(f"{FLOOR} speedup vs module: {one_per_call:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
