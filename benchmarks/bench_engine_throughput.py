"""Engine throughput trajectory: module vs plan vs vectorized plan.

Times the four execution strategies on the same deterministic,
campaign-representative fault sample from ``resnet14_mini`` (layers drawn
proportionally to their weight count, all 32 bit positions, both stuck-at
models — the population the committed exhaustive artifact enumerates) and
writes ``BENCH_engine.json`` so CI can track faults/sec across commits:

- ``module``          — stage-granular prefix caching, one fault at a
                        time,
- ``plan``            — op-granular prefix caching, one fault at a time,
- ``plan_batched``    — op-granular caching plus K same-layer faults per
                        tail pass: one seeding GEMM, then the exact
                        dense tail once per variant,
- ``plan_vectorized`` — certified variant-axis stacking: no-flip
                        certification retires most rows, survivors run
                        cache-blocked stacked kernels.

Outcomes are bit-identical across all four (asserted here); the run
aborts if they ever diverge, so a throughput number never ships for
an engine that changed the science.  The run also aborts if the plan
engine at batch_size=1 falls below the module engine — the regression
this trajectory exists to keep fixed.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        [--out BENCH_engine.json] [--faults 768] [--batch-size 16]
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
from repro.runtime import DEFAULT_VEC_BATCH_SIZE, create_engine
from repro.store import atomic_write_bytes
from repro.train import train_reference_model

MODEL = "resnet14_mini"
EVAL_SIZE = 64


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
            "backend": payload["backend"],
        }
    )
    return history


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("BENCH_engine.json"))
    parser.add_argument("--faults", type=int, default=768)
    parser.add_argument("--batch-size", type=int, default=16)
    args = parser.parse_args(argv)

    if not pretrained_path(MODEL).is_file():
        train_reference_model(MODEL)
    model = create_model(MODEL, pretrained=True)
    data = SynthCIFAR("test", size=EVAL_SIZE, seed=1234)

    engines = {
        "module": create_engine(
            model, data.images, data.labels, kind="module"
        ),
        "plan": create_engine(
            model, data.images, data.labels, kind="plan", batch_size=1
        ),
        "plan_batched": create_engine(
            model,
            data.images,
            data.labels,
            kind="plan",
            batch_size=args.batch_size,
        ),
        "plan_vectorized": create_engine(
            model,
            data.images,
            data.labels,
            kind="plan_vectorized",
            batch_size=DEFAULT_VEC_BATCH_SIZE,
        ),
    }
    faults = sample_faults(engines["module"], args.faults)

    results: dict[str, dict] = {}
    reference = None
    for name, engine in engines.items():
        seconds, outcomes = time_engine(engine, faults)
        if reference is None:
            reference = outcomes
        elif outcomes != reference:
            raise SystemExit(
                f"engine {name!r} diverged from the module outcomes — "
                "refusing to report throughput for broken numerics"
            )
        results[name] = {
            "seconds": round(seconds, 4),
            "faults_per_sec": round(len(faults) / seconds, 2),
            "batch_size": engine.batch_size,
        }
        print(
            f"{name:13s} {seconds:7.2f} s  "
            f"{len(faults) / seconds:8.1f} faults/s"
        )

    module_rate = results["module"]["faults_per_sec"]
    # All four engines run the reference backend here (bit-identity is
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

    unbatched = payload["speedup_vs_module"]["plan"]
    if unbatched < 1.0:
        raise SystemExit(
            f"plan engine at batch_size=1 is {unbatched:.2f}x the module "
            "engine — the unbatched throughput regression is back"
        )
    batched = payload["speedup_vs_module"]["plan_batched"]
    vectorized = payload["speedup_vs_module"]["plan_vectorized"]
    print(f"plan (bs=1) speedup vs module:  {unbatched:.2f}x")
    print(f"plan_batched speedup vs module: {batched:.2f}x")
    print(f"plan_vectorized speedup vs module: {vectorized:.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
