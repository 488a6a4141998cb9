"""Campaign benchmark: fault-injection campaign throughput, set-up time and
memory, end to end and layer by layer.

Usage, from the repository root::

    python3 campaign_bench/run.py --workload exhaustive_slice --seed 1 \\
        --seconds 30 --trace 0

Without ``--workload`` it runs the workloads ``BENCHMARK.json`` gates,
in turn, printing a stamp and a result line for each.

Workloads (all closed loop: one driver process issues the next cell,
stratum or campaign only after the previous one returns;
``BENCHMARK.json`` says why each was chosen).  Work comes in rounds of
fixed composition (``inputs.py``); the seed orders each round and draws
the campaign seeds.

``exhaustive_slice``
    resnet14_mini on the ``plan_vectorized`` engine, set up through
    ``load_or_run_exhaustive`` (cache hit).  A round is the
    layer-stratified cell slice: every weight layer once, each with the
    fixed bit of ``inputs.SLICE_BITS``, picked so that a round costs per
    fault what the whole exhaustive campaign does.  Each whole
    (layer, bit) cell goes through ``timed_classify_cell``.
``sampled_live``
    mobilenetv2_mini as ``repro-run --method data-aware --live`` runs it:
    ``load_or_run_exhaustive`` (cache hit), a data-aware plan at 25%
    margin and 99% confidence, and ``CampaignRunner(InferenceOracle(
    engine)).run`` on the default engine.  A round is every non-empty
    stratum once, one stratum per call under its own campaign seed.
``method_replay``
    resnet14_mini as the Table III bench runs it: the four planners at
    1% margin and 99% confidence.  A round is one campaign seed run
    through every planner against ``TableOracle``, each result validated
    with ``validate_campaign``.  No kernel runs, so an engine change
    should leave it unchanged.  It is not in ``BENCHMARK.json``'s gated
    set, so it runs only when named: on the shared machine it was tuned
    on, the host's speed swings moved this pure-Python workload most, and
    the medians of three sets of ten runs differed by up to 1.3x, more
    than the largest bound (0.25) the gate allows.  ``faults.lookup_s``
    and ``sfi.validate_s`` only move on this workload and read 0 on the
    gated ones.

An untraced run (``--trace 0``) starts ``CHILDREN`` fresh interpreters
one after another (``child.py``).  The first ones only set up; the last
one also runs whole rounds until ``--seconds`` have passed.  Printed
metrics:

``faults_per_s``
    faults whose outcome the timed phase produced over the wall time of
    its work items, at the reference host speed (``hostspeed.py``: each
    stretch of work time is scaled by how long a fixed loop, timed at
    the stretch's ends, takes against its reference time).
    ``exhaustive_slice`` counts every fault of a cell, masked ones
    included, as the campaign population does; the sampled workloads
    count planned injections.
``setup_s``
    median over the children of the time from starting the interpreter
    to the end of set-up, just before the first fault is issued:
    imports, model, eval set, engine (capture, verification, golden
    pass), the verified table load and planning.  Each child's time is
    scaled to the reference host speed by the loop time taken right
    after its set-up.
``peak_rss_mb``
    the measuring process's peak resident set, read when its timed
    phase ends.

A ``raw:`` line before the result gives the unscaled ``faults_per_s``
and ``setup_s`` and the median loop time.

A traced run (``--trace 1``) starts one untraced child with half the
budget, then one traced child that repeats exactly the same rounds with
span wrappers installed (``probes.py``), and prints the per-layer
metrics (``metrics.py``).  Times marked *self* below subtract the time of
nested spans; the others are inclusive times of their boundary.

Each per-layer metric should move one end-to-end metric on some
workloads and leave it alone on others (``ex`` exhaustive_slice, ``sl``
sampled_live, ``mr`` method_replay):

=================================  ==================================  ==========================
metric                             boundary                            moves (on / not on)
=================================  ==================================  ==========================
runtime.predict_s (self),          ``predictions_for_faults``          faults_per_s: ex, sl / mr
runtime.predict_calls,
runtime.faults_per_call
runtime.layer_s.NN                 same spans by ``faults[0].layer``   faults_per_s: ex / mr
runtime.inferences, tail_passes,   engine counters, exact deltas       faults_per_s: ex, sl / mr
ops_executed, ops_cached           over the timed phase
runtime.vectorized.*               vectorized engine counters          faults_per_s, peak_rss_mb:
                                                                       ex / sl
backends.op_s.<kind>,              ``ExecutionPlan.run_op``            faults_per_s: ex (conv2d),
backends.op_calls.<kind>                                               sl (conv2d_grouped,
                                                                       linear) / mr
backends.gemm_s, gemm_calls,       ``Backend.gemm``,                   faults_per_s: ex / mr
backends.im2col_s, backends.bytes, ``Backend.im2col`` (flops, bytes
backends.*_flops                   computed from operand shapes)
faults.classify_s (self),          ``classify_many``,                  faults_per_s: sl
faults.classify_calls,             ``timed_classify_cell``
faults.classified, masked_ratio
faults.lookup_s                    ``TableOracle.classify_many``       faults_per_s: mr / ex
sfi.sample_s, sfi.sample_calls,    ``sample_subpopulation``,           faults_per_s: mr / ex
sfi.run_s (self), sfi.validate_s   ``CampaignRunner.run``,
                                   ``validate_campaign``
setup.import_s, models.load_s,     imports, ``create_model``,          setup_s: all
data.eval_set_s,                   ``SynthCIFAR``, ``create_engine``,
runtime.engine_init_s (self),      ``capture_plan``, ``check_plan*``,
runtime.capture_s, check.verify_s, ``execute_all``,
runtime.golden_s, store.load_s,    ``OutcomeTable.load``, planner
store.bytes_read, sfi.plan_s       ``.plan``
trace.unattributed_s               traced wall minus the sum of self times
trace.overhead_ratio               traced wall / untraced wall - 1
=================================  ==================================  ==========================

Every ratio comes with its base: ``runtime.vectorized.*_ratio`` over
``runtime.vectorized.nonmasked_faults``, ``faults.masked_ratio`` over
``faults.classified``, ``runtime.faults_per_call`` over
``runtime.predict_calls`` and ``trace.overhead_ratio`` over
``trace.untraced_wall_s``.

Every child checks its outcomes against the committed exhaustive tables
after its timed phase (``gate.py``).  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
exit code is 1 when any fault failed or a child crashed, and 2, with no
result printed, when the source tree or a committed table or weight file
is missing (the benchmark never regenerates them).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed
from metrics import END_TO_END, PER_LAYER

MODELS = {
    "exhaustive_slice": "resnet14_mini",
    "sampled_live": "mobilenetv2_mini",
    "method_replay": "resnet14_mini",
}

#: Fresh interpreters per untraced run: ``setup_s`` is their median.
CHILDREN = 3

#: A run's children must all have finished this many seconds after it
#: started; a child still running then is killed.
DEADLINE_S = 170

#: BLAS threads in every child, so a run does not depend on how many
#: cores the host has or how busy they are.
BLAS_THREADS = "1"


def gated_workloads() -> list[str]:
    """The workloads ``BENCHMARK.json`` names, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [workload["name"] for workload in spec["workloads"]]


def required_files(workload: str) -> list[Path]:
    """Source tree and committed artifacts the workload reads."""
    model = MODELS[workload]
    return [
        ROOT / "src" / "repro" / "__init__.py",
        ROOT / "artifacts" / "weights" / f"{model}.npz",
        ROOT / "artifacts" / "weights" / "MANIFEST.json",
        ROOT / "artifacts" / "exhaustive" / f"{model}_n64_accuracy_drop.npz",
        ROOT / "artifacts" / "exhaustive" / "MANIFEST.json",
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_ARTIFACTS"] = str(ROOT / "artifacts")
    for name in ("REPRO_BACKEND", "REPRO_WORKERS"):
        env.pop(name, None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


class ChildFailed(RuntimeError):
    pass


def spawn(spec: dict, deadline: float) -> dict:
    """Run one child to completion; its result plus its spawn time.

    ``subprocess.run`` kills and reaps a child that is still running at
    *deadline* (a ``time.monotonic()`` value).
    """
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec, sort_keys=True)],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline - spawned, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"run exceeded its {DEADLINE_S} s deadline") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError as exc:
        raise ChildFailed("child printed no result line") from exc
    result["spawned"] = spawned
    return result


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    """``CHILDREN - 1`` set-up-only children, then one that measures."""
    spec = {"workload": workload, "seed": seed, "budget": seconds, "trace": False}
    spec["calibrate"] = True
    results = [spawn({**spec, "rounds": 0}, deadline) for _ in range(CHILDREN - 1)]
    results.append(spawn({**spec, "rounds": None}, deadline))
    main = results[-1]
    setups = [r["timed_start"] - r["spawned"] for r in results]
    metrics = {
        "faults_per_s": main["faults"] / main["scaled_work_s"],
        "setup_s": statistics.median(
            hostspeed.scale(setup, r["loop_s"][0]) for setup, r in zip(setups, results)
        ),
        "peak_rss_mb": main["rss_mb"],
    }
    print(
        "raw: faults_per_s {:.6g} setup_s {:.6g}; loop {:.6g} s median over {} timings,"
        " reference {} s".format(
            main["faults"] / main["work_s"],
            statistics.median(setups),
            statistics.median(main["loop_s"]),
            len(main["loop_s"]),
            hostspeed.REFERENCE_S,
        )
    )
    return results, metrics


def traced(workload: str, seed: int, seconds: float, deadline: float):
    """An untraced child on half the budget, then a traced child that
    repeats exactly its rounds."""
    spec = {"workload": workload, "seed": seed, "calibrate": False}
    plain = spawn({**spec, "budget": seconds / 2, "rounds": None, "trace": False}, deadline)
    out = HERE / "traces" / f"{workload}-seed{seed}.json"
    spans = spawn(
        {**spec, "budget": None, "rounds": plain["rounds"], "trace": True, "trace_out": str(out)},
        deadline,
    )
    metrics = dict(spans["metrics"])
    metrics["trace.untraced_wall_s"] = plain["wall"]
    metrics["trace.overhead_ratio"] = spans["wall"] / plain["wall"] - 1.0
    return [plain, spans], metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One run of *workload*: prints its stamp and result; the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    missing = [str(path) for path in required_files(workload) if not path.is_file()]
    if missing:
        print("campaign_bench: refusing to run, missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    try:
        if trace:
            results, values = traced(workload, seed, seconds, deadline)
            units = PER_LAYER
        else:
            results, values = untraced(workload, seed, seconds, deadline)
            units = END_TO_END
    except ChildFailed as exc:
        print(f"campaign_bench: {workload}: {exc}", file=sys.stderr)
        return 1

    stamp = dict(results[0]["stamp"])
    stamp.update(nproc=os.cpu_count(), workload=workload, seed=seed)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if trace:
        print(
            "reconcile: sum of self times {:.6f} s + trace.unattributed_s {:.6f} s"
            " = traced wall {:.6f} s".format(
                results[1]["self_time_sum"], values["trace.unattributed_s"], results[1]["wall"]
            )
        )
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for result in results:
        for label in result["errors"]:
            print(f"raised: {label}", file=sys.stderr)
    correct = failed == 0 and attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            },
            sort_keys=True,
        ),
        flush=True,
    )
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=sorted(MODELS),
        help="run only this workload (default: those BENCHMARK.json gates)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = [args.workload] if args.workload else gated_workloads()
    codes = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    raise SystemExit(main())
