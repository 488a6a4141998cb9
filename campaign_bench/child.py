"""One workload process of the campaign benchmark.

``run.py`` starts this file in a fresh interpreter with one JSON
argument, the run spec, and reads the JSON line it prints last.  The
process imports and sets up its workload, runs the closed-loop timed
phase (the next cell, stratum or campaign is issued only after the
previous one returns), reads the engine counters, and then, outside the
timed phase, checks every outcome against the committed exhaustive
tables.  With ``"trace": true`` it also wraps the layer boundaries
(:mod:`probes`), keeps the spans in memory and writes them out at the
end.
"""

import time

# Taken before any other import: the traced wall and the import span start here.
STARTED = time.monotonic()

import ctypes
import dataclasses
import glob
import importlib
import json
import os
import resource
import sys
import traceback

import gate
from hostspeed import WorkClock
from inputs import SLICE_BITS, cell_rounds, replay_rounds, stratum_rounds
from metrics import ENGINE_COUNTERS

#: Rounds drawn per run; a run longer than this many rounds repeats them.
ROUNDS = 64


class ExhaustiveSlice:
    """Whole (layer, bit) cells of resnet14_mini on the vectorized engine."""

    model = "resnet14_mini"
    engine_kind = "plan_vectorized"
    imports = ("repro.faults", "repro.sfi.artifacts")

    def setup(self) -> None:
        import repro.faults.table
        from repro.sfi.artifacts import load_or_run_exhaustive

        self.table, self.space, self.engine = load_or_run_exhaustive(
            self.model, engine_kind=self.engine_kind, workers=1
        )
        if len(self.space.layers) != len(SLICE_BITS):
            raise ValueError(
                f"{self.model} has {len(self.space.layers)} weight layers,"
                f" SLICE_BITS names {len(SLICE_BITS)}"
            )
        self.module = repro.faults.table
        self.cells: list = []

    def rounds(self, seed: int) -> list:
        return cell_rounds(seed, ROUNDS)

    def label(self, item) -> str:
        return "cell:L{:02d}B{:02d}".format(*item)

    def run(self, item) -> int:
        layer, bit = item
        cell, _, _ = self.module.timed_classify_cell(
            self.engine, self.space, layer, bit, self.engine.telemetry
        )
        self.cells.append((layer, bit, cell))
        return int(cell.size)

    def fail(self, item) -> None:
        self.cells.append((*item, None))

    def check(self) -> tuple[int, int]:
        return gate.check_cells(self.cells, self.table)


class SampledLive:
    """Data-aware strata of mobilenetv2_mini, injected live on the default engine."""

    model = "mobilenetv2_mini"
    margin = 0.25
    confidence = 0.99
    imports = ("repro.faults", "repro.sfi", "repro.sfi.artifacts")

    def setup(self) -> None:
        from repro.faults import InferenceOracle, TableOracle
        from repro.sfi import CampaignRunner, DataAwareSFI
        from repro.sfi.artifacts import load_or_run_exhaustive

        table, space, self.engine = load_or_run_exhaustive(self.model, workers=1)
        self.plan = DataAwareSFI(self.margin, self.confidence).plan(space)
        self.runner = CampaignRunner(InferenceOracle(self.engine), space)
        self.replay = CampaignRunner(TableOracle(table, space), space)
        self.results: list = []

    def rounds(self, seed: int) -> list:
        strata = [i for i, item in enumerate(self.plan.items) if item.sample_size > 0]
        return stratum_rounds(seed, strata, ROUNDS)

    def label(self, item) -> str:
        return "stratum:{}:{}".format(*item)

    def _stratum(self, index: int):
        return dataclasses.replace(self.plan, items=[self.plan.items[index]])

    def run(self, item) -> int:
        index, seed = item
        result = self.runner.run(self._stratum(index), seed=seed, workers=1)
        self.results.append((index, seed, result.cell_tallies))
        return result.total_injections

    def fail(self, item) -> None:
        self.results.append((*item, {}))

    def check(self) -> tuple[int, int]:
        attempted = failed = 0
        for index, seed, tallies in self.results:
            replay = self.replay.run(self._stratum(index), seed=seed, workers=1)
            a, f = gate.check_tallies(tallies, replay.cell_tallies)
            attempted, failed = attempted + a, failed + f
        return attempted, failed


class MethodReplay:
    """The four planners of Table III replayed over the resnet14_mini table."""

    model = "resnet14_mini"
    imports = ("repro.faults", "repro.sfi", "repro.sfi.artifacts", "repro.sfi.validation")

    def setup(self) -> None:
        import repro.sfi.validation
        from repro.faults import TableOracle
        from repro.sfi import (
            CampaignRunner,
            DataAwareSFI,
            DataUnawareSFI,
            LayerWiseSFI,
            NetworkWiseSFI,
        )
        from repro.sfi.artifacts import load_or_run_exhaustive

        self.table, self.space, self.engine = load_or_run_exhaustive(self.model, workers=1)
        planners = (NetworkWiseSFI(), LayerWiseSFI(), DataUnawareSFI(), DataAwareSFI())
        self.plans = [planner.plan(self.space) for planner in planners]
        self.runner = CampaignRunner(TableOracle(self.table, self.space), self.space)
        self.validation = repro.sfi.validation
        self.results: list = []

    def rounds(self, seed: int) -> list:
        return replay_rounds(seed, len(self.plans), ROUNDS)

    def label(self, item) -> str:
        return "campaign:{}:{}".format(self.plans[item[0]].method, item[1])

    def run(self, item) -> int:
        index, seed = item
        result = self.runner.run(self.plans[index], seed=seed, workers=1)
        self.validation.validate_campaign(result, self.table)
        self.results.append((index, seed, result.cell_tallies))
        return result.total_injections

    def fail(self, item) -> None:
        self.results.append((*item, {}))

    def check(self) -> tuple[int, int]:
        attempted = failed = 0
        for index, seed, tallies in self.results:
            expected = gate.table_tallies(self.plans[index], seed, self.table, self.space)
            a, f = gate.check_tallies(tallies, expected)
            attempted, failed = attempted + a, failed + f
        return attempted, failed


WORKLOADS = {
    "exhaustive_slice": ExhaustiveSlice,
    "sampled_live": SampledLive,
    "method_replay": MethodReplay,
}


def blas_threads() -> str:
    """OpenBLAS thread count of the numpy in use, read from the library."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def counters(engine) -> dict:
    return {name: int(getattr(engine, attr, 0)) for attr, name in ENGINE_COUNTERS.items()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = WORKLOADS[spec["workload"]]()
    tracing = bool(spec["trace"])

    for name in workload.imports:
        importlib.import_module(name)
    if tracing:
        import probes
        from metrics import per_layer
        from spans import Tracer, reconcile
    import_end = time.monotonic()
    if tracing:
        tracer = Tracer()
        tracer.record("setup.import", STARTED, import_end)
        restore = probes.install(tracer)

    workload.setup()
    rounds = workload.rounds(spec["seed"])
    budget, limit = spec["budget"], spec["rounds"]
    before = counters(workload.engine)
    faults = done = 0
    errors: list[str] = []
    timed_start = time.monotonic()
    meter = WorkClock() if spec["calibrate"] else None
    while limit is None or done < limit:
        for item in rounds[done % len(rounds)]:
            if tracing:
                tracer.trace = workload.label(item)
            start = time.monotonic()
            try:
                faults += workload.run(item)
            except Exception:  # the gate counts the item's faults as failed
                traceback.print_exc()
                errors.append(workload.label(item))
                workload.fail(item)
            if meter is not None:
                meter.add(time.monotonic() - start)
        done += 1
        if limit is None and time.monotonic() - timed_start >= budget:
            break
    timed_end = time.monotonic()
    if meter is not None:
        meter.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    after = counters(workload.engine)
    if tracing:
        restore()

    attempted, failed = workload.check()
    result = {
        "timed_start": timed_start,
        "timed_end": timed_end,
        "wall": timed_end - STARTED,
        "work_s": meter.raw if meter else timed_end - timed_start,
        "scaled_work_s": meter.scaled if meter else None,
        "loop_s": meter.samples if meter else [],
        "rounds": done,
        "faults": faults,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "stamp": {
            "numpy": sys.modules["numpy"].__version__,
            "blas_threads": blas_threads(),
            "backend": workload.engine.backend.name,
        },
    }
    if tracing:
        delta = {name: after[name] - before[name] for name in after}
        result["metrics"] = per_layer(tracer.spans, timed_end - STARTED, delta)
        result["self_time_sum"] = reconcile(tracer.spans, timed_end - STARTED)[0]
        tracer.dump(spec["trace_out"])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
