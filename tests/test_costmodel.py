"""Tests for the telemetry-driven campaign cost model."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.sfi import NetworkWiseSFI
from repro.telemetry import (
    CostModel,
    CostModelError,
    EngineRate,
    Journal,
    Telemetry,
    choose_submit_settings,
    fit_cost_model,
    format_comparisons,
    load_bench,
    predicted_vs_actual,
    summarize_journal,
)


@pytest.fixture()
def tiny_space():
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    return FaultSpace(model, fmt=FLOAT16)


@pytest.fixture()
def measured_journal(tmp_path):
    """A synthetic but self-consistent exhaustive campaign journal.

    Layer 0 runs at 1000 faults/sec, layer 1 at 500 — the per-layer fit
    must keep them apart rather than blending into one global rate.
    """
    path = tmp_path / "measured.jsonl"
    tele = Telemetry(journal=Journal(path))
    tele.emit(
        "campaign_start",
        kind="exhaustive",
        model="synthetic",
        engine="plan",
        batch_size=4,
        total=3000,
        cells_total=3,
    )
    cells = [(0, 0, 1000, 1.0), (0, 1, 1000, 1.0), (1, 0, 1000, 2.0)]
    for layer, bit, faults, seconds in cells:
        tele.emit("cell_start", layer=layer, bit=bit)
        tele.emit(
            "cell_done",
            layer=layer,
            bit=bit,
            seconds=seconds,
            faults=faults,
            inferences=faults,
        )
    tele.emit("campaign_end", elapsed_seconds=4.0, faults=3000)
    return path


def bench_file(tmp_path, rates: dict[str, float]):
    path = tmp_path / "BENCH_engine.json"
    payload = {
        "engines": {
            kind: {"faults_per_sec": fps} for kind, fps in rates.items()
        }
    }
    path.write_text(json.dumps(payload))
    return path


class TestFit:
    def test_per_layer_rates_fitted(self, measured_journal):
        model = fit_cost_model(summarize_journal(measured_journal))
        assert model.cells_observed == 3
        assert model.faults_observed == 3000
        assert model.measured_engine == "plan"
        assert model.layer_seconds_per_fault[0] == pytest.approx(0.001)
        assert model.layer_seconds_per_fault[1] == pytest.approx(0.002)
        # Global rate blends both for layers never observed.
        assert model.seconds_per_fault == pytest.approx(4.0 / 3000)
        assert model.layer_rate(99) == model.seconds_per_fault
        # The fit pins predictions to the hardware it ran on.
        assert model.host_cpus == os.cpu_count()

    def test_fit_without_cells_fails_loudly(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        tele = Telemetry(journal=Journal(path))
        tele.emit("campaign_start", kind="sampled", total=10)
        tele.emit("campaign_end", elapsed_seconds=0.1)
        with pytest.raises(CostModelError, match="no measured cells"):
            fit_cost_model(summarize_journal(path))

    def test_roundtrips_through_json(self, measured_journal, tmp_path):
        model = fit_cost_model(summarize_journal(measured_journal))
        model.engine_rates = {"plan": EngineRate("plan", 100.0)}
        out = tmp_path / "cm.json"
        model.save(out)
        back = CostModel.load(out)
        assert back.to_dict() == model.to_dict()
        assert back.layer_seconds_per_fault == model.layer_seconds_per_fault
        assert back.engine_rates["plan"] == model.engine_rates["plan"]
        # Records saved by earlier releases stamp a backend on each rate.
        legacy = model.to_dict()
        legacy["engine_rates"]["plan"]["backend"] = "numpy"
        back = CostModel.from_dict(legacy)
        assert back.to_dict() == model.to_dict()

    def test_loads_record_saved_with_batch_sizes(self, tmp_path, tiny_space):
        """Records saved while batch size was an option carry
        ``measured_batch_size`` and rates keyed by bench row name; the
        ``plan_batched`` row is not an engine kind and is skipped."""
        def row(name, kind, batch, fps):
            return {
                "name": name,
                "kind": kind,
                "batch_size": batch,
                "faults_per_sec": fps,
            }

        path = tmp_path / "older.json"
        path.write_text(
            json.dumps(
                {
                    "model": "synthetic",
                    "measured_engine": "plan",
                    "measured_batch_size": 16,
                    "seconds_per_fault": 0.002,
                    "layer_seconds_per_fault": {"0": 0.001},
                    "engine_rates": {
                        "module": row("module", "module", 1, 50.0),
                        "plan": row("plan", "plan", 1, 100.0),
                        "plan_batched": row("plan_batched", "plan", 16, 120.0),
                        "plan_vectorized": row(
                            "plan_vectorized", "plan_vectorized", 256, 200.0
                        ),
                    },
                    "utilisation": 0.9,
                    "host_cpus": 2,
                    "cells_observed": 3,
                    "faults_observed": 3000,
                }
            )
        )
        model = CostModel.load(path)
        assert sorted(model.engine_rates) == ["module", "plan", "plan_vectorized"]
        assert model.engine_rates["plan"] == EngineRate("plan", 100.0)
        assert model.engine_scale("module") == pytest.approx(2.0)
        assert "measured_batch_size" not in model.to_dict()
        prediction = model.predict_exhaustive(tiny_space)
        assert prediction.engine == "plan"
        assert "batch_size" not in prediction.to_dict()


class TestBench:
    def test_load_bench_maps_kinds(self, tmp_path):
        path = bench_file(
            tmp_path,
            {"module": 50.0, "plan": 200.0, "plan_vectorized": 400.0},
        )
        rates = load_bench(path)
        assert sorted(rates) == ["module", "plan", "plan_vectorized"]
        assert rates["plan"] == EngineRate("plan", 200.0)
        assert rates["plan_vectorized"].kind == "plan_vectorized"
        assert rates["module"].faults_per_sec == 50.0

    def test_load_bench_reads_older_layout(self, tmp_path):
        """A bench file written while batch size was an option: per-row
        ``batch_size`` and a ``plan_batched`` row, which is not an
        engine kind and is skipped."""
        path = tmp_path / "BENCH_engine.json"
        path.write_text(
            json.dumps(
                {
                    "engines": {
                        "module": {"batch_size": 1, "faults_per_sec": 50.0},
                        "plan": {"batch_size": 1, "faults_per_sec": 100.0},
                        "plan_batched": {
                            "batch_size": 16,
                            "faults_per_sec": 200.0,
                        },
                        "plan_vectorized": {
                            "batch_size": 256,
                            "faults_per_sec": 400.0,
                        },
                    },
                    "history": [],
                }
            )
        )
        rates = load_bench(path)
        assert sorted(rates) == ["module", "plan", "plan_vectorized"]
        assert rates["plan"] == EngineRate("plan", 100.0)
        assert rates["plan_vectorized"].faults_per_sec == 400.0

    def test_engine_scale_is_relative(self, measured_journal, tmp_path):
        bench = load_bench(
            bench_file(
                tmp_path,
                {"module": 50.0, "plan": 200.0},
            )
        )
        model = fit_cost_model(summarize_journal(measured_journal), bench=bench)
        # Measured on plan (200 f/s); module runs at a quarter of
        # that, so module predictions cost 4x.
        assert model.engine_scale("module") == pytest.approx(4.0)
        assert model.engine_scale("plan") == pytest.approx(1.0)

    def test_missing_bench_rows_scale_to_one(self, measured_journal):
        model = fit_cost_model(summarize_journal(measured_journal))
        assert model.engine_scale("module") == 1.0
        assert model.engine_scale("plan_vectorized") == 1.0


class TestPredict:
    def test_exhaustive_sums_layer_cells(self, measured_journal, tiny_space):
        model = fit_cost_model(summarize_journal(measured_journal))
        prediction = model.predict_exhaustive(tiny_space, workers=1)
        expected = sum(
            tiny_space.bits
            * tiny_space.cell_population(layer)
            * model.layer_rate(layer)
            for layer in range(len(tiny_space.layers))
        )
        assert prediction.serial_seconds == pytest.approx(expected)
        assert prediction.fault_evals == tiny_space.total_population
        assert prediction.kind == "exhaustive"

    def test_workers_divide_wall_at_utilisation(
        self, measured_journal, tiny_space
    ):
        model = fit_cost_model(summarize_journal(measured_journal))
        model.utilisation = 1.0
        model.host_cpus = None  # uncapped: check the division itself
        one = model.predict_exhaustive(tiny_space, workers=1)
        four = model.predict_exhaustive(tiny_space, workers=4)
        assert four.wall_seconds == pytest.approx(one.wall_seconds / 4)
        # Shards cap parallelism: 4 workers over 2 shards scale like 2.
        capped = model.predict_exhaustive(tiny_space, workers=4, shards=2)
        assert capped.wall_seconds == pytest.approx(one.wall_seconds / 2)

    def test_host_cpus_cap_parallelism(self, measured_journal, tiny_space):
        # Eight CPU-bound workers on a two-core host time-slice; the
        # prediction must not promise an 8x speedup.
        model = fit_cost_model(summarize_journal(measured_journal))
        model.utilisation = 1.0
        model.host_cpus = 2
        one = model.predict_exhaustive(tiny_space, workers=1)
        eight = model.predict_exhaustive(tiny_space, workers=8, shards=8)
        assert eight.wall_seconds == pytest.approx(one.wall_seconds / 2)

    def test_sampled_prices_plan_items(self, measured_journal, tiny_space):
        model = fit_cost_model(summarize_journal(measured_journal))
        plan = NetworkWiseSFI(0.05, 0.95).plan(tiny_space)
        prediction = model.predict_sampled(plan)
        assert prediction.kind == "sampled"
        assert prediction.fault_evals == plan.total_injections
        assert prediction.serial_seconds > 0

    def test_unfitted_model_refuses_to_predict(self, tiny_space):
        with pytest.raises(CostModelError, match="no measured cells"):
            CostModel().predict_exhaustive(tiny_space)

    def test_prediction_event_fields_are_flat(
        self, measured_journal, tiny_space
    ):
        model = fit_cost_model(summarize_journal(measured_journal))
        fields = model.predict_exhaustive(tiny_space).event_fields()
        assert "fitted_from" not in fields
        assert isinstance(fields["wall_seconds"], float)
        assert fields["fault_evals"] == tiny_space.total_population


class TestSelfConsistency:
    def test_first_fit_predicts_measured_campaign_within_2x(self, tmp_path):
        """The acceptance bound: fit from one run, re-predict its cost.

        The campaign that produced the journal is the one being priced,
        so the prediction must land well inside the 2x acceptance band.
        """
        model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        engine = InferenceEngine(model, data.images, data.labels, fmt=FLOAT16)
        space = FaultSpace(engine.layers, fmt=FLOAT16)
        journal = tmp_path / "run.jsonl"
        tele = Telemetry(journal=Journal(journal))
        tele.emit(
            "campaign_start",
            kind="exhaustive",
            model="tiny",
            engine="module",
            batch_size=1,
            total=space.total_population,
        )
        import time

        start = time.perf_counter()
        OutcomeTable.from_exhaustive(engine, space, telemetry=tele)
        measured = time.perf_counter() - start
        tele.emit("campaign_end", elapsed_seconds=measured)

        cost_model = fit_cost_model(summarize_journal(journal))
        prediction = cost_model.predict_exhaustive(space, workers=1)
        # predict_exhaustive assumes one worker at the observed
        # utilisation; compare against the serial estimate.
        ratio = prediction.serial_seconds / measured
        assert 0.5 <= ratio <= 2.0, (
            f"predicted {prediction.serial_seconds:.2f}s for a measured "
            f"{measured:.2f}s campaign ({ratio:.2f}x)"
        )


class TestChooseSubmitSettings:
    def make_model(self, tmp_path):
        bench = load_bench(
            bench_file(
                tmp_path,
                {"module": 50.0, "plan": 200.0, "plan_vectorized": 400.0},
            )
        )
        return CostModel(
            measured_engine="plan",
            seconds_per_fault=0.005,
            engine_rates=bench,
            utilisation=1.0,
            cells_observed=1,
            faults_observed=200,
        )

    def test_fastest_allowed_engine_wins(self, tmp_path, tiny_space):
        model = self.make_model(tmp_path)
        choice = choose_submit_settings(model, tiny_space, workers=2)
        assert choice.engine == "plan_vectorized"
        exact_only = choose_submit_settings(
            model, tiny_space, workers=2, allowed_engines=("plan", "module")
        )
        assert exact_only.engine == "plan"

    def test_shards_track_target_seconds(self, tmp_path, tiny_space):
        model = self.make_model(tmp_path)
        fine = choose_submit_settings(
            model, tiny_space, workers=2, target_shard_seconds=1.0
        )
        coarse = choose_submit_settings(
            model, tiny_space, workers=2, target_shard_seconds=1e9
        )
        assert fine.shards > coarse.shards
        # Never starve the fleet, never exceed cell granularity.
        assert coarse.shards == 2
        cells = len(tiny_space.layers) * tiny_space.bits
        assert fine.shards <= cells

    def test_nonpositive_target_rejected(self, tmp_path, tiny_space):
        model = self.make_model(tmp_path)
        with pytest.raises(CostModelError, match="must be positive"):
            choose_submit_settings(model, tiny_space, target_shard_seconds=0)


class TestPredictedVsActual:
    def journal_with_prediction(self, tmp_path, *, work_after: bool):
        path = tmp_path / "j.jsonl"
        tele = Telemetry(journal=Journal(path))
        tele.emit(
            "campaign_predicted",
            kind="exhaustive",
            engine="plan",
            workers=2,
            shards=4,
            fault_evals=2000,
            serial_seconds=4.0,
            wall_seconds=2.0,
            utilisation=1.0,
            engine_scale=1.0,
        )
        if work_after:
            worker = Telemetry(journal=Journal(path))
            worker.emit("campaign_start", kind="exhaustive", total=2000)
            worker.emit("shard_claim", shard="s1", worker="w1")
            worker.emit(
                "cell_done", layer=0, bit=0, seconds=1.0, faults=2000
            )
            worker.emit("shard_done", shard="s1", worker="w1")
            worker.emit("campaign_end", elapsed_seconds=1.0, faults=2000)
        return path

    def test_work_after_prediction_is_aggregated(self, tmp_path):
        path = self.journal_with_prediction(tmp_path, work_after=True)
        comparisons = predicted_vs_actual(summarize_journal(path))
        assert len(comparisons) == 1
        cmp = comparisons[0]
        assert cmp.resolved
        assert cmp.actual_fault_evals == 2000
        assert cmp.evals_ratio == pytest.approx(1.0)
        rendered = format_comparisons(comparisons)
        assert "predicted vs actual:" in rendered
        assert "error: wall" in rendered

    def test_prediction_without_work_stays_unresolved(self, tmp_path):
        path = self.journal_with_prediction(tmp_path, work_after=False)
        comparisons = predicted_vs_actual(summarize_journal(path))
        assert len(comparisons) == 1
        assert not comparisons[0].resolved
        assert comparisons[0].wall_ratio is None
        rendered = format_comparisons(comparisons)
        assert "no campaign work observed" in rendered
