"""PlanEngine: bit-identical outcomes, batching accounting, fingerprints."""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import (
    Fault,
    FaultModel,
    FaultInjectionEngine,
    InferenceEngine,
)
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.runtime import DEFAULT_BATCH_SIZE, PlanEngine, create_engine
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def engines(tiny_model, tiny_eval_set):
    images, labels = tiny_eval_set
    return (
        InferenceEngine(tiny_model, images, labels),
        PlanEngine(tiny_model, images, labels, batch_size=8),
    )


def _random_faults(engine, count, seed, models=tuple(FaultModel)):
    rng = np.random.default_rng(seed)
    faults = []
    for model in models:
        for _ in range(count):
            layer = int(rng.integers(len(engine.layers)))
            faults.append(
                Fault(
                    layer=layer,
                    index=int(rng.integers(engine.layers[layer].size)),
                    bit=int(rng.integers(32)),
                    model=model,
                )
            )
    return faults


class TestPlanMatchesModule:
    def test_golden_state_identical(self, engines):
        module_engine, plan_engine = engines
        np.testing.assert_array_equal(
            module_engine.golden_predictions, plan_engine.golden_predictions
        )
        assert module_engine.golden_accuracy == plan_engine.golden_accuracy

    def test_outcomes_identical_across_fault_models(self, engines):
        module_engine, plan_engine = engines
        faults = _random_faults(module_engine, 30, seed=5)
        assert plan_engine.classify_many(faults) == (
            module_engine.classify_many(faults)
        )

    def test_batched_predictions_bitwise_equal(self, engines):
        """Batched tail passes return exactly the unbatched predictions."""
        module_engine, plan_engine = engines
        rng = np.random.default_rng(9)
        for layer in range(len(module_engine.layers)):
            faults = [
                Fault(
                    layer=layer,
                    index=int(rng.integers(module_engine.layers[layer].size)),
                    bit=int(rng.integers(20, 32)),
                    model=FaultModel.BIT_FLIP,
                )
                for _ in range(6)
            ]
            batched = plan_engine.predictions_for_faults(faults)
            reference = np.stack(
                [module_engine.predictions_with_fault(f) for f in faults]
            )
            np.testing.assert_array_equal(batched, reference)

    def test_single_fault_path(self, engines):
        module_engine, plan_engine = engines
        fault = Fault(layer=0, index=0, bit=30, model=FaultModel.BIT_FLIP)
        np.testing.assert_array_equal(
            plan_engine.predictions_with_fault(fault),
            module_engine.predictions_with_fault(fault),
        )

    def test_empty_batch(self, engines):
        _, plan_engine = engines
        assert plan_engine.predictions_for_faults([]).shape == (
            0,
            len(plan_engine.images),
        )


class TestInferenceAccounting:
    def test_batched_pass_counts_logical_inferences(
        self, tiny_model, tiny_eval_set
    ):
        """A tail pass covering K faults counts K inferences (satellite:
        faults/sec stays comparable across engines)."""
        images, labels = tiny_eval_set
        engine = PlanEngine(tiny_model, images, labels, batch_size=8)
        faults = [
            Fault(layer=1, index=i, bit=24, model=FaultModel.BIT_FLIP)
            for i in range(8)
        ]
        engine.classify_many(faults)
        assert engine.inference_count == 8
        assert engine.tail_passes == 1

    def test_op_cache_accounting(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        engine = PlanEngine(tiny_model, images, labels, batch_size=4)
        last_layer = len(engine.layers) - 1
        fault = Fault(
            layer=last_layer, index=0, bit=30, model=FaultModel.BIT_FLIP
        )
        engine.classify(fault)
        # The classifier is the last op: nothing downstream to recompute,
        # every other op served from the golden cache.
        assert engine.tail_passes == 1
        assert engine.ops_executed == 0
        assert engine.ops_cached == len(engine.plan.ops) - 1

    def test_telemetry_counts_inferences_and_spans(
        self, tiny_model, tiny_eval_set
    ):
        images, labels = tiny_eval_set
        tele = Telemetry(run_id="test-plan-engine")
        engine = PlanEngine(
            tiny_model, images, labels, batch_size=8, telemetry=tele
        )
        faults = [
            Fault(layer=1, index=i, bit=24, model=FaultModel.BIT_FLIP)
            for i in range(5)
        ]
        engine.classify_many(faults)
        assert tele.metrics.counter("engine.inferences").value == 5
        assert tele.metrics.counter("engine.faults_classified").value == 5
        timers = tele.metrics.snapshot()["timers"]
        assert any(name.startswith("span.plan.op.") for name in timers)

    def test_module_engine_counts_via_shared_counter(
        self, tiny_model, tiny_eval_set
    ):
        images, labels = tiny_eval_set
        tele = Telemetry(run_id="test-module-engine")
        engine = InferenceEngine(tiny_model, images, labels, telemetry=tele)
        fault = Fault(layer=0, index=0, bit=30, model=FaultModel.BIT_FLIP)
        engine.classify(fault)
        assert tele.metrics.counter("engine.inferences").value == 1
        assert engine.inference_count == 1


class TestFingerprint:
    def test_fingerprint_covers_engine_identity(self, tiny_model, tiny_eval_set):
        """Same weights/images, different classification config -> different
        fingerprints (fmt/policy/threshold/kind are in the hash)."""
        images, labels = tiny_eval_set
        base = InferenceEngine(tiny_model, images, labels)
        variants = [
            InferenceEngine(tiny_model, images, labels, policy="any_mismatch"),
            InferenceEngine(
                tiny_model,
                images,
                labels,
                policy="accuracy_threshold",
                threshold=0.25,
            ),
            InferenceEngine(tiny_model, images, labels, fmt=FLOAT16),
            PlanEngine(tiny_model, images, labels),
        ]
        prints = [base.fingerprint()] + [v.fingerprint() for v in variants]
        assert len(set(prints)) == len(prints), "fingerprint collision"

    def test_fingerprint_stable_across_instances(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        a = PlanEngine(tiny_model, images, labels)
        b = PlanEngine(tiny_model, images, labels, batch_size=4)
        # batch_size is an execution detail, not an outcome-changing one.
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_tracks_weights(self, tiny_eval_set):
        images, labels = tiny_eval_set
        model_a = ResNetCIFAR(blocks_per_stage=1, widths=(4, 6, 8), seed=1)
        model_b = ResNetCIFAR(blocks_per_stage=1, widths=(4, 6, 8), seed=2)
        a = PlanEngine(model_a.eval(), images, labels)
        b = PlanEngine(model_b.eval(), images, labels)
        assert a.fingerprint() != b.fingerprint()


class TestCreateEngine:
    def test_default_is_plan(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        engine = create_engine(tiny_model, images, labels)
        assert isinstance(engine, PlanEngine)
        assert engine.kind == "plan"
        assert engine.batch_size == DEFAULT_BATCH_SIZE
        assert isinstance(engine, FaultInjectionEngine)

    def test_module_kind(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        engine = create_engine(tiny_model, images, labels, kind="module")
        assert isinstance(engine, InferenceEngine)
        assert engine.kind == "module"
        assert engine.batch_size == 1

    def test_module_refuses_batch_size(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        with pytest.raises(ValueError, match="one at a time"):
            create_engine(
                tiny_model, images, labels, kind="module", batch_size=8
            )

    def test_unknown_kind(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        with pytest.raises(ValueError, match="unknown engine kind"):
            create_engine(tiny_model, images, labels, kind="jit")

    def test_plan_engine_rejects_bad_batch_size(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        with pytest.raises(ValueError, match="batch_size"):
            PlanEngine(tiny_model, images, labels, batch_size=0)

