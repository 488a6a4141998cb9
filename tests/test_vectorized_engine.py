"""Vectorized engine guarantees: bit-identity, fingerprints, conformance.

The vectorized engine's whole contract is that certification and
variant-axis stacking change throughput, never outcomes: its tables must
be bit-identical to the exact plan engine's, its fingerprint must be
*distinct* (the execution strategy differs) yet *attested compatible*
(the outcomes provably do not), and the dist layer must accept exactly
the mixed-engine fleets that attestation covers — and refuse the rest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import fingerprints_compatible, run_conformance
from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    exhaustive_config,
    verify_context_config,
)
from repro.faults import Fault, FaultModel, FaultSpace, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR, create_model
from repro.runtime import (
    DEFAULT_VEC_BATCH_SIZE,
    PlanEngine,
    VectorizedPlanEngine,
    create_engine,
)


@pytest.fixture(scope="module")
def tiny_setup():
    """Exact and vectorized plan engines over the same tiny model."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    exact = PlanEngine(
        model, data.images, data.labels, fmt=FLOAT16, batch_size=8
    )
    vectorized = VectorizedPlanEngine(
        model, data.images, data.labels, fmt=FLOAT16, batch_size=64
    )
    space = FaultSpace(exact.layers, fmt=FLOAT16)
    return exact, vectorized, space


def all_layer_faults(engine, *, bits=None) -> list[Fault]:
    """A deterministic sample hitting every layer (so every op kind)."""
    total = engine.injector.fmt.total_bits
    if bits is None:
        bits = (0, 1, total // 2, total - 2, total - 1)
    faults = []
    for layer_idx, layer in enumerate(engine.layers):
        for bit in bits:
            for model in (FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1):
                fault = Fault(
                    layer=layer_idx,
                    index=(layer_idx * 7) % layer.size,
                    bit=bit,
                    model=model,
                )
                if not engine.injector.is_masked(fault):
                    faults.append(fault)
    return faults


class TestBitIdentity:
    def test_exhaustive_table_is_bit_identical(self, tiny_setup):
        exact, vectorized, space = tiny_setup
        table_exact = OutcomeTable.from_exhaustive(exact, space, workers=1)
        table_vec = OutcomeTable.from_exhaustive(vectorized, space, workers=1)
        for left, right in zip(table_exact.outcomes, table_vec.outcomes):
            assert left.dtype == right.dtype == np.uint8
            assert np.array_equal(left, right)
        assert table_vec.metadata["inference_count"] == (
            table_exact.metadata["inference_count"]
        )

    def test_prediction_matrix_is_bit_identical(self, tiny_setup):
        exact, vectorized, _ = tiny_setup
        faults = all_layer_faults(exact)
        preds_exact = exact.predictions_for_faults(faults)
        preds_vec = vectorized.predictions_for_faults(faults)
        assert np.array_equal(np.asarray(preds_exact), np.asarray(preds_vec))

    def test_mobilenet_depthwise_fallback_is_bit_identical(self):
        """Depthwise/grouped convs are not batch-invariant; the engine
        must take the exact per-variant path for them and still match."""
        model = create_model("mobilenetv2_mini")
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        exact = PlanEngine(model, data.images, data.labels, batch_size=8)
        vectorized = VectorizedPlanEngine(
            model, data.images, data.labels, batch_size=64
        )
        faults = all_layer_faults(exact, bits=(1, 24, 30))
        preds_exact = exact.predictions_for_faults(faults)
        preds_vec = vectorized.predictions_for_faults(faults)
        assert np.array_equal(np.asarray(preds_exact), np.asarray(preds_vec))
        assert exact.classify_many(faults) == vectorized.classify_many(faults)


class TestFingerprints:
    def test_vectorized_fingerprint_is_distinct_but_compatible(
        self, tiny_setup
    ):
        exact, vectorized, _ = tiny_setup
        assert vectorized.plan_fingerprint != exact.plan_fingerprint
        assert fingerprints_compatible(
            vectorized.plan_fingerprint, exact.plan_fingerprint
        )
        assert fingerprints_compatible(
            exact.plan_fingerprint, vectorized.plan_fingerprint
        )

    def test_engine_fingerprints_are_attested_compatible(self, tiny_setup):
        exact, vectorized, _ = tiny_setup
        assert vectorized.fingerprint() != exact.fingerprint()
        assert fingerprints_compatible(
            vectorized.fingerprint(), exact.fingerprint()
        )
        assert fingerprints_compatible(
            vectorized.fingerprint(), vectorized.fingerprint(kind="module")
        )

    def test_unrelated_fingerprints_are_not_compatible(self):
        assert not fingerprints_compatible("a" * 64, "b" * 64)

    def test_create_engine_wiring(self, tiny_setup):
        exact, _, _ = tiny_setup
        data = SynthCIFAR("test", size=8, seed=42)
        engine = create_engine(
            exact.model, data.images, data.labels, kind="plan_vectorized"
        )
        assert isinstance(engine, VectorizedPlanEngine)
        assert engine.kind == "plan_vectorized"
        assert engine.batch_size == DEFAULT_VEC_BATCH_SIZE


class TestMixedEngineDist:
    def test_vectorized_worker_joins_exact_campaign(self, tiny_setup):
        """A campaign submitted with the exact plan engine accepts a
        vectorized worker: the verifier attested the fingerprints
        outcome-compatible when the vectorized plan was checked."""
        exact, vectorized, space = tiny_setup
        config = exhaustive_config(exact, space)
        verify_context_config(ExhaustiveContext(vectorized, space), config)

    def test_exact_worker_joins_vectorized_campaign(self, tiny_setup):
        exact, vectorized, space = tiny_setup
        config = exhaustive_config(vectorized, space)
        verify_context_config(ExhaustiveContext(exact, space), config)

    def test_undeclared_engines_stay_refused(self, tiny_setup):
        """Compatibility is pairwise attestation, not a free-for-all: an
        engine over different golden weights shares no declaration."""
        _, vectorized, _ = tiny_setup
        other_model = ResNetCIFAR(
            blocks_per_stage=1, widths=(2, 4, 6), seed=7
        )
        other_model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        other = PlanEngine(
            other_model, data.images, data.labels, fmt=FLOAT16, batch_size=8
        )
        other_space = FaultSpace(other.layers, fmt=FLOAT16)
        config = exhaustive_config(other, other_space)
        with pytest.raises(DistError, match="fingerprint mismatch"):
            verify_context_config(
                ExhaustiveContext(vectorized, other_space), config
            )


class TestConformance:
    def test_conformance_on_tiny_model(self):
        model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
        model.eval()
        report = run_conformance(model, eval_size=8, faults=48, seed=1)
        assert report.ok
        assert report.bit_exact_attested
        assert report.prediction_flips == 0
        assert report.outcome_flips == 0
        assert report.module_prediction_flips == 0
        assert report.faults == 48
        payload = report.to_dict()
        assert payload["model"] == "ResNetCIFAR"
        assert payload["flipped_faults"] == []


class TestCliWiring:
    def test_run_parser_accepts_vectorized(self):
        from repro.cli.run import build_parser

        args = build_parser().parse_args(["--engine", "plan_vectorized"])
        assert args.engine == "plan_vectorized"

    def test_dist_parsers_accept_vectorized(self):
        from repro.cli.dist import build_parser

        args = build_parser().parse_args(
            ["submit", "q", "--engine", "plan_vectorized"]
        )
        assert args.engine == "plan_vectorized"
        args = build_parser().parse_args(
            ["work", "q", "--engine", "plan_vectorized"]
        )
        assert args.engine == "plan_vectorized"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["work", "q", "--engine", "module"])

    def test_check_conform_parser(self):
        from repro.cli.check import build_parser

        args = build_parser().parse_args(["conform"])
        assert args.model is None
        assert args.faults == 128
        args = build_parser().parse_args(
            ["conform", "--model", "resnet14_mini", "--model",
             "mobilenetv2_mini", "--faults", "64"]
        )
        assert args.model == ["resnet14_mini", "mobilenetv2_mini"]
        assert args.faults == 64

    def test_check_lint_default_covers_benchmarks(self):
        from repro.cli.check import build_parser

        args = build_parser().parse_args(["lint"])
        assert args.paths == ["src/repro", "benchmarks"]
