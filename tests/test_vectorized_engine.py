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
from repro.faults import (
    Fault,
    FaultModel,
    FaultSpace,
    OutcomeTable,
    enumerate_weight_layers,
)
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


def continuation_counters(engine) -> tuple[int, int]:
    """Variants continued on the dense tail, rows finished by the walk."""
    return engine.dense_fallback_faults, engine.survivor_rows


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
        before = continuation_counters(vectorized)
        preds_exact = exact.predictions_for_faults(faults)
        preds_vec = vectorized.predictions_for_faults(faults)
        assert np.array_equal(np.asarray(preds_exact), np.asarray(preds_vec))
        # Both the dense continuation from seeds and the certified walk
        # ran, so the identity covers each of them.
        dense, survivors = np.subtract(
            continuation_counters(vectorized), before
        )
        assert dense > 0
        assert survivors > 0

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
        dense, survivors = continuation_counters(vectorized)
        assert dense > 0
        assert survivors > 0
        assert exact.classify_many(faults) == vectorized.classify_many(faults)


class TestNonFiniteFaults:
    """Exponent flips that drive a weight to +inf or NaN.

    Flipping bit 30 of 1.0 gives +inf and of 1.5 a quiet NaN.  Every
    engine must classify the resulting non-finite logits identically —
    ``argmax`` picks the first NaN in a row — and no bound built from a
    non-finite delta may certify a row.
    """

    @pytest.mark.parametrize(
        ("value", "is_expected"),
        [(1.0, np.isposinf), (1.5, np.isnan)],
        ids=["inf", "nan"],
    )
    @pytest.mark.parametrize(
        "layer_name", ["stem.conv", "blocks.1.conv2", "head.fc"]
    )
    def test_engines_agree_on_non_finite_logits(
        self, layer_name, value, is_expected
    ):
        # A fresh model per case: the golden weight is edited in place.
        model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        layer_idx, layer = next(
            (idx, layer)
            for idx, layer in enumerate(enumerate_weight_layers(model))
            if layer.name == layer_name
        )
        # A mid-layer weight: in the classifier it feeds logit 5, so a
        # lone NaN there must win argmax over the finite logits.
        index = layer.size // 2
        layer.flat_weights()[index] = value
        engines = {
            kind: create_engine(model, data.images, data.labels, kind=kind)
            for kind in ("module", "plan", "plan_vectorized")
        }
        fault = Fault(
            layer=layer_idx, index=index, bit=30, model=FaultModel.BIT_FLIP
        )
        injector = engines["module"].injector
        with injector.inject(fault) as faulty, np.errstate(all="ignore"):
            logits = model.forward_fast(data.images)
        assert is_expected(faulty)
        assert (~np.isfinite(logits)).any(axis=1).any()

        vectorized = engines["plan_vectorized"]
        certified = (vectorized.precertified, vectorized.certified_rows)
        rows = {
            kind: engine.predictions_for_faults([fault])[0]
            for kind, engine in engines.items()
        }
        expected = np.argmax(logits, axis=1)
        for kind, row in rows.items():
            np.testing.assert_array_equal(row, expected, err_msg=kind)
        assert (vectorized.precertified, vectorized.certified_rows) == (
            certified
        )


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
