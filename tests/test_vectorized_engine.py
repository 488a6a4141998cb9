"""Vectorized engine guarantees: bit-identity, fingerprints, conformance.

The vectorized engine's whole contract is that certification and
variant-axis stacking change throughput, never outcomes: its tables must
be bit-identical to the exact plan engine's, its fingerprint must be
*distinct* (the execution strategy differs) yet *attested compatible*
(the outcomes provably do not), and the dist layer must accept exactly
the mixed-engine fleets that attestation covers — and refuse the rest.
"""

from __future__ import annotations

import tracemalloc

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
from repro.nn import Conv2d
from repro.runtime import PlanEngine, VectorizedPlanEngine, create_engine
from repro.runtime.vectorized import CERT_SLACK


@pytest.fixture(scope="module")
def tiny_setup():
    """Exact and vectorized plan engines over the same tiny model."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    exact = PlanEngine(model, data.images, data.labels, fmt=FLOAT16)
    vectorized = VectorizedPlanEngine(
        model, data.images, data.labels, fmt=FLOAT16
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


@pytest.fixture(scope="module")
def small_setup():
    """Float32 exact and vectorized engines over a model wide enough for
    mostly-alive batches and for few-row survivors that really flip."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 8, 12), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=32, seed=42)
    exact = PlanEngine(model, data.images, data.labels)
    vectorized = VectorizedPlanEngine(model, data.images, data.labels)
    return exact, vectorized


def layer_faults(engine, name: str, bit: int, model: FaultModel) -> list:
    """Every non-masked *model* fault at *bit* of the layer *name*."""
    layer_idx, layer = next(
        (idx, layer)
        for idx, layer in enumerate(engine.layers)
        if layer.name == name
    )
    candidates = (
        Fault(layer=layer_idx, index=i, bit=bit, model=model)
        for i in range(layer.size)
    )
    return [f for f in candidates if not engine.injector.is_masked(f)]


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

    def test_faults_beyond_one_batch_are_bit_identical(self, small_setup):
        """More same-layer faults than one batch holds, interleaved with
        another layer's: both engines cut them into several tail passes
        and every row still lands at its input position."""
        exact, vectorized = small_setup
        wide = layer_faults(
            exact, "blocks.2.conv2", 22, FaultModel.STUCK_AT_1
        )[:300]
        head = layer_faults(exact, "head.fc", 22, FaultModel.STUCK_AT_1)
        assert len(wide) > vectorized.batch_size
        order = np.random.default_rng(5).permutation(len(wide) + len(head))
        faults = [(wide + head)[i] for i in order]
        passes = vectorized.tail_passes
        preds = vectorized.predictions_for_faults(faults)
        assert vectorized.tail_passes - passes == 3
        np.testing.assert_array_equal(
            preds, exact.predictions_for_faults(faults)
        )

    def test_walk_flips_are_bit_identical(self, small_setup):
        """Few-row survivors finish on the certified walk from stacked
        start rows; where one really flips, the walk must reproduce the
        exact engine's prediction."""
        exact, vectorized = small_setup
        faults = layer_faults(
            vectorized, "blocks.2.conv2", 17, FaultModel.STUCK_AT_1
        )
        before = continuation_counters(vectorized)
        preds = vectorized.predictions_for_faults(faults)
        dense, survivors = np.subtract(
            continuation_counters(vectorized), before
        )
        # No variant took the dense tail: every flip came from the walk.
        assert dense == 0
        assert survivors > 0
        assert (preds != vectorized.golden_predictions).any()
        np.testing.assert_array_equal(
            preds, exact.predictions_for_faults(faults)
        )

    def test_mobilenet_depthwise_replay_is_bit_identical(self):
        """Depthwise faults seed from their one dirty channel and every
        chain replays its channel across depthwise convs; the walk still
        runs the depthwise convs it meets once per variant.  No fault of
        the model runs the full faulty op, and predictions still match."""
        model = create_model("mobilenetv2_mini")
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        exact = PlanEngine(model, data.images, data.labels)
        vectorized = VectorizedPlanEngine(model, data.images, data.labels)
        faults = all_layer_faults(exact, bits=(1, 24, 30))

        def full_faulty_op(op, fault):
            raise AssertionError(f"{fault} ran the full faulty op")

        for engine in (exact, vectorized):
            engine._faulty_output = full_faulty_op
        preds_exact = exact.predictions_for_faults(faults)
        preds_vec = vectorized.predictions_for_faults(faults)
        assert np.array_equal(np.asarray(preds_exact), np.asarray(preds_vec))
        dense, survivors = continuation_counters(vectorized)
        assert dense > 0
        assert survivors > 0
        assert vectorized.full_batch_ops > 0
        assert exact.classify_many(faults) == vectorized.classify_many(faults)

    def test_chain_replay_of_surviving_rows_is_bit_identical(self):
        """Seeding replays the dirty channel through a depthwise conv at
        the full eval batch, as the exact engine does: the einsum is not
        batch-invariant, so a few surviving rows replayed alone can round
        differently.  Their chain-end values must bit-equal the dense
        faulty ops at the full batch."""
        model = create_model("mobilenetv2_mini")
        model.eval()
        data = SynthCIFAR("test", size=64, seed=42)
        engine = VectorizedPlanEngine(model, data.images, data.labels)
        layer = 1  # block0.conv1: its chain crosses a 32x32 depthwise conv
        op = engine.plan.ops[engine._layer_op[layer]]
        chain = engine._preserve_chain(op.index)
        assert any(not t.batch_invariant for t in chain)
        # Eight rows stay walk rows (at most 64 // DENSE_ALIVE_DIV).
        alive = np.zeros(len(data.images), dtype=bool)
        alive[::9] = True
        faults = [
            Fault(layer=layer, index=i, bit=bit, model=FaultModel.BIT_FLIP)
            for i in range(engine.layers[layer].size)
            for bit in (22, 30)
        ]
        gmax, gmean = engine._gammas(op.index)
        with np.errstate(all="ignore"):
            start, seeded = engine._seed_sparse(
                op,
                [(v, fault, alive) for v, fault in enumerate(faults)],
                gmax[op.output],
                gmean[op.output],
                np.tile(engine.golden_predictions, (len(faults), 1)),
            )
        assert start == chain[-1].index
        assert len(seeded) > len(faults) // 2
        for v, idx, c, val in seeded:
            dense = engine._golden[op.inputs[0]]
            with engine.injector.inject(faults[v]), np.errstate(all="ignore"):
                for t in (op, *chain):
                    dense = engine.plan.run_op(t, [dense])
            np.testing.assert_array_equal(
                val.view(np.uint32), dense[idx, c].view(np.uint32)
            )

    def test_grouped_conv_faults_match_the_module_engine(self):
        """A grouped, non-depthwise conv is not channel-separable: both
        plan engines run its faults' full faulty op and still match."""
        model = create_model("mobilenetv2_mini")
        model.block1.conv2 = Conv2d(
            16, 16, 3, stride=2, padding=1, groups=2,
            rng=np.random.default_rng(1),
        )
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        engines = {
            kind: create_engine(model, data.images, data.labels, kind=kind)
            for kind in ("module", "plan", "plan_vectorized")
        }
        layer = 5  # block1.conv2
        faults = [
            Fault(layer=layer, index=i, bit=bit, model=FaultModel.BIT_FLIP)
            for i in range(0, engines["plan"].layers[layer].size, 12)
            for bit in (24, 27, 30)
        ]
        rows = {
            kind: np.asarray(engine.predictions_for_faults(faults))
            for kind, engine in engines.items()
        }
        np.testing.assert_array_equal(rows["plan"], rows["module"])
        np.testing.assert_array_equal(rows["plan_vectorized"], rows["module"])
        assert (rows["module"] != engines["module"].golden_predictions).any()


def faulty_logits(engine, op_index: int) -> np.ndarray:
    """Logits with the injected fault: op *op_index* and its tail rerun."""
    env = {}
    for idx in (op_index, *engine.plan.affected_ops(op_index)):
        op = engine.plan.ops[idx]
        inputs = [env.get(s, engine._golden[s]) for s in op.inputs]
        env[op.output] = engine.plan.run_op(op, inputs)
    return env[engine.plan.output_slot]


class TestPrecertificationSoundness:
    """The weight-level bound must dominate the true logit delta.

    Pre-certification retires faults without running a kernel, so an
    unsound bound would certify a fault that really flips a prediction.
    Every non-masked, finite fault of two depthwise layers of the
    trained mobilenetv2_mini, at bits from mantissa to exponent MSB, is
    run exactly and its per-image, per-class logit delta compared with
    the bound.  The bound is float64 arithmetic on the weight delta and
    does not see the kernels' float32 rounding, which can exceed it by
    a few ulps of the logit; the 64-ulp allowance covers that.
    """

    @pytest.fixture(scope="class")
    def engine(self):
        model = create_model("mobilenetv2_mini", pretrained=True)
        model.eval()
        data = SynthCIFAR("test", size=64, seed=1234)
        return VectorizedPlanEngine(model, data.images, data.labels)

    @pytest.mark.parametrize("layer", [5, 8])
    def test_depthwise_bound_dominates_logit_delta(self, engine, layer):
        op_index = engine._layer_op[layer]
        op = engine.plan.ops[op_index]
        assert op.module.groups == op.module.in_channels > 1
        gmax, gmean = engine._gammas(op_index)
        golden = engine._golden[engine.plan.output_slot]
        slack = 64 * np.spacing(np.abs(golden)).astype(np.float64)
        checked, violations = 0, []
        for index in range(engine.layers[layer].size):
            for bit in (10, 20, 27, 30):
                for model in (FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1):
                    fault = Fault(layer=layer, index=index, bit=bit, model=model)
                    if engine.injector.is_masked(fault):
                        continue
                    with engine.injector.inject(fault) as value, np.errstate(
                        all="ignore"
                    ):
                        logits = faulty_logits(engine, op_index)
                    if not (np.isfinite(value) and np.isfinite(logits).all()):
                        continue
                    bound = engine._precert_bound(
                        op, fault, gmax[op.output], gmean[op.output]
                    )
                    delta = np.abs(
                        logits.astype(np.float64) - golden.astype(np.float64)
                    )
                    checked += 1
                    if (delta > bound * CERT_SLACK + slack).any():
                        violations.append((index, bit, model.name))
        assert checked > 500
        assert not violations, violations[:10]


class TestBoundedWorkingSet:
    def test_batch_peak_memory_does_not_grow_with_k(self, small_setup):
        """Seeded variants are dispatched one by one, so a batch of 128
        mostly-alive faults holds about what a batch of 32 does — not
        a K-wide stack of seeded rows."""
        exact, vectorized = small_setup
        faults = layer_faults(
            vectorized, "blocks.0.conv1", 30, FaultModel.STUCK_AT_1
        )
        assert len(faults) >= 128
        vectorized.predictions_for_faults(faults[:32])  # warm every cache
        peaks = {}
        for k in (32, 128):
            batch = faults[:k]
            before = vectorized.dense_fallback_faults
            tracemalloc.start()
            try:
                preds = vectorized.predictions_for_faults(batch)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # Every variant is mostly alive: all K take the dense path.
            assert vectorized.dense_fallback_faults - before == k
            np.testing.assert_array_equal(
                preds, exact.predictions_for_faults(batch)
            )
        assert peaks[128] <= 1.5 * peaks[32]


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
        assert engine.batch_size == 256


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
            other_model, data.images, data.labels, fmt=FLOAT16
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

    def test_conformance_runs_vectorized_at_campaign_batch_size(
        self, monkeypatch
    ):
        """The gate checks the configuration campaigns run: vectorized
        batches wider than the exact engine's 16 faults."""
        sizes = []
        run_batch = VectorizedPlanEngine._run_batch

        def recording(self, layer_idx, faults):
            sizes.append(len(faults))
            return run_batch(self, layer_idx, faults)

        monkeypatch.setattr(VectorizedPlanEngine, "_run_batch", recording)
        model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
        model.eval()
        report = run_conformance(model, eval_size=8, faults=128, seed=1)
        assert report.ok
        assert max(sizes) > 16


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
