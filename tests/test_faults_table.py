"""Tests for repro.faults.table and oracle."""

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.faults import (
    Fault,
    FaultModel,
    FaultOutcome,
    FaultSpace,
    InferenceEngine,
    InferenceOracle,
    OutcomeTable,
    TableOracle,
)
from repro.models import ResNetCIFAR
from tests.helpers import progress_telemetry


@pytest.fixture(scope="module")
def tiny_exhaustive():
    """Exhaustive table over a minuscule model (fast enough for tests)."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 4, 4), seed=3).eval()
    data = SynthCIFAR("test", size=8, seed=5, image_size=16)
    engine = InferenceEngine(model, data.images, data.labels)
    space = FaultSpace(engine.layers)
    # Restrict to two bits via a narrowed space? No — run the true
    # exhaustive on this ~1.4k-weight model (~90k faults would be slow);
    # instead build the table only over the classifier layer by hand.
    return engine, space


def build_partial_table(engine, space, layer_idx):
    """Exhaustively classify a single layer and zero-fill the others."""
    outcomes = []
    for l, layer in enumerate(space.layers):
        shape = (layer.size, space.bits, 2)
        if l != layer_idx:
            outcomes.append(np.zeros(shape, dtype=np.uint8))
            continue
        table = np.empty(shape, dtype=np.uint8)
        for fault in space.iter_layer(l):
            model_idx = space.fault_models.index(fault.model)
            table[fault.index, fault.bit, model_idx] = engine.classify(fault)
        outcomes.append(table)
    return OutcomeTable(outcomes, metadata={"partial": layer_idx})


class TestOutcomeTable:
    def test_partial_layer_agrees_with_engine(self, tiny_exhaustive):
        engine, space = tiny_exhaustive
        layer_idx = len(space.layers) - 1  # linear layer (40 weights)
        table = build_partial_table(engine, space, layer_idx)
        rng = np.random.default_rng(0)
        for _ in range(50):
            local = int(rng.integers(space.layer_population(layer_idx)))
            fault = space.layer_fault(layer_idx, local)
            model_idx = space.fault_models.index(fault.model)
            assert table.outcome(fault, model_idx) == engine.classify(fault)

    def test_masked_structure(self, tiny_exhaustive):
        """Exactly one of (SA0, SA1) per weight-bit must be masked."""
        engine, space = tiny_exhaustive
        layer_idx = len(space.layers) - 1
        table = build_partial_table(engine, space, layer_idx)
        arr = table.outcomes[layer_idx]
        masked_per_pair = (arr == FaultOutcome.MASKED).sum(axis=2)
        np.testing.assert_array_equal(masked_per_pair, 1)

    def test_counts_and_rates(self):
        # Fill with NON_CRITICAL (masked has code 0, the array default).
        outcomes = [
            np.full((4, 2, 2), FaultOutcome.NON_CRITICAL, dtype=np.uint8)
        ]
        outcomes[0][0, 0, 0] = FaultOutcome.CRITICAL
        outcomes[0][1, 1, 1] = FaultOutcome.CRITICAL
        outcomes[0][2, 0, 0] = FaultOutcome.MASKED
        table = OutcomeTable(outcomes)
        assert table.layer_counts(0) == (2, 16)
        assert table.cell_counts(0, 0) == (1, 8)
        assert table.total_counts() == (2, 16)
        assert table.total_rate() == pytest.approx(2 / 16)
        assert table.cell_rate(0, 1) == pytest.approx(1 / 8)
        assert table.masked_fraction() == pytest.approx(1 / 16)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            OutcomeTable([np.zeros((4, 2), dtype=np.uint8)])

    def test_save_load_round_trip(self, tmp_path):
        outcomes = [
            np.random.default_rng(0).integers(0, 3, size=(5, 4, 2)).astype(np.uint8),
            np.random.default_rng(1).integers(0, 3, size=(3, 4, 2)).astype(np.uint8),
        ]
        table = OutcomeTable(outcomes, metadata={"model": "test", "n": 5})
        path = tmp_path / "table.npz"
        table.save(path)
        loaded = OutcomeTable.load(path)
        assert loaded.metadata == {"model": "test", "n": 5}
        assert loaded.num_layers == 2
        for a, b in zip(table.outcomes, loaded.outcomes):
            np.testing.assert_array_equal(a, b)

    def test_from_exhaustive_small(self):
        """End-to-end exhaustive build over a single-layer toy space."""
        model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 4, 4), seed=3).eval()
        data = SynthCIFAR("test", size=4, seed=5, image_size=16)
        engine = InferenceEngine(model, data.images, data.labels)
        space = FaultSpace(engine.layers[-1:])  # classifier only: 40 weights
        # Re-target the injector at the classifier layer only.
        engine_small = InferenceEngine(model, data.images, data.labels)
        progress_calls = []
        table = OutcomeTable.from_exhaustive(
            _RetargetedEngine(engine_small, len(engine_small.layers) - 1),
            space,
            telemetry=progress_telemetry(
                lambda done, total: progress_calls.append((done, total))
            ),
            progress_every=500,
        )
        assert table.num_layers == 1
        criticals, population = table.total_counts()
        assert population == 40 * 64
        assert table.metadata["eval_images"] == 4
        assert progress_calls  # progress was reported
        # Half of all stuck-at faults are masked by construction.
        assert table.masked_fraction() == pytest.approx(0.5)


class _RetargetedEngine:
    """Adapter presenting a single-layer view of an InferenceEngine."""

    def __init__(self, engine, layer_idx):
        self._engine = engine
        self._offset = layer_idx
        self.policy = engine.policy
        self.threshold = engine.threshold
        self.golden_predictions = engine.golden_predictions
        self.golden_accuracy = engine.golden_accuracy
        self.labels = engine.labels
        self.images = engine.images
        self.inference_count = 0

    def predictions_for_faults(self, faults):
        shifted = [
            Fault(
                layer=fault.layer + self._offset,
                index=fault.index,
                bit=fault.bit,
                model=fault.model,
            )
            for fault in faults
        ]
        self.inference_count += len(faults)
        return self._engine.predictions_for_faults(shifted)


class TestOracles:
    def test_table_oracle_replays(self):
        outcomes = [np.zeros((2, 32, 2), dtype=np.uint8)]
        outcomes[0][1, 30, 1] = FaultOutcome.CRITICAL
        table = OutcomeTable(outcomes)
        model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 4, 4), seed=3)
        from repro.faults import enumerate_weight_layers

        space = FaultSpace(enumerate_weight_layers(model)[:1])
        # Shrink the layer to 2 weights conceptually: only index 0/1 used.
        oracle = TableOracle(table, space)
        critical = Fault(layer=0, index=1, bit=30, model=FaultModel.STUCK_AT_1)
        benign = Fault(layer=0, index=0, bit=30, model=FaultModel.STUCK_AT_0)
        assert oracle.classify(critical) is FaultOutcome.CRITICAL
        assert oracle.classify(benign) is FaultOutcome.MASKED

    def test_table_oracle_layer_mismatch(self):
        table = OutcomeTable([np.zeros((2, 32, 2), dtype=np.uint8)])
        model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 4, 4), seed=3)
        space = FaultSpace(model)
        with pytest.raises(ValueError, match="layers"):
            TableOracle(table, space)

    def test_table_oracle_unknown_model(self):
        table = OutcomeTable([np.zeros((2, 32, 1), dtype=np.uint8)])
        model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 4, 4), seed=3)
        from repro.faults import enumerate_weight_layers

        space = FaultSpace(
            enumerate_weight_layers(model)[:1],
            fault_models=(FaultModel.STUCK_AT_0,),
        )
        oracle = TableOracle(table, space)
        flip = Fault(layer=0, index=0, bit=0, model=FaultModel.BIT_FLIP)
        with pytest.raises(ValueError, match="not covered"):
            oracle.classify(flip)

    def test_inference_oracle_delegates(self, tiny_exhaustive):
        engine, _ = tiny_exhaustive
        oracle = InferenceOracle(engine)
        fault = Fault(layer=0, index=0, bit=30, model=FaultModel.STUCK_AT_1)
        assert oracle.classify(fault) == engine.classify(fault)


class TestResolveWorkers:
    """Worker-count resolution: explicit value, env override, CPU count."""

    def test_explicit_value_wins(self, monkeypatch):
        from repro.faults.table import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "7")
        assert resolve_workers(3) == 3

    def test_env_override_applies_when_unset(self, monkeypatch):
        from repro.faults.table import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "5")
        assert resolve_workers(None) == 5

    def test_env_override_is_clamped_to_one(self, monkeypatch):
        from repro.faults.table import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert resolve_workers(None) == 1
        monkeypatch.setenv("REPRO_WORKERS", "-4")
        assert resolve_workers(None) == 1

    def test_blank_env_falls_back_to_cpu_count(self, monkeypatch):
        import os

        from repro.faults.table import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "  ")
        assert resolve_workers(None) == max(1, os.cpu_count() or 1)

    def test_non_integer_env_is_an_error(self, monkeypatch):
        from repro.faults.table import resolve_workers

        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            resolve_workers(None)

    def test_default_without_env(self, monkeypatch):
        import os

        from repro.faults.table import resolve_workers

        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(None) == max(1, os.cpu_count() or 1)
        assert resolve_workers(0) == 1
