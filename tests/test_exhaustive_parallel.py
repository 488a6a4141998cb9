"""Parallel and resumable exhaustive campaigns.

The unit of work is one (layer, bit) cell; these tests pin down the two
engineering guarantees the campaign engine makes:

- fan-out over a process pool changes nothing about the result, and
- a campaign killed mid-run resumes from its checkpoint to a table
  bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from tests.helpers import progress_telemetry


@pytest.fixture(scope="module")
def campaign_setup():
    """A tiny model + eval set + float16 space (fast exhaustive runs)."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    engine = InferenceEngine(model, data.images, data.labels, fmt=FLOAT16)
    space = FaultSpace(engine.layers, fmt=FLOAT16)
    return engine, space


@pytest.fixture(scope="module")
def serial_table(campaign_setup):
    engine, space = campaign_setup
    return OutcomeTable.from_exhaustive(engine, space, workers=1)


def assert_tables_identical(a: OutcomeTable, b: OutcomeTable) -> None:
    assert a.num_layers == b.num_layers
    for left, right in zip(a.outcomes, b.outcomes):
        assert left.dtype == right.dtype == np.uint8
        assert np.array_equal(left, right)


class TestParallelExhaustive:
    def test_parallel_matches_serial_bit_for_bit(
        self, campaign_setup, serial_table
    ):
        engine, space = campaign_setup
        parallel = OutcomeTable.from_exhaustive(engine, space, workers=2)
        assert_tables_identical(serial_table, parallel)
        assert parallel.metadata["inference_count"] == (
            serial_table.metadata["inference_count"]
        )

    def test_progress_reaches_total(self, campaign_setup):
        engine, space = campaign_setup
        calls = []
        OutcomeTable.from_exhaustive(
            engine,
            space,
            workers=2,
            telemetry=progress_telemetry(
                lambda done, total: calls.append((done, total))
            ),
            progress_every=1,
        )
        assert calls, "progress callback never fired"
        dones = [done for done, _ in calls]
        assert dones == sorted(dones)
        assert calls[-1] == (space.total_population, space.total_population)

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 2,
        reason="speedup is only observable with >= 2 cores",
    )
    def test_parallel_is_faster_on_multicore(self, campaign_setup):
        import time

        engine, space = campaign_setup
        start = time.perf_counter()
        OutcomeTable.from_exhaustive(engine, space, workers=1)
        serial_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        OutcomeTable.from_exhaustive(engine, space, workers=os.cpu_count())
        parallel_elapsed = time.perf_counter() - start
        assert parallel_elapsed < serial_elapsed / 1.5


class _KillAfter:
    """Progress callback that simulates a crash after *n* reports."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def __call__(self, done: int, total: int) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated kill")


class TestCheckpointResume:
    def test_kill_and_resume_is_bit_identical(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        checkpoint = tmp_path / "campaign.ckpt"
        with pytest.raises(KeyboardInterrupt):
            OutcomeTable.from_exhaustive(
                engine,
                space,
                checkpoint=checkpoint,
                telemetry=progress_telemetry(_KillAfter(3)),
                progress_every=1,
            )
        persisted = {p.stem for p in checkpoint.glob("*.npy")}
        assert persisted, "kill happened before any chunk was persisted"
        total_cells = len(space.layers) * space.bits
        assert len(persisted) < total_cells, "campaign finished before kill"

        calls = []
        resumed = OutcomeTable.from_exhaustive(
            engine,
            space,
            checkpoint=checkpoint,
            telemetry=progress_telemetry(
                lambda done, total: calls.append(done)
            ),
            progress_every=1,
        )
        assert_tables_identical(serial_table, resumed)
        # The resumed run skipped the persisted cells: its first progress
        # report already covers their population.
        cell_pop = space.layers[0].size * len(space.fault_models)
        assert calls[0] >= len(persisted) * cell_pop

    def test_checkpointed_run_matches_plain_run(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        table = OutcomeTable.from_exhaustive(
            engine, space, checkpoint=tmp_path / "clean.ckpt"
        )
        assert_tables_identical(serial_table, table)

    def test_stale_checkpoint_from_other_config_is_discarded(
        self, campaign_setup, tmp_path
    ):
        engine, space = campaign_setup
        checkpoint = tmp_path / "campaign.ckpt"
        with pytest.raises(KeyboardInterrupt):
            OutcomeTable.from_exhaustive(
                engine,
                space,
                checkpoint=checkpoint,
                telemetry=progress_telemetry(_KillAfter(2)),
                progress_every=1,
            )
        # Same checkpoint path, different policy: chunks must not be reused.
        other_engine = InferenceEngine(
            engine.model,
            engine.images,
            engine.labels,
            fmt=space.fmt,
            policy="any_mismatch",
        )
        other_space = FaultSpace(other_engine.layers, fmt=space.fmt)
        table = OutcomeTable.from_exhaustive(
            other_engine, other_space, checkpoint=checkpoint
        )
        expected = OutcomeTable.from_exhaustive(other_engine, other_space)
        assert_tables_identical(expected, table)
