"""Telemetry wired through real exhaustive campaigns.

These are the acceptance tests for the observability PR: a mini campaign
run with a journal must yield per-(layer, bit) cell wall times, overall
faults/sec, and worker utilisation via ``summarize_journal``; a killed +
resumed campaign must journal a ``checkpoint_resume`` event while the
output table stays bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.telemetry import (
    Journal,
    Telemetry,
    read_journal,
    summarize_journal,
)


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
        assert np.array_equal(left, right)


def run_with_journal(engine, space, path, *, workers=1, **kwargs):
    telemetry = Telemetry(journal=Journal(path))
    table = OutcomeTable.from_exhaustive(
        engine, space, workers=workers, telemetry=telemetry, **kwargs
    )
    return table, telemetry, read_journal(path)


class TestSerialCampaignJournal:
    def test_journal_covers_every_cell(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        table, telemetry, events = run_with_journal(
            engine, space, tmp_path / "serial.jsonl"
        )
        assert_tables_identical(serial_table, table)

        types = [e.type for e in events]
        assert types[0] == "campaign_start"
        assert types[-1] == "campaign_end"
        cells_total = len(space.layers) * space.bits
        assert types.count("cell_start") == cells_total
        assert types.count("cell_done") == cells_total

        start = events[0]
        assert start.fields["kind"] == "exhaustive"
        assert start.fields["total"] == space.total_population
        assert start.fields["cells_total"] == cells_total
        end = events[-1]
        assert end.fields["elapsed_seconds"] > 0
        assert end.fields["faults"] == space.total_population

        # Every (layer, bit) cell appears exactly once, with its own
        # wall time and population.
        done = {
            (e.fields["layer"], e.fields["bit"]): e.fields for e in events
            if e.type == "cell_done"
        }
        assert len(done) == cells_total
        for layer_idx, layer in enumerate(space.layers):
            for bit in range(space.bits):
                fields = done[(layer_idx, bit)]
                assert fields["seconds"] >= 0
                assert fields["faults"] == layer.size * len(space.fault_models)
                assert fields["inferences"] > 0

        # The parent-side registry aggregates the same cells.
        assert telemetry.metrics.counter("campaign.cells_computed").value == (
            cells_total
        )
        assert telemetry.metrics.counter("campaign.faults_classified").value == (
            space.total_population
        )
        assert telemetry.metrics.timer("campaign.cell_seconds").count == (
            cells_total
        )

    def test_progress_events_reach_total(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        _, _, events = run_with_journal(
            engine, space, tmp_path / "progress.jsonl", progress_every=1
        )
        dones = [e.fields["done"] for e in events if e.type == "progress"]
        assert dones == sorted(dones)
        assert dones[-1] == space.total_population

    def test_cells_journal_peak_rss(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        path = tmp_path / "rss.jsonl"
        run_with_journal(engine, space, path)
        peaks = [
            e.fields["peak_rss_mb"]
            for e in read_journal(path)
            if e.type == "cell_done"
        ]
        assert len(peaks) == len(space.layers) * space.bits
        assert min(peaks) > 0
        # A process's peak resident set never shrinks.
        assert peaks == sorted(peaks)
        (worker,) = summarize_journal(path)[0].workers
        assert worker.peak_rss_mb == max(peaks)


class TestParallelCampaignJournal:
    def test_workers_share_the_journal(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        path = tmp_path / "parallel.jsonl"
        table, _, events = run_with_journal(engine, space, path, workers=2)
        assert_tables_identical(serial_table, table)

        cells_total = len(space.layers) * space.bits
        done = [e for e in events if e.type == "cell_done"]
        assert len(done) == cells_total
        assert {(e.fields["layer"], e.fields["bit"]) for e in done} == {
            (layer, bit)
            for layer in range(len(space.layers))
            for bit in range(space.bits)
        }
        heartbeats = [e for e in events if e.type == "worker_heartbeat"]
        assert heartbeats, "workers never heartbeat"
        # cell_done events were written by the worker processes.
        parent_pid = events[0].pid
        worker_pids = {e.pid for e in done}
        assert parent_pid not in worker_pids

    def test_summary_reconstructs_campaign(self, campaign_setup, tmp_path):
        engine, space = campaign_setup
        path = tmp_path / "summary.jsonl"
        run_with_journal(engine, space, path, workers=2)

        summaries = summarize_journal(path)
        assert len(summaries) == 1
        summary = summaries[0]
        assert summary.kind == "exhaustive"
        assert summary.finished
        cells_total = len(space.layers) * space.bits
        assert len(summary.cells) == cells_total
        assert len(summary.cell_seconds()) == cells_total
        assert summary.faults_classified == space.total_population
        assert summary.faults_per_second > 0
        assert summary.inferences_per_second > 0
        assert summary.checkpoint_writes == 0

        assert summary.workers, "no per-worker stats reconstructed"
        for worker in summary.workers:
            assert worker.cells > 0
            assert worker.busy_seconds > 0
            assert 0 < worker.utilisation <= 1.0
        assert sum(w.cells for w in summary.workers) == cells_total

        slowest = summary.slowest_cells(5)
        assert len(slowest) == 5
        seconds = [cell.seconds for cell in slowest]
        assert seconds == sorted(seconds, reverse=True)


class _KillAfter:
    """on_event hook that simulates a crash after *n* progress events."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def __call__(self, event) -> None:
        if event.type != "progress":
            return
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated kill")


class TestResumeJournal:
    def test_resume_event_recorded_and_table_bit_identical(
        self, campaign_setup, serial_table, tmp_path
    ):
        engine, space = campaign_setup
        checkpoint = tmp_path / "campaign.ckpt"
        path = tmp_path / "resume.jsonl"

        first = Telemetry(
            journal=Journal(path), on_event=_KillAfter(3)
        )
        with pytest.raises(KeyboardInterrupt):
            OutcomeTable.from_exhaustive(
                engine,
                space,
                checkpoint=checkpoint,
                telemetry=first,
                progress_every=1,
            )
        killed_events = read_journal(path)
        written = [e for e in killed_events if e.type == "checkpoint_write"]
        assert written, "kill happened before any chunk was persisted"
        assert all(e.fields["bytes"] > 0 for e in written)
        # Killed run: campaign_start but no campaign_end.
        first_run = [e for e in killed_events if e.run_id == first.run_id]
        assert first_run[0].type == "campaign_start"
        assert "campaign_end" not in {e.type for e in first_run}

        second = Telemetry(journal=Journal(path))
        resumed = OutcomeTable.from_exhaustive(
            engine, space, checkpoint=checkpoint, telemetry=second
        )
        assert_tables_identical(serial_table, resumed)

        events = [
            e for e in read_journal(path) if e.run_id == second.run_id
        ]
        resume = [e for e in events if e.type == "checkpoint_resume"]
        assert len(resume) == 1
        cells_total = len(space.layers) * space.bits
        assert resume[0].fields["cells_resumed"] == len(written)
        assert resume[0].fields["cells_total"] == cells_total
        assert 0 < resume[0].fields["cells_resumed"] < cells_total
        # Only the remaining cells were recomputed.
        done = [e for e in events if e.type == "cell_done"]
        assert len(done) == cells_total - len(written)
        end = [e for e in events if e.type == "campaign_end"]
        assert end and end[0].fields["cells_resumed"] == len(written)

        summary = next(
            s
            for s in summarize_journal(path)
            if s.run_id == second.run_id
        )
        assert summary.resumed
        assert summary.cells_resumed == len(written)
        assert summary.resume_hit_rate == pytest.approx(
            len(written) / cells_total
        )


class TestEngineTelemetry:
    def test_classify_many_counts_and_spans(self, campaign_setup, tmp_path):
        _, space = campaign_setup
        model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
        model.eval()
        data = SynthCIFAR("test", size=8, seed=42)
        telemetry = Telemetry(journal=Journal(tmp_path / "engine.jsonl"))
        engine = InferenceEngine(
            model, data.images, data.labels, fmt=FLOAT16, telemetry=telemetry
        )
        faults = list(space.iter_layer(0))[:4]
        engine.classify_many(faults)
        assert telemetry.metrics.counter("engine.faults_classified").value == 4
        # Masked faults short-circuit before inference, so the span count
        # tracks actual inferences, not the batch size.
        inference_spans = telemetry.metrics.timer("span.engine.inference")
        assert inference_spans.count == engine.inference_count > 0
        events = read_journal(tmp_path / "engine.jsonl")
        spans = [e for e in events if e.type == "span"]
        assert len(spans) == 1
        assert spans[0].fields["name"] == "engine.classify_many"
        assert spans[0].fields["faults"] == 4

    def test_no_telemetry_emits_no_warning(self, campaign_setup):
        engine, space = campaign_setup
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            OutcomeTable.from_exhaustive(engine, space)
