"""Tests for the ``repro-stats`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli.stats import main as stats_main
from repro.telemetry import Journal, Telemetry


@pytest.fixture()
def campaign_journal(tmp_path):
    """A journal holding one synthetic (but well-formed) campaign."""
    path = tmp_path / "trace.jsonl"
    tele = Telemetry(journal=Journal(path))
    tele.emit(
        "campaign_start",
        kind="exhaustive",
        total=1000,
        cells_total=4,
        workers=2,
    )
    for layer, bit in ((0, 0), (0, 1), (1, 0), (1, 1)):
        tele.emit("cell_start", layer=layer, bit=bit)
        tele.emit(
            "cell_done",
            layer=layer,
            bit=bit,
            seconds=0.5,
            faults=250,
            inferences=200,
        )
    tele.emit("campaign_end", elapsed_seconds=2.0, faults=1000, masked=100)
    return path, tele.run_id


class TestStatsCLI:
    def test_summarises_campaign(self, campaign_journal, capsys):
        path, run_id = campaign_journal
        assert stats_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert "exhaustive" in out
        assert "faults/sec" in out
        assert "1 campaign(s)" in out

    def test_top_limits_cell_table(self, campaign_journal, capsys):
        path, _ = campaign_journal
        assert stats_main([str(path), "--top", "2"]) == 0
        out = capsys.readouterr().out
        assert "slowest cells (top 2):" in out
        # Header line + exactly two cell rows under it.
        block = out.split("slowest cells (top 2):\n", 1)[1]
        rows = [line for line in block.splitlines() if line.strip()]
        assert len(rows) == 1 + 2

    def test_json_output(self, campaign_journal, capsys):
        path, run_id = campaign_journal
        assert stats_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["predicted_vs_actual"] == []
        assert len(payload["campaigns"]) == 1
        record = payload["campaigns"][0]
        assert record["run_id"] == run_id
        assert record["kind"] == "exhaustive"
        assert record["faults_classified"] == 1000
        assert record["faults_per_second"] == pytest.approx(500.0)
        assert len(record["cells"]) == 4

    def test_worker_table_reports_peak_rss(
        self, campaign_journal, tmp_path, capsys
    ):
        # The fixture's cells predate peak_rss_mb: the worker reads 0.0.
        old, _ = campaign_journal
        assert stats_main([str(old), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)["campaigns"][0]
        assert [w["peak_rss_mb"] for w in record["workers"]] == [0.0]

        path = tmp_path / "rss.jsonl"
        tele = Telemetry(journal=Journal(path))
        tele.emit("campaign_start", kind="exhaustive", total=20)
        for bit, peak in ((0, 120.5), (1, 180.4)):
            tele.emit(
                "cell_done",
                layer=0,
                bit=bit,
                seconds=0.5,
                faults=10,
                peak_rss_mb=peak,
            )
        tele.emit("campaign_end", elapsed_seconds=1.0, faults=20)
        assert stats_main([str(path)]) == 0
        out = capsys.readouterr().out
        header, row = out.split("heartbeats):\n", 1)[1].splitlines()[:2]
        assert header.split()[-1] == "peak_rss(MiB)"
        assert row.split()[-1] == "180.4"

    def test_run_filter(self, campaign_journal, capsys):
        path, run_id = campaign_journal
        # A second run in the same journal.
        other = Telemetry(journal=Journal(path))
        other.emit("campaign_start", kind="sampled", total=10)
        other.emit("campaign_end", elapsed_seconds=0.1)

        assert stats_main([str(path)]) == 0
        assert "2 campaign(s)" in capsys.readouterr().out

        assert stats_main([str(path), "--run", run_id]) == 0
        out = capsys.readouterr().out
        assert run_id in out
        assert other.run_id not in out

    def test_unknown_run_id_fails(self, campaign_journal, capsys):
        path, _ = campaign_journal
        assert stats_main([str(path), "--run", "deadbeef"]) == 1
        assert "no events for run id" in capsys.readouterr().out

    def test_missing_journal_fails(self, tmp_path, capsys):
        assert stats_main([str(tmp_path / "absent.jsonl")]) == 1
        assert "no journal" in capsys.readouterr().out

    def test_journal_with_only_torn_lines_fails(self, tmp_path, capsys):
        path = tmp_path / "torn.jsonl"
        path.write_text('{"type": "campaign_start", "run\n')
        assert stats_main([str(path)]) == 1
        assert "no intact events" in capsys.readouterr().out


class TestMultiJournalMerge:
    def fleet_journals(self, tmp_path, *, same_t: bool):
        """Two per-worker journals from one synthetic campaign."""
        a, b = tmp_path / "w1.jsonl", tmp_path / "w2.jsonl"
        tele_a = Telemetry(journal=Journal(a, run_id="fleet"))
        tele_b = Telemetry(journal=Journal(b, run_id="fleet"))
        tele_a.emit("campaign_start", kind="exhaustive", total=500)
        tele_a.emit("cell_done", layer=0, bit=0, seconds=1.0, faults=250)
        tele_b.emit("cell_done", layer=1, bit=0, seconds=1.0, faults=250)
        tele_a.emit("campaign_end", elapsed_seconds=2.0, faults=500)
        if same_t:
            # Force identical timestamps (coarse clocks do this for
            # real): only the (path, line) tie-break orders them now.
            for path in (a, b):
                lines = [
                    json.loads(line)
                    for line in path.read_text().splitlines()
                ]
                for record in lines:
                    record["t"] = 1000.0
                path.write_text(
                    "".join(json.dumps(r) + "\n" for r in lines)
                )
        return a, b

    def test_argument_order_does_not_change_output(self, tmp_path, capsys):
        a, b = self.fleet_journals(tmp_path, same_t=False)
        assert stats_main([str(a), str(b), "--json"]) == 0
        forward = capsys.readouterr().out
        assert stats_main([str(b), str(a), "--json"]) == 0
        backward = capsys.readouterr().out
        assert json.loads(forward) == json.loads(backward)

    def test_equal_timestamps_tie_break_deterministically(
        self, tmp_path, capsys
    ):
        a, b = self.fleet_journals(tmp_path, same_t=True)
        assert stats_main([str(a), str(b), "--json"]) == 0
        forward = json.loads(capsys.readouterr().out)
        assert stats_main([str(b), str(a), "--json"]) == 0
        backward = json.loads(capsys.readouterr().out)
        assert forward == backward
        assert forward["campaigns"][0]["faults_classified"] == 500


def _predicted_then_worked(path, **prediction) -> None:
    """A journalled prediction followed by the campaign it priced."""
    tele = Telemetry(journal=Journal(path))
    tele.emit(
        "campaign_predicted",
        kind="exhaustive",
        engine="plan",
        workers=2,
        shards=4,
        fault_evals=1000,
        wall_seconds=2.0,
        serial_seconds=4.0,
        utilisation=1.0,
        engine_scale=1.0,
        **prediction,
    )
    worker = Telemetry(journal=Journal(path))
    worker.emit("campaign_start", kind="exhaustive", total=1000)
    worker.emit("cell_done", layer=0, bit=0, seconds=1.5, faults=1000)
    worker.emit("campaign_end", elapsed_seconds=1.5, faults=1000)


class TestPredictedVsActualSection:
    def test_prediction_followed_by_work_is_reported(self, tmp_path, capsys):
        path = tmp_path / "j.jsonl"
        _predicted_then_worked(path)

        assert stats_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "predicted vs actual:" in out
        assert "error: wall" in out
        assert "1,000 fault-evals" in out

        assert stats_main([str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["predicted_vs_actual"]) == 1
        comparison = payload["predicted_vs_actual"][0]
        assert comparison["actual_fault_evals"] == 1000
        assert comparison["evals_ratio"] == pytest.approx(1.0)

    def test_prediction_journalled_with_batch_size_is_reported(
        self, tmp_path, capsys
    ):
        """Journals written while batch size was an option carry it in
        ``campaign_predicted``; they still summarise, without it."""
        path = tmp_path / "j.jsonl"
        _predicted_then_worked(path, batch_size=16)

        assert stats_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "prediction: engine=plan workers=2" in out
        assert "predicted [exhaustive] engine=plan workers=2" in out
        assert "error: wall" in out
        assert "batch=" not in out
