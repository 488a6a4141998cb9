"""The ``repro-check`` command line front end."""

from __future__ import annotations

import json

import pytest

from repro.cli.check import main


class TestPlanCommand:
    def test_single_model_verifies_clean(self, capsys):
        assert main(["plan", "--model", "resnet8_mini"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "resnet8_mini" in out

    def test_no_models_is_usage_error(self, capsys):
        assert main(["plan"]) == 2
        assert "--all-models" in capsys.readouterr().err

    def test_timings_out_records_wall_time(self, tmp_path, capsys):
        target = tmp_path / "timings.json"
        code = main(
            [
                "plan",
                "--model",
                "resnet8_mini",
                "--timings-out",
                str(target),
            ]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["max_verify_seconds"] > 0
        [entry] = payload["plans"]
        assert entry["model"] == "resnet8_mini"
        assert entry["errors"] == 0


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        source = tmp_path / "ok.py"
        source.write_text("import json\nprint(json.dumps({}, sort_keys=True))\n")
        assert main(["lint", str(source)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_hint(self, tmp_path, capsys):
        source = tmp_path / "bad.py"
        source.write_text("import json\nprint(json.dumps({}))\n")
        assert main(["lint", str(source)]) == 1
        out = capsys.readouterr().out
        assert "D205" in out
        assert "repro-check: ignore[RULE]" in out

    def test_baseline_adoption_then_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        source = tmp_path / "bad.py"
        source.write_text("import json\nprint(json.dumps({}))\n")
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(source),
                    "--baseline",
                    str(baseline),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert baseline.is_file()
        assert main(["lint", str(source), "--baseline", str(baseline)]) == 0

    def test_repo_tree_is_clean_against_committed_baseline(
        self, capsys, monkeypatch, repo_root
    ):
        monkeypatch.chdir(repo_root)
        assert main(["lint", "src/repro"]) == 0


class TestConformOpsCommand:
    def test_prints_pass_counts_per_check_kind(self, tmp_path, capsys):
        target = tmp_path / "ops.json"
        assert main(["conform", "--ops", "--out", str(target)]) == 0
        out = capsys.readouterr().out
        checks = json.loads(target.read_text())["checks"]
        for kind in (
            "agreement",
            "batch_invariance",
            "channel_slice",
            "module_equivalence",
        ):
            ran = sum(check["check"] == kind for check in checks)
            assert ran > 0
            assert f"check {kind}: {ran}/{ran} passed" in out


class TestRulesCommand:
    def test_catalogue_lists_both_passes(self, capsys):
        assert main(["rules"]) == 0
        out = capsys.readouterr().out
        for rule in ("P101", "P110", "P120", "D201", "D206"):
            assert rule in out


@pytest.fixture
def repo_root():
    from pathlib import Path

    return Path(__file__).resolve().parents[1]
