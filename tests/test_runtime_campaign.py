"""Campaign-level guarantees of the plan engine.

The plan engine must be a drop-in replacement for the module engine in
exhaustive campaigns: same tables bit-for-bit, same checkpoint/resume
behaviour — and the two engines' artifacts must never silently mix
(checkpoints are wiped, dist shards are refused).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    exhaustive_config,
    verify_context_config,
)
from repro.faults import FaultSpace, InferenceEngine, OutcomeTable
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.runtime import PlanEngine
from tests.helpers import progress_telemetry


@pytest.fixture(scope="module")
def campaign_setup():
    """Module and plan engines over the same tiny model + eval set."""
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    module_engine = InferenceEngine(
        model, data.images, data.labels, fmt=FLOAT16
    )
    plan_engine = PlanEngine(model, data.images, data.labels, fmt=FLOAT16)
    space = FaultSpace(module_engine.layers, fmt=FLOAT16)
    return module_engine, plan_engine, space


@pytest.fixture(scope="module")
def module_table(campaign_setup):
    module_engine, _, space = campaign_setup
    return OutcomeTable.from_exhaustive(module_engine, space, workers=1)


def assert_tables_identical(a: OutcomeTable, b: OutcomeTable) -> None:
    assert a.num_layers == b.num_layers
    for left, right in zip(a.outcomes, b.outcomes):
        assert left.dtype == right.dtype == np.uint8
        assert np.array_equal(left, right)


class _KillAfter:
    """Progress callback that simulates a crash after *n* reports."""

    def __init__(self, n: int) -> None:
        self.remaining = n

    def __call__(self, done: int, total: int) -> None:
        self.remaining -= 1
        if self.remaining <= 0:
            raise KeyboardInterrupt("simulated kill")


class TestPlanCampaign:
    def test_plan_table_is_bit_identical_to_module_table(
        self, campaign_setup, module_table
    ):
        _, plan_engine, space = campaign_setup
        plan_table = OutcomeTable.from_exhaustive(
            plan_engine, space, workers=1
        )
        assert_tables_identical(module_table, plan_table)
        assert plan_table.metadata["inference_count"] == (
            module_table.metadata["inference_count"]
        )

    def test_kill_and_resume_plan_campaign(
        self, campaign_setup, module_table, tmp_path
    ):
        _, plan_engine, space = campaign_setup
        checkpoint = tmp_path / "plan.ckpt"
        with pytest.raises(KeyboardInterrupt):
            OutcomeTable.from_exhaustive(
                plan_engine,
                space,
                checkpoint=checkpoint,
                telemetry=progress_telemetry(_KillAfter(3)),
                progress_every=1,
            )
        persisted = {p.stem for p in checkpoint.glob("*.npy")}
        assert persisted, "kill happened before any chunk was persisted"
        assert len(persisted) < len(space.layers) * space.bits

        resumed = OutcomeTable.from_exhaustive(
            plan_engine, space, checkpoint=checkpoint
        )
        assert_tables_identical(module_table, resumed)

    def test_module_checkpoint_not_resumed_by_plan_engine(
        self, campaign_setup, module_table, tmp_path
    ):
        """The checkpoint config embeds the engine kind: chunks written
        under the module engine are discarded, not resumed, when a plan
        engine reuses the path — and the rerun still matches."""
        module_engine, plan_engine, space = campaign_setup
        checkpoint = tmp_path / "cross.ckpt"
        with pytest.raises(KeyboardInterrupt):
            OutcomeTable.from_exhaustive(
                module_engine,
                space,
                checkpoint=checkpoint,
                telemetry=progress_telemetry(_KillAfter(2)),
                progress_every=1,
            )
        table = OutcomeTable.from_exhaustive(
            plan_engine, space, checkpoint=checkpoint
        )
        assert_tables_identical(module_table, table)


class TestPlanTelemetry:
    def test_journal_carries_batching_metrics(self, campaign_setup, tmp_path):
        """repro-stats surfaces the plan engine's batching and op-cache
        effectiveness from the journal alone."""
        from repro.telemetry import (
            Journal,
            Telemetry,
            format_summary,
            read_journal,
            summarize_journal,
        )

        _, plan_engine, space = campaign_setup
        path = tmp_path / "plan.jsonl"
        OutcomeTable.from_exhaustive(
            plan_engine,
            space,
            workers=1,
            telemetry=Telemetry(journal=Journal(path)),
        )
        events = read_journal(path)
        start = next(e for e in events if e.type == "campaign_start")
        assert start.fields["engine"] == "plan"
        assert start.fields["batch_size"] == plan_engine.batch_size

        summary = summarize_journal(path)[0]
        assert summary.tail_passes > 0
        assert summary.ops_cached > 0
        assert summary.batched_faults_per_pass > 1.0
        assert 0.0 < summary.op_cache_hit_rate < 1.0
        assert "plan engine:" in format_summary(summary)


class TestDistRefusal:
    def test_worker_refuses_other_engine_kind(self, campaign_setup):
        """A campaign submitted with the plan engine is refused by a
        worker that rebuilt a module engine (and vice versa): their
        fingerprints differ."""
        module_engine, plan_engine, space = campaign_setup
        config = exhaustive_config(plan_engine, space)
        context = ExhaustiveContext(module_engine, space)
        with pytest.raises(DistError, match="fingerprint mismatch"):
            verify_context_config(context, config)

    @pytest.mark.parametrize(
        ("leftover", "named"),
        [
            ({"fuse": True}, ("fused numerics", "no longer computes")),
            (
                {"backend": "array_api"},
                ("'array_api' kernel backend", "no longer provides"),
            ),
        ],
        ids=["fuse", "backend"],
    )
    def test_worker_refuses_fused_against_unfused(
        self, tmp_path, capsys, leftover, named
    ):
        """Queues whose runtime records numerics from an earlier release
        (``"fuse": true``, or a ``"backend"`` this release no longer
        provides) are refused by name, before any engine is built: by
        every ``work`` path and by the sampled merge."""
        from repro.cli.dist import main
        from repro.dist import ShardQueue

        runtime = {
            "model": "resnet8_mini",
            "eval_size": 4,
            "policy": "accuracy_drop",
            "engine": "plan",
            **leftover,
        }
        for kind in ("exhaustive", "sampled"):
            root = tmp_path / kind
            ShardQueue(root).submit([], config={"kind": kind}, runtime=runtime)
            commands = [["work", str(root)]]
            if kind == "sampled":
                commands.append(["merge", str(root)])
            for argv in commands:
                assert main(argv) == 2
                err = capsys.readouterr().err
                for text in (*named, "fresh queue"):
                    assert text in err

    def test_matching_plan_config_is_accepted(self, campaign_setup):
        _, plan_engine, space = campaign_setup
        config = exhaustive_config(plan_engine, space)
        assert config["engine"] == "plan"
        verify_context_config(ExhaustiveContext(plan_engine, space), config)

    def test_module_refusal_survives_vectorized_attestation(
        self, campaign_setup
    ):
        """The vectorized engine declares itself compatible with *both*
        the plan and module engines; those pairwise declarations must
        not transitively whitelist module workers on plan campaigns."""
        from repro.runtime import VectorizedPlanEngine

        module_engine, plan_engine, space = campaign_setup
        VectorizedPlanEngine(
            plan_engine.model,
            plan_engine.images,
            plan_engine.labels,
            fmt=FLOAT16,
        )
        config = exhaustive_config(plan_engine, space)
        context = ExhaustiveContext(module_engine, space)
        with pytest.raises(DistError, match="fingerprint mismatch"):
            verify_context_config(context, config)


class TestCliWiring:
    def test_repro_run_engine_flags(self):
        from repro.cli.run import build_parser

        args = build_parser().parse_args([])
        assert args.engine == "plan"
        args = build_parser().parse_args(["--engine", "module"])
        assert args.engine == "module"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "jit"])
        # Batch size is each engine's constant, not an option.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--batch-size", "4"])

    def test_repro_dist_submit_engine_flags(self):
        from repro.cli.dist import build_parser

        args = build_parser().parse_args(
            ["submit", "q", "--model", "resnet8_mini"]
        )
        assert args.engine == "plan"
        args = build_parser().parse_args(
            ["submit", "q", "--model", "resnet8_mini", "--engine", "module"]
        )
        assert args.engine == "module"
