"""Plan verifier: clean plans verify, corrupted plans are rejected.

The mutation tests are the contract: each class of plan corruption that
could silently wreck a campaign (stale golden cache, aliased buffers,
unvetted batching, unknown kernels, infeasible shapes) must be rejected
with its own stable diagnostic ID.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    KERNEL_TABLE,
    PlanVerificationError,
    check_plan,
    is_plan_verified,
    plan_fingerprint,
    verify_plan,
)
from repro.models import MODELS, create_model
from repro.runtime.plan import (
    OP_KINDS,
    PlanBuilder,
    capture_plan,
)

MINI_MODELS = ["resnet8_mini", "resnet14_mini", "mobilenetv2_mini", "vgg_mini"]

_PLAN_CACHE: dict = {}


def plan_for(name: str):
    """Shared read-only plan (capture is deterministic per arch)."""
    if name not in _PLAN_CACHE:
        _PLAN_CACHE[name] = capture_plan(create_model(name))
    return _PLAN_CACHE[name]


def fresh_plan(name: str = "resnet8_mini"):
    """A private plan instance the test may mutate."""
    return capture_plan(create_model(name))


def error_rules(diagnostics) -> set[str]:
    return {d.rule for d in diagnostics if d.severity == "error"}


class TestCleanPlans:
    @pytest.mark.parametrize("name", MINI_MODELS)
    def test_mini_models_verify_with_zero_diagnostics(self, name):
        assert verify_plan(plan_for(name)) == []

    @settings(max_examples=20, deadline=None)
    @given(name=st.sampled_from(sorted(MODELS)))
    def test_every_registered_model_plan_is_clean(self, name):
        diagnostics = verify_plan(plan_for(name))
        assert error_rules(diagnostics) == set()

    def test_kernel_table_covers_every_capturable_kind(self):
        assert set(KERNEL_TABLE) == set(OP_KINDS)

    def test_builder_rejects_unknown_kind_at_emit(self):
        builder = PlanBuilder()
        with pytest.raises(ValueError, match="unknown op kind"):
            builder.emit("gelu", (0,))


class TestMutationRejection:
    """Each corruption class gets its own diagnostic ID."""

    def test_dropped_affected_entry_is_unsound_P110(self):
        plan = fresh_plan()
        conv = next(op for op in plan.ops if op.kind == "conv2d")
        full = plan.affected_ops(conv.index)
        assert len(full) > 1
        plan._affected[conv.index] = full[:-1]  # drop a dependent op
        diagnostics = verify_plan(plan)
        assert "P110" in error_rules(diagnostics)
        [finding] = [d for d in diagnostics if d.rule == "P110"]
        assert "stale" in finding.message

    def test_aliased_buffer_slots_P102(self):
        plan = fresh_plan()
        plan.ops[5].output = plan.ops[4].output
        assert "P102" in error_rules(verify_plan(plan))

    def test_flipped_batch_invariant_on_linear_P120(self):
        plan = fresh_plan()
        linear = next(op for op in plan.ops if op.kind == "linear")
        assert linear.batch_invariant is False  # 2-D GEMM
        linear.batch_invariant = True
        assert "P120" in error_rules(verify_plan(plan))

    def test_foreign_op_kind_P101(self):
        plan = fresh_plan()
        plan.ops[0].kind = "gelu"
        assert "P101" in error_rules(verify_plan(plan))

    def test_broken_shape_chain_P104(self):
        plan = fresh_plan()
        add = next(op for op in plan.ops if op.kind == "add")
        # Rewire one addend to the raw network input: (3, 32, 32) can
        # never match the residual branch's activation shape.
        add.inputs = (plan.input_slot, add.inputs[1])
        assert "P104" in error_rules(verify_plan(plan))

    def test_the_five_mutation_classes_have_distinct_ids(self):
        assert len({"P110", "P102", "P120", "P101", "P104"}) == 5

    def test_check_plan_raises_with_rule_id_in_message(self):
        plan = fresh_plan()
        plan.ops[0].kind = "gelu"
        with pytest.raises(PlanVerificationError, match="P101"):
            check_plan(plan)

    def test_read_before_write_P103(self):
        plan = fresh_plan()
        plan.ops[0].inputs = (plan.num_slots - 1,)
        assert "P103" in error_rules(verify_plan(plan))

    def test_unreachable_module_op_P112(self):
        plan = fresh_plan()
        # Cut the first add's dependence on the residual branch: every
        # module op feeding only that branch can no longer reach the
        # output, so faults in it would be invisible.
        add = next(op for op in plan.ops if op.kind == "add")
        add.inputs = (add.inputs[1], add.inputs[1])
        assert "P112" in error_rules(verify_plan(plan))


class TestFingerprint:
    def test_same_architecture_same_fingerprint(self):
        assert plan_fingerprint(fresh_plan()) == plan_fingerprint(fresh_plan())

    def test_different_architectures_differ(self):
        assert plan_fingerprint(plan_for("resnet8_mini")) != (
            plan_fingerprint(plan_for("vgg_mini"))
        )

    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            (
                "resnet14_mini",
                "00480cf705add2996224c7a3c841be4e"
                "96b1503f24e9b6b26fc13cda7d571728",
            ),
            (
                "mobilenetv2_mini",
                "d06d75d65e52bca90c3542cf4ac6149d"
                "0e9a42c36f82c995c504eeb52b90389d",
            ),
        ],
    )
    def test_plan_fingerprints_are_pinned(self, name, expected):
        """Checkpoints and dist queues store these structural hashes
        (independent of weights and host); an edit that changes them
        silently invalidates every recorded campaign."""
        assert plan_fingerprint(plan_for(name)) == expected

    def test_check_plan_registers_the_fingerprint(self):
        plan = fresh_plan()
        fingerprint = check_plan(plan)
        assert is_plan_verified(fingerprint)
        assert not is_plan_verified("0" * 64)


class TestEngineWiring:
    def test_plan_engine_exposes_verified_fingerprint(
        self, tiny_model, tiny_eval_set
    ):
        from repro.runtime import PlanEngine

        images, labels = tiny_eval_set
        engine = PlanEngine(tiny_model, images, labels)
        assert engine.plan_fingerprint == plan_fingerprint(engine.plan)
        assert is_plan_verified(engine.plan_fingerprint)

    def test_largest_plan_verifies_fast(self):
        plan = plan_for("mobilenetv2")  # 154 ops, the biggest
        start = time.perf_counter()
        diagnostics = verify_plan(plan)
        seconds = time.perf_counter() - start
        assert diagnostics == []
        # EXPERIMENTS.md records ~17 ms; 0.5 s is the don't-regress bar
        # (loose enough for loaded CI runners).
        assert seconds < 0.5
