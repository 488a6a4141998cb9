"""Execution-plan capture: structure and bit-exact replay."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import (
    MobileNetV2CIFAR,
    ResNetCIFAR,
    VGGCIFAR,
)
from repro.nn import Module
from repro.runtime import OP_KINDS, PlanBuilder, capture_plan


def _zoo_minis():
    """One small instance per zoo architecture (fresh random weights)."""
    return [
        ResNetCIFAR(blocks_per_stage=1, widths=(4, 6, 8), seed=7).eval(),
        MobileNetV2CIFAR(seed=7).eval(),
        VGGCIFAR(seed=7).eval(),
    ]


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(0)
    return rng.standard_normal((4, 3, 32, 32)).astype(np.float32)


class TestCaptureBitExact:
    @pytest.mark.parametrize("model_idx", range(3))
    def test_plan_replays_forward_fast_bitwise(self, batch, model_idx):
        """The plan is byte-for-byte forward_fast."""
        model = _zoo_minis()[model_idx]
        plan = capture_plan(model)
        expected = model.forward_fast(batch)
        got = plan.execute(batch)
        assert expected.tobytes() == got.tobytes()

    def test_capture_handles_padded_shortcut(self, batch):
        """Stage transitions (stride-2 + channel padding) lower correctly."""
        model = ResNetCIFAR(blocks_per_stage=2, widths=(4, 8, 16), seed=1)
        model.eval()
        plan = capture_plan(model)
        assert {"subsample2d", "pad_channels", "add"} <= {
            op.kind for op in plan.ops
        }
        assert model.forward_fast(batch).tobytes() == plan.execute(batch).tobytes()

    def test_base_module_capture_raises(self):
        class Opaque(Module):
            pass

        with pytest.raises(NotImplementedError, match="capture"):
            Opaque().capture(PlanBuilder(), 0)


class TestPlanStructure:
    @pytest.fixture(scope="class")
    def plan(self):
        model = ResNetCIFAR(blocks_per_stage=1, widths=(4, 6, 8), seed=7)
        return capture_plan(model.eval())

    def test_plan_is_forward_only_ssa(self, plan):
        seen = {plan.input_slot}
        for index, op in enumerate(plan.ops):
            assert op.index == index
            assert all(slot in seen for slot in op.inputs)
            assert op.output not in seen  # each op writes a fresh slot
            seen.add(op.output)
        assert plan.output_slot == plan.ops[-1].output
        assert all(op.kind in OP_KINDS for op in plan.ops)

    def test_affected_ops_are_the_transitive_consumers(self, plan):
        first_conv = next(op for op in plan.ops if op.kind == "conv2d")
        affected = plan.affected_ops(first_conv.index)
        # Everything after the stem conv depends on it in a chain network.
        assert affected == tuple(
            op.index for op in plan.ops[first_conv.index + 1 :]
        )
        # The final linear affects nothing downstream.
        assert plan.affected_ops(plan.ops[-1].index) == ()

    def test_affected_ops_skip_parallel_shortcut(self, plan):
        # A block's conv1 does not dirty its own shortcut input: the add
        # consumes both, so it is affected, but the ops feeding only the
        # shortcut branch stay clean.
        convs = [op for op in plan.ops if op.kind == "conv2d"]
        block_conv = convs[1]  # first in-block conv (stem is convs[0])
        affected = set(plan.affected_ops(block_conv.index))
        adds = [op.index for op in plan.ops if op.kind == "add"]
        assert adds[0] in affected

    def test_consumers(self, plan):
        consumers = plan.consumers(plan.ops[0].output)
        assert consumers and all(
            plan.ops[0].output in op.inputs for op in consumers
        )

    def test_builder_rejects_unknown_kind(self):
        builder = PlanBuilder()
        with pytest.raises(ValueError, match="unknown op kind"):
            builder.emit("softmax", (0,))

    def test_builder_rejects_undefined_slot(self):
        builder = PlanBuilder()
        with pytest.raises(ValueError, match="undefined slot"):
            builder.emit("relu", (5,))

    def test_builder_rejects_empty_plan(self):
        with pytest.raises(ValueError, match="empty"):
            PlanBuilder().build(0)

    def test_builder_rejects_wrong_output_slot(self):
        builder = PlanBuilder()
        builder.emit("relu", (0,))
        builder.emit("relu", (1,))
        with pytest.raises(ValueError, match="last op"):
            builder.build(1)

    def test_opspec_repr_is_compact(self, plan):
        assert repr(plan.ops[0]) == "%1 = conv2d(0)"

