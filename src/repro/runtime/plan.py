"""Execution plans: a model's forward pass captured as a flat op sequence.

The module tree is great for training and for reading, but the fault
campaigns' hot loop wants something flatter: a forward-only list of
primitive ops (conv2d / bn / relu / pool / linear / add / reshape) whose
inputs and outputs are explicit *buffer slots*.  With that in hand the
engine can

- cache every intermediate activation once (op-granular prefix caching:
  a fault in layer *l* re-executes only the ops that transitively depend
  on *l*'s output, not a whole coarse stage), and
- evaluate K same-layer faults per tail pass by stacking the K faulty
  activation sets along the batch axis.

The contract that makes this safe is **bit-exactness**: a plan replays
the *same* numpy calls, with the same arguments and operand order, as
``forward_fast`` — so plan-engine outcome tables are bit-identical to
the module engine's.

Batch invariance
----------------
Stacking K activation variants along the batch axis is only bit-exact
for kernels whose per-sample arithmetic is independent of the batch
extent.  Elementwise ops, pooling reductions and the 3-D ``matmul``
convolution paths qualify; the 2-D GEMM behind :func:`F.linear` and the
``einsum`` depthwise/grouped convolution paths do **not** (BLAS blocking
changes with the batch dimension).  Each :class:`OpSpec` records this as
``batch_invariant``; the engine runs non-invariant tail ops once per
variant chunk — every chunk call is then shaped exactly like the
unbatched call, so bit-exactness survives batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from repro.backends import Backend, resolve_backend
from repro.nn.module import Module

#: Op kinds a capture may emit.
OP_KINDS = frozenset(
    {
        "conv2d",
        "batchnorm2d",
        "relu",
        "relu6",
        "linear",
        "avg_pool2d",
        "global_avg_pool2d",
        "flatten",
        "add",
        "subsample2d",
        "pad_channels",
    }
)


def _batch_invariant(kind: str, module) -> bool:
    """Reference-backend batch invariance for *kind*, from the kernel table.

    :data:`repro.check.kernels.KERNEL_TABLE` is the single source of
    truth for which reference dispatch paths are bit-stable under batch
    stacking (pointwise/im2col matmul convs are; depthwise/grouped
    einsum and the 2-D linear GEMM are not).  Capture consults it here;
    the verifier's P120 then re-checks the recorded flags against the
    same table, catching post-capture drift in hand-built plans.
    """
    # Lazy import: repro.check.plan reasons *about* this module.
    from repro.check.kernels import KERNEL_TABLE

    predicate = KERNEL_TABLE[kind].batch_invariant
    return bool(predicate(SimpleNamespace(kind=kind, module=module, params={})))


@dataclass
class OpSpec:
    """One primitive op in an :class:`ExecutionPlan`.

    ``module`` (when set) is the live :class:`~repro.nn.Module` whose
    parameters the op reads *at execution time* — the fault injector
    corrupts weights in place, so the plan sees injected faults without
    any re-capture.
    """

    index: int
    kind: str
    inputs: tuple[int, ...]
    output: int
    module: Module | None = None
    params: dict = field(default_factory=dict)
    batch_invariant: bool = True

    def __repr__(self) -> str:  # compact: plans are printed in tests/docs
        ins = ",".join(str(s) for s in self.inputs)
        return f"%{self.output} = {self.kind}({ins})"


class PlanBuilder:
    """Accumulates ops during :meth:`Module.capture` lowering.

    Modules call :meth:`emit` with their op kind and input slots and get
    back the output slot — mirroring how ``forward_fast`` threads
    ndarrays, but recording the dataflow instead of executing it.
    """

    def __init__(self) -> None:
        self.ops: list[OpSpec] = []
        self.input_slot = 0
        self._next_slot = 1

    def emit(
        self, kind: str, inputs: tuple[int, ...], *, module: Module | None = None, **params
    ) -> int:
        """Append one op consuming *inputs*; returns its output slot."""
        if kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        for slot in inputs:
            if not 0 <= slot < self._next_slot:
                raise ValueError(
                    f"op {kind!r} consumes undefined slot {slot} "
                    "(capture must be forward-only)"
                )
        output = self._next_slot
        self._next_slot += 1
        self.ops.append(
            OpSpec(
                index=len(self.ops),
                kind=kind,
                inputs=tuple(inputs),
                output=output,
                module=module,
                params=dict(params),
                batch_invariant=_batch_invariant(kind, module),
            )
        )
        return output

    def build(self, output_slot: int) -> "ExecutionPlan":
        if not self.ops:
            raise ValueError("cannot build an empty execution plan")
        if output_slot != self.ops[-1].output:
            raise ValueError(
                "the plan output must be the last op's result "
                f"(got slot {output_slot}, last op writes {self.ops[-1].output})"
            )
        return ExecutionPlan(
            self.ops, num_slots=self._next_slot, output_slot=output_slot
        )


class ExecutionPlan:
    """A captured forward pass: ops in execution order over buffer slots.

    Slot 0 is the network input; every op writes a fresh slot, so the
    plan is SSA-like and trivially forward-only.

    Kernels live on ``backend`` (see :mod:`repro.backends`): the plan
    records *what* to compute, the backend supplies *how*.  Without an
    explicit backend a plan runs the shared numpy reference.
    """

    def __init__(
        self,
        ops: list[OpSpec],
        *,
        num_slots: int,
        output_slot: int,
        input_slot: int = 0,
        backend: Backend | None = None,
    ) -> None:
        self.ops = list(ops)
        self.num_slots = num_slots
        self.input_slot = input_slot
        self.output_slot = output_slot
        self.backend = resolve_backend(backend)
        self._affected: dict[int, tuple[int, ...]] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def run_op(self, op: OpSpec, inputs: list[np.ndarray]):
        """Execute one op on concrete input arrays."""
        return self.backend.run_op(op, inputs)

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Full forward pass; returns the output-slot array."""
        return self.execute_all(x)[self.output_slot]

    def execute_all(self, x: np.ndarray, instrument=None) -> list:
        """Full forward pass keeping *every* slot's array (golden cache).

        *instrument*, when given, is called as ``instrument(op)`` and
        must return a context manager — the engine uses it to record
        per-op span timings during the one golden capture pass.
        """
        buffers: list = [None] * self.num_slots
        buffers[self.input_slot] = x
        for op in self.ops:
            inputs = [buffers[slot] for slot in op.inputs]
            if instrument is not None:
                with instrument(op):
                    buffers[op.output] = self.run_op(op, inputs)
            else:
                buffers[op.output] = self.run_op(op, inputs)
        return buffers

    def consumers(self, slot: int) -> list[OpSpec]:
        """Ops reading *slot*."""
        return [op for op in self.ops if slot in op.inputs]

    def affected_ops(self, op_index: int) -> tuple[int, ...]:
        """Indices of ops whose output transitively depends on op *op_index*.

        This is the op-granular prefix cache: everything *not* in this
        set keeps its golden activation when a fault perturbs op
        *op_index*'s weights.
        """
        cached = self._affected.get(op_index)
        if cached is not None:
            return cached
        dirty = {self.ops[op_index].output}
        affected: list[int] = []
        for op in self.ops[op_index + 1 :]:
            if any(slot in dirty for slot in op.inputs):
                affected.append(op.index)
                dirty.add(op.output)
        result = tuple(affected)
        self._affected[op_index] = result
        return result


def capture_plan(
    model: Module,
    *,
    backend: Backend | None = None,
) -> ExecutionPlan:
    """Lower *model*'s forward pass into an :class:`ExecutionPlan`.

    The model must implement :meth:`~repro.nn.Module.capture` (all zoo
    models do).  *backend* is the kernel backend the plan executes on
    (``None`` → the numpy reference); a non-reference backend qualifies
    the plan fingerprint with its attestation.

    Every captured plan is statically verified (O(ops²), milliseconds)
    before it crosses this trust boundary; a plan that fails raises
    :class:`~repro.check.PlanVerificationError` instead of silently
    miscomputing campaigns later.
    """
    builder = PlanBuilder()
    output = model.capture(builder, builder.input_slot)
    plan = builder.build(output)
    plan.backend = resolve_backend(backend)
    # Lazy import: repro.check.plan reasons *about* this module.
    from repro.check import check_plan

    check_plan(plan)
    return plan
