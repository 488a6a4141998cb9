"""Static verification of captured execution plans.

:func:`verify_plan` abstractly interprets an
:class:`~repro.runtime.plan.ExecutionPlan` without running any data:
per-sample shapes and dtypes are propagated through every op via the
central :data:`~repro.check.kernels.KERNEL_TABLE`, SSA discipline on
buffer slots is checked, each op's ``affected_ops`` dirty set is proved
sound against an independently recomputed dataflow closure (an unsound
set would silently serve stale golden prefix cache), and every
``batch_invariant`` flag is audited against the kernel table.

:func:`check_plan` is the trust-boundary wrapper: it raises
:class:`~repro.check.diagnostics.PlanVerificationError` on any error
and registers the plan's structural fingerprint as verified so that
distributed merges can refuse shards produced from unverified plans.
"""

from __future__ import annotations

import hashlib
import json

from repro.backends import Backend
from repro.check.diagnostics import Diagnostic, PlanVerificationError
from repro.check.kernels import (
    ABSORPTION_KINDS,
    KERNEL_TABLE,
    ShapeError,
    absorption_spec,
    param_dtype_issues,
)
from repro.nn.module import Module
from repro.runtime.plan import OP_KINDS, ExecutionPlan

#: Default abstract input: one CIFAR sample (all zoo models take 32x32x3).
DEFAULT_INPUT_SHAPE = (3, 32, 32)

#: Structural fingerprints of plans that passed :func:`check_plan` in
#: this process (fork-based dist workers inherit the parent's entries).
_VERIFIED_FINGERPRINTS: set[str] = set()

#: Pairs of fingerprints attested to classify every fault identically.
#: Campaign artifacts produced under distinct fingerprints are refused
#: by checkpoints, workers and merges *unless* a verification pass
#: declared the pair compatible (e.g. :func:`check_plan_vectorized`
#: proving the vectorized mode bit-identical to the exact plan).
_COMPATIBLE_FINGERPRINTS: dict[str, set[str]] = {}


def mark_plan_verified(fingerprint: str) -> None:
    _VERIFIED_FINGERPRINTS.add(fingerprint)


def is_plan_verified(fingerprint: str) -> bool:
    return fingerprint in _VERIFIED_FINGERPRINTS


def declare_fingerprints_compatible(a: str, b: str) -> None:
    """Record that artifacts under *a* and *b* may be mixed.

    Only verification passes should call this: a declaration asserts the
    two execution identities produce bit-identical outcomes for every
    fault, which is exactly what distributed merges rely on when they
    accept a shard attesting a different (but declared) fingerprint.
    """
    _COMPATIBLE_FINGERPRINTS.setdefault(a, set()).add(b)
    _COMPATIBLE_FINGERPRINTS.setdefault(b, set()).add(a)


def fingerprints_compatible(a: str, b: str) -> bool:
    """Whether *a* and *b* are identical or declared compatible."""
    return a == b or b in _COMPATIBLE_FINGERPRINTS.get(a, ())


def compatible_fingerprints(fingerprint: str) -> tuple[str, ...]:
    """Sorted fingerprints declared compatible with *fingerprint*.

    The registry is process-local, so a worker records this set in each
    shard result it completes: a standalone merge process (which never
    built either plan, hence holds an empty registry) accepts the shard
    against any campaign fingerprint the worker's own verification pass
    attested compatible at run time.
    """
    return tuple(sorted(_COMPATIBLE_FINGERPRINTS.get(fingerprint, ())))


def _module_signature(module: Module | None) -> list:
    if module is None:
        return []
    parts = []
    for name in ("weight", "bias"):
        param = getattr(module, name, None)
        if param is not None:
            parts.append([name, list(param.data.shape), str(param.data.dtype)])
    for name in ("kernel_size", "stride", "padding", "groups", "num_features",
                 "in_features", "out_features", "kernel", "eps"):
        value = getattr(module, name, None)
        if isinstance(value, (int, float)):
            parts.append([name, value])
    return [type(module).__name__, parts]


def _params_signature(params: dict) -> list:
    out = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, Module):
            out.append([key, _module_signature(value)])
        else:
            out.append([key, repr(value)])
    return out


def plan_fingerprint(
    plan: ExecutionPlan,
    *,
    mode: str = "exact",
    backend: Backend | None = None,
) -> str:
    """Structural sha256 of *plan* (ops, slots, flags — not weight values).

    Weight *values* are covered by the engine fingerprint; this one pins
    the dataflow structure the verifier reasoned about, so a shard's
    attestation refers to exactly the verified graph.  *mode* qualifies
    the execution strategy the fingerprint attests: ``"exact"`` (the
    default, hash-stable with earlier releases) or ``"vectorized"`` —
    the variant-axis certified mode runs the same plan under a distinct
    fingerprint.

    The kernel backend qualifies the fingerprint the same way: a
    non-reference backend's attestation (name, version, per-op
    invariance + tolerance classes — see
    :meth:`repro.backends.Backend.attestation`) is folded into the
    payload, so shards computed under different backends can never
    silently merge.  Reference-backend plans hash exactly as before.
    *backend* defaults to the plan's own ``backend`` attribute.
    """
    if backend is None:
        backend = getattr(plan, "backend", None)
    payload = {
        "num_slots": plan.num_slots,
        "input_slot": plan.input_slot,
        "output_slot": plan.output_slot,
        # Constant: keeps plan fingerprints recorded in earlier
        # checkpoints and queues valid.
        "fusions": [],
        "ops": [
            [
                op.kind,
                list(op.inputs),
                op.output,
                bool(op.batch_invariant),
                _params_signature(op.params),
                _module_signature(op.module),
            ]
            for op in plan.ops
        ],
    }
    if mode != "exact":
        payload["mode"] = mode
    if backend is not None and not backend.is_reference:
        payload["backend"] = backend.attestation()
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _true_affected(plan: ExecutionPlan, op_index: int) -> tuple[int, ...]:
    """Independent dataflow closure (mirrors the engine's cache contract)."""
    dirty = {plan.ops[op_index].output}
    affected = []
    for op in plan.ops[op_index + 1 :]:
        if any(slot in dirty for slot in op.inputs):
            affected.append(op.index)
            dirty.add(op.output)
    return tuple(affected)


def verify_plan(
    plan: ExecutionPlan, *, input_shape: tuple[int, ...] = DEFAULT_INPUT_SHAPE
) -> list[Diagnostic]:
    """All diagnostics for *plan*; empty list means fully clean."""
    diags: list[Diagnostic] = []

    def err(rule: str, msg: str, i: int | None = None) -> None:
        diags.append(Diagnostic(rule, "error", msg, i))

    def warn(rule: str, msg: str, i: int | None = None) -> None:
        diags.append(Diagnostic(rule, "warning", msg, i))

    if not plan.ops:
        err("P106", "plan has no ops")
        return diags
    if not 0 <= plan.input_slot < plan.num_slots:
        err("P103", f"input slot {plan.input_slot} out of range")
        return diags

    defined: dict[int, int] = {plan.input_slot: -1}  # slot -> producing op
    shapes: dict[int, tuple[int, ...] | None] = {plan.input_slot: tuple(input_shape)}
    structural_errors = False

    for position, op in enumerate(plan.ops):
        if op.index != position:
            err("P102", f"op.index {op.index} != position {position}", position)
            structural_errors = True
        if op.kind not in OP_KINDS:
            err("P101", f"unknown op kind {op.kind!r}", op.index)
            structural_errors = True

        for slot in op.inputs:
            if not 0 <= slot < plan.num_slots:
                err("P103", f"reads out-of-range slot {slot}", op.index)
                structural_errors = True
            elif slot not in defined:
                err("P103", f"reads slot {slot} before any op defines it", op.index)
                structural_errors = True
        if not 0 <= op.output < plan.num_slots:
            err("P102", f"writes out-of-range slot {op.output}", op.index)
            structural_errors = True
        elif op.output in defined:
            owner = defined[op.output]
            what = "the network input" if owner < 0 else f"op {owner}'s output"
            err(
                "P102",
                f"output slot {op.output} aliases {what} "
                "(plans are single-assignment)",
                op.index,
            )
            structural_errors = True
        else:
            defined[op.output] = op.index

        spec = KERNEL_TABLE.get(op.kind)
        if spec is None:
            if op.kind in OP_KINDS:
                err(
                    "P121",
                    f"kind {op.kind!r} has no row in the kernel "
                    "classification table",
                    op.index,
                )
            shapes[op.output] = None
            continue
        if spec.requires_module and op.module is None:
            err("P104", f"{op.kind} op has no module to read parameters from",
                op.index)
            shapes[op.output] = None
            continue

        for issue in param_dtype_issues(op):
            err("P105", issue, op.index)

        in_shapes = [shapes.get(slot) for slot in op.inputs]
        if any(shape is None for shape in in_shapes) or len(in_shapes) == 0:
            shapes[op.output] = None
            continue
        try:
            shapes[op.output] = spec.infer_shape(op, in_shapes)
        except ShapeError as exc:
            err("P104", str(exc), op.index)
            shapes[op.output] = None
            continue

        expected_flag = spec.batch_invariant(op)
        if bool(op.batch_invariant) != expected_flag:
            err(
                "P120",
                f"{op.kind} is marked batch_invariant={bool(op.batch_invariant)} "
                f"but the kernel table classifies it as {expected_flag}",
                op.index,
            )

    if plan.output_slot not in defined or defined[plan.output_slot] < 0:
        err("P106", f"output slot {plan.output_slot} is never written")
    elif defined[plan.output_slot] != plan.ops[-1].index:
        warn(
            "P106",
            f"output slot {plan.output_slot} is written by op "
            f"{defined[plan.output_slot]}, not the final op",
        )

    if structural_errors:
        # Dataflow is ill-defined; reachability/affected proofs would
        # only produce cascading noise.
        return diags

    # -- cache safety: every op's output must reach the plan output ------
    producer = {op.output: op.index for op in plan.ops}
    reach: set[int] = set()
    stack = [defined[plan.output_slot]] if defined.get(plan.output_slot, -1) >= 0 else []
    while stack:
        index = stack.pop()
        if index in reach:
            continue
        reach.add(index)
        for slot in plan.ops[index].inputs:
            parent = producer.get(slot)
            if parent is not None and parent not in reach:
                stack.append(parent)
    for op in plan.ops:
        if op.index in reach:
            continue
        if op.module is not None:
            err(
                "P112",
                f"{op.kind} op's output cannot reach the plan output — "
                "faults injected into its parameters would be invisible",
                op.index,
            )
        else:
            warn("P112", f"dead {op.kind} op never reaches the plan output",
                 op.index)

    # -- affected_ops soundness (the golden prefix-cache contract) -------
    for op in plan.ops:
        true_set = _true_affected(plan, op.index)
        reported = plan.affected_ops(op.index)
        if list(reported) != sorted(set(reported)) or any(
            not (op.index < r < len(plan.ops)) for r in reported
        ):
            err(
                "P110",
                f"affected_ops({op.index}) = {reported} is not a strictly "
                "increasing sequence of downstream op indices",
                op.index,
            )
            continue
        missing = sorted(set(true_set) - set(reported))
        if missing:
            err(
                "P110",
                f"affected_ops({op.index}) omits dependent op(s) {missing} — "
                "their stale golden activations would be served from cache",
                op.index,
            )
        extra = sorted(set(reported) - set(true_set))
        if extra:
            warn(
                "P111",
                f"affected_ops({op.index}) over-approximates: op(s) {extra} "
                f"do not depend on op {op.index} and would be recomputed "
                "needlessly",
                op.index,
            )
    return diags


def check_plan(
    plan: ExecutionPlan, *, input_shape: tuple[int, ...] = DEFAULT_INPUT_SHAPE
) -> str:
    """Verify *plan*; raise on errors, else register + return its fingerprint."""
    diagnostics = verify_plan(plan, input_shape=input_shape)
    if any(d.severity == "error" for d in diagnostics):
        raise PlanVerificationError(diagnostics)
    fingerprint = plan_fingerprint(plan)
    mark_plan_verified(fingerprint)
    return fingerprint


def _abstract_shapes(
    plan: ExecutionPlan, input_shape: tuple[int, ...]
) -> dict[int, tuple[int, ...] | None]:
    """Per-slot abstract shapes (best-effort; None where unknown)."""
    shapes: dict[int, tuple[int, ...] | None] = {
        plan.input_slot: tuple(input_shape)
    }
    for op in plan.ops:
        spec = KERNEL_TABLE.get(op.kind)
        in_shapes = [shapes.get(slot) for slot in op.inputs]
        if spec is None or not in_shapes or any(s is None for s in in_shapes):
            shapes[op.output] = None
            continue
        try:
            shapes[op.output] = spec.infer_shape(op, in_shapes)
        except ShapeError:
            shapes[op.output] = None
    return shapes


def verify_plan_vectorized(
    plan: ExecutionPlan, *, input_shape: tuple[int, ...] = DEFAULT_INPUT_SHAPE
) -> list[Diagnostic]:
    """Diagnostics for running *plan* under the vectorized mode.

    On top of every exact-mode check, the vectorized certifier needs an
    absorption row for every op so fault-propagation bounds exist; ops
    without one only disable certification beyond them (``P123``,
    warning: correct but no speedup).
    """
    diags = verify_plan(plan, input_shape=input_shape)
    shapes = _abstract_shapes(plan, input_shape)
    for op in plan.ops:
        in_shape = shapes.get(op.inputs[0]) if op.inputs else None
        rank = len(in_shape) if in_shape is not None else 3
        if absorption_spec(op, mean=False, input_rank=rank) is None:
            diags.append(
                Diagnostic(
                    "P123",
                    "warning",
                    f"{op.kind} has no absorption row"
                    + (
                        f" for rank-{rank} input"
                        if op.kind in ABSORPTION_KINDS
                        else ""
                    )
                    + "; rows reaching it never certify",
                    op.index,
                )
            )
    return diags


def check_plan_vectorized(
    plan: ExecutionPlan, *, input_shape: tuple[int, ...] = DEFAULT_INPUT_SHAPE
) -> str:
    """Verify *plan* for vectorized execution; return its mode fingerprint.

    Raises on errors.  On success the vectorized fingerprint is
    registered as verified **and declared compatible with the exact
    fingerprint of the same plan**: certified rows provably keep the
    golden prediction and surviving rows run through the same
    bit-stable kernels (non-batch-invariant ops at full batch), so the
    two modes classify every fault identically — which is what lets
    checkpoints and distributed merges mix their artifacts.
    """
    diagnostics = verify_plan_vectorized(plan, input_shape=input_shape)
    if any(d.severity == "error" for d in diagnostics):
        raise PlanVerificationError(diagnostics)
    exact = plan_fingerprint(plan)
    fingerprint = plan_fingerprint(plan, mode="vectorized")
    mark_plan_verified(exact)
    mark_plan_verified(fingerprint)
    declare_fingerprints_compatible(fingerprint, exact)
    return fingerprint
