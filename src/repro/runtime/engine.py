"""The plan engine: op-granular prefix caching and batched fault evaluation.

:class:`PlanEngine` classifies weight faults exactly like
:class:`repro.faults.InferenceEngine` — same injector, same policies,
bit-identical outcomes — but executes a captured
:class:`~repro.runtime.ExecutionPlan` instead of walking the module tree:

- **Op-granular prefix caching.**  The golden pass keeps every op's
  output.  A fault in layer *l* re-executes only *l*'s op and the ops
  transitively downstream of it (``plan.affected_ops``); every other op
  is served from the cache.  The module engine's stage-granular cache
  re-runs a whole residual block even when only its second conv is hit.
- **Channel-sparse fault evaluation.**  A weight fault in a conv or
  linear layer perturbs exactly one output channel (GEMM rows are
  computed independently, so every other channel of the faulty output is
  bit-identical to the golden one — asserted by the test suite on this
  BLAS).  The engine therefore evaluates the fault op as a single-row
  GEMM against the layer's *cached golden im2col columns*, and carries
  only that dirty channel through the channel-preserving suffix (bn,
  relu, pooling, subsample, channel padding, residual adds against
  golden operands) as a ``(N, K, ...)`` slice.  Full activations are
  only materialised — golden copy plus one patched channel — at the
  first channel-*mixing* op (the next conv/linear), where dense
  execution resumes.  For faults in the last conv block the dense
  suffix all but vanishes.
- **Batched fault evaluation.**  K same-layer faults share one tail
  pass: their K corrupted weight rows stack into a single ``(K, k)``
  GEMM and the sparse suffix processes all K dirty channels at once.
  When dense execution resumes, the K variants are stacked along the
  batch axis while the working set stays cache-sized
  (:data:`DENSE_STACK_LIMIT`) and chunked per variant beyond that; ops
  whose kernels are not bit-stable under batch stacking (``linear``'s
  2-D GEMM, the einsum convolution paths) are always chunked — each
  chunk call is shaped exactly like the unbatched call, preserving
  bit-exactness.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.backends import Backend, resolve_backend
from repro.faults.engine import FaultInjectionEngine, InferenceEngine
from repro.faults.model import Fault
from repro.ieee754 import FLOAT32, FloatFormat
from repro.nn import Module
from repro.runtime.plan import OpSpec, capture_plan
from repro.telemetry import Telemetry
from repro.tensor.im2col import conv_output_size

#: Default number of same-layer faults evaluated per stacked tail pass.
DEFAULT_BATCH_SIZE = 16

#: Byte ceiling for the stacked dense tail: K variants are evaluated on
#: one stacked batch only while K x (materialised activations) fits in
#: this budget; beyond it the stacked arrays fall out of cache and the
#: tail is chunked per variant instead (each chunk bit-identical to the
#: unbatched pass either way).
DENSE_STACK_LIMIT = 4 * 1024 * 1024

#: Op kinds that keep a single dirty channel confined to that channel.
_CHANNEL_PRESERVING = frozenset(
    {
        "batchnorm2d",
        "relu",
        "relu6",
        "avg_pool2d",
        "global_avg_pool2d",
        "subsample2d",
    }
)


@dataclass(frozen=True)
class _SparsePrefix:
    """Static analysis of a fault op's channel-sparse tail prefix.

    ``steps`` holds ``(op, mode, aux)`` triples for the tail ops that
    preserve the dirty channel; ``dense_start`` is the tail position of
    the first channel-mixing op (``len(tail)`` when the whole tail is
    channel-preserving); ``mat_slots`` are the sparse slots that must be
    materialised — golden copy plus patched channel — for the dense
    resume, with their accumulated channel shift from ``pad_channels``.
    """

    steps: tuple
    dense_start: int
    mat_slots: tuple[tuple[int, int], ...]  # (slot, channel shift)


class PlanEngine(FaultInjectionEngine):
    """Fault classification over a captured execution plan.

    Parameters mirror :class:`repro.faults.InferenceEngine`, plus:

    batch_size:
        Same-layer faults evaluated per stacked tail pass (>= 1).
    backend:
        Kernel backend instance (None → the numpy reference).
        Non-reference backends run every op through the generic dense
        paths (the channel-sparse fast path is stated against reference
        BLAS row-GEMM identities) and carry a backend-qualified plan
        fingerprint.
    """

    kind = "plan"

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        fmt: FloatFormat = FLOAT32,
        policy: str = "accuracy_drop",
        threshold: float = 0.0,
        telemetry: Telemetry | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        backend: Backend | None = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        super().__init__(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
        )
        self.backend = resolve_backend(backend)
        self.plan = capture_plan(model, backend=self.backend)
        # Re-verify at the engine trust boundary (capture already did,
        # but the engine is also handed pre-built plans in tests) and
        # pin the verified structure's fingerprint — distributed shard
        # results attest this value so merges can refuse outcomes from
        # plans that never passed verification.
        from repro.check import check_plan  # lazy: check reasons about runtime

        if self.telemetry.enabled:
            with self.telemetry.span("check.verify_plan", emit=True):
                self.plan_fingerprint = check_plan(self.plan)
            self.telemetry.counter("check.plans_verified").add(1)
        else:
            self.plan_fingerprint = check_plan(self.plan)
        self.batch_size = int(batch_size)
        instrument = None
        if self.telemetry.enabled:
            def instrument(op):
                return self.telemetry.span(f"plan.op.{op.kind}")
        self._golden = self.plan.execute_all(self.images, instrument=instrument)
        self.golden_predictions = self._golden[self.plan.output_slot].argmax(axis=1)
        self.golden_accuracy = float(
            (self.golden_predictions == self.labels).mean()
        )
        self._layer_op = self._map_layers_to_ops()
        # An op's tail pass may stack variants only when both the plan
        # flag (reference dispatch analysis) and the executing backend's
        # own attestation say the kernel is batch-invariant.
        self._stackable = [
            bool(op.batch_invariant) and self.backend.batch_invariant(op)
            for op in self.plan.ops
        ]
        self._free_schedule: dict[int, list[list[int]]] = {}
        self._sparse_cache: dict[int, _SparsePrefix | None] = {}
        # Golden im2col columns of the active fault layer (single entry:
        # campaigns sweep faults layer by layer, so one layer is hot).
        self._cols_cache: tuple[int, np.ndarray, int, int] | None = None
        #: Stacked tail passes executed (each covers up to batch_size faults).
        self.tail_passes = 0
        #: Tail ops actually recomputed across all passes.
        self.ops_executed = 0
        #: Ops served from the golden op cache instead of recomputed.
        self.ops_cached = 0

    def _map_layers_to_ops(self) -> list[int]:
        """Plan-op index owning each weight layer, in layer order.

        Keyed by module identity.
        """
        op_of_module = {}
        for op in self.plan.ops:
            if op.module is not None:
                op_of_module.setdefault(id(op.module), op.index)
        mapping = []
        for layer in self.layers:
            op_index = op_of_module.get(id(layer.module))
            if op_index is None:
                raise ValueError(
                    f"weight layer {layer.name} has no op in the captured "
                    "plan; capture() must cover the whole forward pass"
                )
            mapping.append(op_index)
        return mapping

    def _tail_free_schedule(self, op_index: int) -> list[list[int]]:
        """Per tail position, the env slots dead after that op runs.

        Freeing a tail buffer at its last use keeps the working set as
        small as ``forward_fast``'s, so the allocator serves every op
        from warm, recently-freed pages instead of fresh cold mappings —
        purely a memory-lifetime change, the values are untouched.
        """
        schedule = self._free_schedule.get(op_index)
        if schedule is None:
            tail = self.plan.affected_ops(op_index)
            produced = {self.plan.ops[op_index].output}
            produced.update(self.plan.ops[idx].output for idx in tail)
            last_use: dict[int, int] = {}
            for pos, idx in enumerate(tail):
                for slot in self.plan.ops[idx].inputs:
                    if slot in produced:
                        last_use[slot] = pos
            schedule = [[] for _ in tail]
            for slot, pos in last_use.items():
                if slot != self.plan.output_slot:
                    schedule[pos].append(slot)
            self._free_schedule[op_index] = schedule
        return schedule

    # -- fault evaluation ---------------------------------------------------

    def _predictions_with_fault(self, fault: Fault) -> np.ndarray:
        return self._run_batch(fault.layer, [fault])[0]

    def predictions_for_faults(self, faults: Sequence[Fault]) -> np.ndarray:
        """Faulty top-1 predictions, ``(K, N)``; same-layer faults share
        tail passes."""
        if not faults:
            return np.empty((0, len(self.images)), dtype=np.int64)
        if self.telemetry.enabled:
            with self.telemetry.span("engine.inference"):
                return self._predictions_for_faults(faults)
        return self._predictions_for_faults(faults)

    def _predictions_for_faults(self, faults: Sequence[Fault]) -> np.ndarray:
        by_layer: dict[int, list[int]] = {}
        for pos, fault in enumerate(faults):
            by_layer.setdefault(fault.layer, []).append(pos)
        rows = [None] * len(faults)
        for layer_idx, positions in by_layer.items():
            for start in range(0, len(positions), self.batch_size):
                chunk = positions[start : start + self.batch_size]
                preds = self._run_batch(layer_idx, [faults[p] for p in chunk])
                for pos, row in zip(chunk, preds):
                    rows[pos] = row
        return np.stack(rows)

    # -- channel-sparse analysis -------------------------------------------

    def _sparse_prefix(self, op_index: int) -> _SparsePrefix | None:
        """Static channel-sparse plan for faults in op *op_index*.

        ``None`` when the fault op itself is not row-separable (grouped
        or depthwise convs) — those fall back to dense full-recompute
        evaluation.  The whole analysis is stated against
        the reference backend's row-GEMM identities (and the hand-inlined
        numpy suffix kernels in :meth:`_sparse_batch`), so non-reference
        backends always take the dense path.
        """
        if op_index in self._sparse_cache:
            return self._sparse_cache[op_index]
        op = self.plan.ops[op_index]
        eligible = self.backend.is_reference and (
            op.kind == "linear"
            or (op.kind == "conv2d" and op.module.groups == 1)
        )
        info = None
        if eligible:
            tail = self.plan.affected_ops(op_index)
            shift = {op.output: 0}  # sparse slot -> channel shift
            steps = []
            dense_start = len(tail)
            for pos, idx in enumerate(tail):
                t = self.plan.ops[idx]
                dirty = [s for s in t.inputs if s in shift]
                if t.kind in _CHANNEL_PRESERVING and len(t.inputs) == 1:
                    shift[t.output] = shift[t.inputs[0]]
                    steps.append((t, t.kind, shift[t.output]))
                elif t.kind == "pad_channels":
                    shift[t.output] = (
                        shift[t.inputs[0]] + t.params["before"]
                    )
                    steps.append((t, "pad", None))
                elif t.kind == "add" and len(dirty) == 1:
                    other = next(s for s in t.inputs if s != dirty[0])
                    shift[t.output] = shift[dirty[0]]
                    steps.append(
                        (
                            t,
                            "add",
                            (
                                dirty[0],
                                other,
                                t.inputs[0] == dirty[0],
                                shift[dirty[0]],
                            ),
                        )
                    )
                else:
                    dense_start = pos
                    break
            live: dict[int, int] = {}
            for idx in tail[dense_start:]:
                for s in self.plan.ops[idx].inputs:
                    if s in shift:
                        live[s] = shift[s]
            if self.plan.output_slot in shift:
                live[self.plan.output_slot] = shift[self.plan.output_slot]
            info = _SparsePrefix(
                steps=tuple(steps),
                dense_start=dense_start,
                mat_slots=tuple(sorted(live.items())),
            )
        self._sparse_cache[op_index] = info
        return info

    def _fault_cols(self, op: OpSpec) -> tuple[np.ndarray, int, int]:
        """Golden im2col columns of *op*'s input (single-entry cache).

        The fault op always reads its *golden* input, so the columns are
        identical for every fault in the layer — im2col once, GEMM per
        corrupted row.
        """
        cached = self._cols_cache
        if cached is not None and cached[0] == op.index:
            return cached[1], cached[2], cached[3]
        m = op.module
        x = self._golden[op.inputs[0]]
        kk = m.kernel_size
        oh = conv_output_size(x.shape[2], kk, m.stride, m.padding)
        ow = conv_output_size(x.shape[3], kk, m.stride, m.padding)
        cols = self.backend.im2col(x, kk, kk, m.stride, m.padding)
        self._cols_cache = (op.index, cols, oh, ow)
        return cols, oh, ow

    def _variant_rows(
        self, op: OpSpec, faults: Sequence[Fault]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Faulty values of each fault's dirty channel, all K in one GEMM.

        Returns ``(chans, rows)`` where ``chans[v]`` is variant *v*'s
        output channel and ``rows`` stacks the channels' faulty
        activations as ``(N, K, oh, ow)`` (conv) or ``(N, K)`` (linear).
        Each result row is bit-identical to the corresponding row of the
        full faulty op output: GEMM rows are independent, and stacked
        row GEMMs with M >= 2 reproduce the full GEMM's rows exactly (a
        single row is duplicated to M = 2 for the same reason).
        """
        m = op.module
        k = len(faults)
        weight = m.weight.data
        per_row = weight.size // weight.shape[0]
        chans = np.array([f.index // per_row for f in faults])
        rows = np.empty((max(k, 2), per_row), dtype=np.float32)
        flat = weight.reshape(weight.shape[0], per_row)
        for v, fault in enumerate(faults):
            with self.injector.inject(fault):
                rows[v] = flat[chans[v]]
        if k == 1:
            rows[1] = rows[0]
        bias = None if m.bias is None else m.bias.data
        if op.kind == "linear":
            x = self._golden[op.inputs[0]]
            out = self.backend.gemm(x, rows.T)[:, :k]
            if bias is not None:
                out = out + bias[chans]
            return chans, out
        if m.kernel_size == 1 and m.padding == 0 and m.groups == 1:
            x = self._golden[op.inputs[0]]
            if m.stride != 1:
                x = x[:, :, ::m.stride, ::m.stride]
            n, c, oh, ow = x.shape
            cols = x.reshape(n, c, oh * ow)
        else:
            cols, oh, ow = self._fault_cols(op)
        out = self.backend.gemm(rows, cols)[:, :k].reshape(-1, k, oh, ow)
        if bias is not None:
            out = out + bias[chans].reshape(1, k, 1, 1)
        return chans, out

    # -- fault-batch execution ---------------------------------------------

    def _run_batch(self, layer_idx: int, faults: Sequence[Fault]) -> np.ndarray:
        """One tail pass over K faults of one layer -> (K, N) preds."""
        op_index = self._layer_op[layer_idx]
        op = self.plan.ops[op_index]
        k = len(faults)
        tail = self.plan.affected_ops(op_index)
        # Corrupted weights legitimately overflow to inf/NaN; only the
        # argmax below matters, so silence the warnings wholesale.
        with np.errstate(all="ignore"):
            info = self._sparse_prefix(op_index)
            if info is not None:
                preds = self._sparse_batch(op_index, op, tail, faults, info)
            else:
                preds = self._dense_fallback(op_index, op, tail, faults)
        self.tail_passes += 1
        self.ops_executed += len(tail)
        self.ops_cached += len(self.plan.ops) - 1 - len(tail)
        self.inference_count += k
        if self.telemetry.enabled:
            self.telemetry.counter("engine.inferences").add(k)
        return preds

    def _sparse_batch(
        self,
        op_index: int,
        op: OpSpec,
        tail: tuple[int, ...],
        faults: Sequence[Fault],
        info: _SparsePrefix,
    ) -> np.ndarray:
        k = len(faults)
        n = len(self.images)
        chans, rows = self._variant_rows(op, faults)
        senv = {op.output: rows}
        for t, mode, aux in info.steps:
            if mode == "pad":
                # Zero padding adds *other* channels; the dirty channel's
                # values pass through (its index shift is static).
                senv[t.output] = senv[t.inputs[0]]
            elif mode == "batchnorm2d":
                m = t.module
                # Full-vector scale/shift exactly as F.batchnorm2d, then
                # gather the K dirty channels: same per-element fma.
                scale = (
                    m.weight.data / np.sqrt(m.running_var + m.eps)
                ).astype(np.float32)
                offset = (m.bias.data - m.running_mean * scale).astype(
                    np.float32
                )
                ch = chans + aux
                x = senv[t.inputs[0]]
                senv[t.output] = x * scale[ch].reshape(
                    1, k, 1, 1
                ) + offset[ch].reshape(1, k, 1, 1)
            elif mode == "relu":
                senv[t.output] = np.maximum(senv[t.inputs[0]], 0.0)
            elif mode == "relu6":
                senv[t.output] = np.clip(senv[t.inputs[0]], 0.0, 6.0)
            elif mode == "avg_pool2d":
                x = senv[t.inputs[0]]
                kk = t.module.kernel
                _, _, h, w = x.shape
                view = x.reshape(n, k, h // kk, kk, w // kk, kk)
                senv[t.output] = view.mean(axis=(3, 5), dtype=np.float32)
            elif mode == "global_avg_pool2d":
                senv[t.output] = senv[t.inputs[0]].mean(
                    axis=(2, 3), dtype=np.float32
                )
            elif mode == "subsample2d":
                s = t.params["stride"]
                senv[t.output] = senv[t.inputs[0]][:, :, ::s, ::s]
            else:  # add against a golden operand (order preserved: NaNs)
                dirty_slot, other_slot, dirty_first, shift = aux
                x = senv[dirty_slot]
                g = self._golden[other_slot][:, chans + shift]
                senv[t.output] = x + g if dirty_first else g + x
        mats = [
            {
                slot: self._materialize(slot, shift, chans[v], senv, v)
                for slot, shift in info.mat_slots
            }
            for v in range(k)
        ]
        del senv
        if info.dense_start >= len(tail):
            logits = [m[self.plan.output_slot] for m in mats]
            return np.stack([lg.argmax(axis=1) for lg in logits])
        mat_bytes = sum(a.nbytes for a in mats[0].values())
        return self._stacked_tails(
            op_index, tail, info.dense_start, mats, mat_bytes,
            slots=[slot for slot, _ in info.mat_slots],
        )

    def _stacked_tails(
        self,
        op_index: int,
        tail: tuple[int, ...],
        start: int,
        mats: list[dict[int, np.ndarray]],
        mat_bytes: int,
        slots: list[int],
    ) -> np.ndarray:
        """Dense tails over K variant envs, stacked in cache-sized groups.

        Stacking is bit-identical at any group size (non-invariant
        kernels are chunked per variant inside the tail either way), so
        the group size is purely a throughput knob: all K variants stack
        while the seeded activations fit :data:`DENSE_STACK_LIMIT`,
        otherwise every variant runs alone — measured faster than
        partial stacking, whose K-times-larger per-op arrays fall out of
        cache without amortising enough dispatch overhead to pay for it.
        """
        k = len(mats)
        chunk = k if k * mat_bytes <= DENSE_STACK_LIMIT else 1
        preds = []
        for s in range(0, k, chunk):
            group = mats[s : s + chunk]
            if len(group) == 1:
                preds.append(
                    self._dense_tail(op_index, tail, start, group[0], 1)
                )
            else:
                env = {
                    slot: np.concatenate([m[slot] for m in group], axis=0)
                    for slot in slots
                }
                preds.append(
                    self._dense_tail(op_index, tail, start, env, len(group))
                )
        return np.concatenate(preds, axis=0)

    def _materialize(
        self, slot: int, shift: int, chan: int, senv: dict, v: int
    ) -> np.ndarray:
        """Golden copy of *slot* with variant *v*'s dirty channel patched.

        Every other channel of the true faulty activation is bit-equal
        to golden (channel-preserving ops never mix channels), so the
        copy-and-patch reproduces the dense result exactly.
        """
        full = self._golden[slot].copy()
        full[:, chan + shift] = senv[slot][:, v]
        return full

    def _dense_fallback(
        self,
        op_index: int,
        op: OpSpec,
        tail: tuple[int, ...],
        faults: Sequence[Fault],
    ) -> np.ndarray:
        """Full-recompute fault op (grouped/depthwise) + dense tail."""
        k = len(faults)
        golden_inputs = [self._golden[s] for s in op.inputs]
        variants = []
        for fault in faults:
            with self.injector.inject(fault):
                variants.append(self.plan.run_op(op, golden_inputs))
        return self._stacked_tails(
            op_index,
            tail,
            0,
            [{op.output: var} for var in variants],
            variants[0].nbytes,
            slots=[op.output],
        )

    def _dense_tail(
        self,
        op_index: int,
        tail: tuple[int, ...],
        start: int,
        env: dict[int, np.ndarray],
        k: int,
    ) -> np.ndarray:
        """Run tail ops from *start* on seeded dirty slots -> (k, N) preds.

        ``k == 1`` replays the plain per-variant pass; ``k > 1`` runs the
        K variants stacked along the batch axis, chunking per variant
        for kernels that are not bit-stable under batch stacking.
        """
        n = len(self.images)
        free_after = self._tail_free_schedule(op_index)
        if k == 1:
            for pos in range(start, len(tail)):
                top = self.plan.ops[tail[pos]]
                inputs = [
                    env[s] if s in env else self._golden[s]
                    for s in top.inputs
                ]
                env[top.output] = self.plan.run_op(top, inputs)
                del inputs
                for slot in free_after[pos]:
                    env.pop(slot, None)
            logits = env[self.plan.output_slot]
            return logits.argmax(axis=1)[None, :]
        for pos in range(start, len(tail)):
            top = self.plan.ops[tail[pos]]
            if not self._stackable[top.index]:
                # Not bit-stable under batch stacking: run once per
                # variant so every call is shaped exactly like the
                # unbatched one.
                chunks = []
                for v in range(k):
                    inputs = [
                        env[s][v * n : (v + 1) * n]
                        if s in env
                        else self._golden[s]
                        for s in top.inputs
                    ]
                    chunks.append(self.plan.run_op(top, inputs))
                env[top.output] = np.concatenate(chunks, axis=0)
            elif top.kind == "add" and any(
                s not in env for s in top.inputs
            ):
                # One operand is still golden.  Tiling it K times just
                # to add would copy a full activation set; broadcasting
                # over a (k, n, ...) view adds the exact same element
                # pairs in the same order, so the result is bitwise
                # identical without the copy.  Operand order preserved.
                a_slot, b_slot = top.inputs
                if a_slot in env:
                    a = env[a_slot]
                    out = (
                        a.reshape(k, n, *a.shape[1:])
                        + self._golden[b_slot][None]
                    )
                else:
                    b = env[b_slot]
                    out = self._golden[a_slot][None] + b.reshape(
                        k, n, *b.shape[1:]
                    )
                env[top.output] = out.reshape(k * n, *out.shape[2:])
            else:
                inputs = [env[s] for s in top.inputs]
                env[top.output] = self.plan.run_op(top, inputs)
                del inputs
            for slot in free_after[pos]:
                env.pop(slot, None)
        logits = env[self.plan.output_slot]
        return logits.reshape(k, n, -1).argmax(axis=2)


def create_engine(
    model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    *,
    kind: str = "plan",
    fmt: FloatFormat = FLOAT32,
    policy: str = "accuracy_drop",
    threshold: float = 0.0,
    telemetry: Telemetry | None = None,
    batch_size: int | None = None,
    backend: Backend | None = None,
) -> FaultInjectionEngine:
    """Build a fault-classification engine of the requested *kind*.

    ``kind="plan"`` (default) returns the op-granular, batching
    :class:`PlanEngine`; ``kind="plan_vectorized"`` the certified
    variant-axis :class:`~repro.runtime.vectorized.VectorizedPlanEngine`;
    ``kind="module"`` the stage-granular reference
    :class:`repro.faults.InferenceEngine`.  Plan, vectorized and module
    engines produce bit-identical outcomes.  *backend* is the kernel
    backend instance (``None`` → the numpy reference); only the plan
    engine accepts non-reference backends — the module engine *is* the
    reference numerics and the vectorized certificates are proved
    against them.
    """
    if kind == "plan_vectorized":
        from repro.runtime.vectorized import (
            DEFAULT_VEC_BATCH_SIZE,
            VectorizedPlanEngine,
        )

        return VectorizedPlanEngine(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
            batch_size=(
                DEFAULT_VEC_BATCH_SIZE if batch_size is None else batch_size
            ),
            backend=backend,
        )
    if kind == "plan":
        return PlanEngine(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
            batch_size=DEFAULT_BATCH_SIZE if batch_size is None else batch_size,
            backend=backend,
        )
    if kind == "module":
        if batch_size not in (None, 1):
            raise ValueError("the module engine evaluates faults one at a time")
        if not resolve_backend(backend).is_reference:
            raise ValueError(
                "the module engine replays forward_fast verbatim — it is "
                "the reference numerics; use kind='plan' for non-reference "
                "backends"
            )
        return InferenceEngine(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
        )
    raise ValueError(
        f"unknown engine kind {kind!r} "
        "(expected 'plan', 'plan_vectorized' or 'module')"
    )
