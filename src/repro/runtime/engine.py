"""The plan engine: op-granular prefix caching and batched fault evaluation.

:class:`PlanEngine` classifies weight faults exactly like
:class:`repro.faults.InferenceEngine` — same injector, same policies,
bit-identical outcomes — but executes a captured
:class:`~repro.runtime.ExecutionPlan` instead of walking the module tree.
Every fault batch runs one pipeline, which the vectorized engine reuses:

- **Op-granular prefix caching.**  The golden pass keeps every op's
  output.  A fault in layer *l* re-executes only *l*'s op and the ops
  transitively downstream of it (``plan.affected_ops``); every other op
  is served from the cache.  The module engine's stage-granular cache
  re-runs a whole residual block even when only its second conv is hit.
- **One seeding path.**  A weight fault in a conv or linear layer
  perturbs exactly one output channel; every other channel of the
  faulty output is bit-identical to the golden one.  For ``linear`` and
  ungrouped convs the K same-layer faults' corrupted weight rows share
  one GEMM against the layer's *cached golden im2col columns* (GEMM rows
  are computed independently — asserted by the test suite on this
  BLAS).  A depthwise-conv fault runs the reference kernel on its one
  golden input channel with the corrupted 1 x k x k kernel.  Each dirty
  channel is then replayed alone through the single-consumer chain of
  channel-separable ops after the fault op (bn, relu, relu6, subsample,
  channel padding and depthwise convs, as the kernel table claims and
  op_db falsifies) and patched into a golden copy of the chain-end
  activation.  Other grouped convs, and every op on a non-reference
  backend, seed from the full faulty op instead.
- **One exact dense tail.**  From its seed, each variant runs the
  remaining affected ops one at a time at the full eval batch, golden
  activations standing in for operands the fault never reached.  Every
  call is shaped exactly like ``forward_fast``'s, so no kernel's batch
  invariance is relied on, and only one variant's seeded activations
  are alive at a time.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backends import Backend, resolve_backend
from repro.faults.engine import FaultInjectionEngine, InferenceEngine
from repro.faults.model import Fault
from repro.ieee754 import FLOAT32, FloatFormat
from repro.nn import Module
from repro.runtime.plan import OpSpec, capture_plan
from repro.telemetry import Telemetry
from repro.tensor.im2col import conv_output_size


def _channel_separable(op: OpSpec) -> bool:
    """The kernel table's claim that *op* may run one channel alone."""
    # Lazy: repro.check reasons about runtime.
    from repro.check.kernels import KERNEL_TABLE

    return bool(KERNEL_TABLE[op.kind].channel_separable(op))


class PlanEngine(FaultInjectionEngine):
    """Fault classification over a captured execution plan.

    Parameters mirror :class:`repro.faults.InferenceEngine`, plus:

    backend:
        Kernel backend instance (None → the numpy reference).
        Non-reference backends seed every fault from the full faulty op
        (the row-GEMM seeding is stated against reference BLAS row
        identities) and carry a backend-qualified plan fingerprint.
    """

    kind = "plan"
    #: Same-layer faults per tail pass: their corrupted weight rows
    #: share one GEMM; the dense tail runs one variant at a time.
    batch_size = 16

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
        backend: Backend | None = None,
    ) -> None:
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
        self._free_schedule: dict[int, list[list[int]]] = {}
        self._chain_cache: dict[int, list[OpSpec]] = {}
        # Golden im2col columns of the active fault layer (single entry:
        # campaigns sweep faults layer by layer, so one layer is hot).
        self._cols_cache: tuple[int, np.ndarray, int, int] | None = None
        #: Tail passes executed (each covers up to batch_size faults).
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
        tail passes of up to :attr:`batch_size` faults each."""
        if not faults:
            return np.empty((0, len(self.images)), dtype=np.int64)
        if self.telemetry.enabled:
            with self.telemetry.span("engine.inference"):
                return self._predictions_for_faults(faults)
        return self._predictions_for_faults(faults)

    def _predictions_for_faults(self, faults: Sequence[Fault]) -> np.ndarray:
        # The one place faults are grouped: per layer, so consecutive
        # batches reuse the layer's cached im2col columns, and cut into
        # batch_size chunks.  Rows land back at their input positions.
        by_layer: dict[int, list[int]] = {}
        for pos, fault in enumerate(faults):
            by_layer.setdefault(fault.layer, []).append(pos)
        preds = np.empty((len(faults), len(self.images)), dtype=np.intp)
        for layer_idx, positions in by_layer.items():
            for start in range(0, len(positions), self.batch_size):
                chunk = positions[start : start + self.batch_size]
                preds[chunk] = self._run_batch(
                    layer_idx, [faults[p] for p in chunk]
                )
        return preds

    # -- fault seeding -------------------------------------------------------

    def _row_separable(self, op: OpSpec) -> bool:
        """Whether a fault in *op* can be seeded from its one dirty channel.

        True on the reference backend, whose kernels the seeding is
        stated against, for ``linear`` and ungrouped ``conv2d`` (one
        corrupted GEMM row) and for depthwise convs (the kernel on one
        input channel, bitwise by the channel-separability claim).
        Other grouped convs and every op on a non-reference backend run
        the full faulty op instead.
        """
        return self.backend.is_reference and (
            op.kind == "linear"
            or (
                op.kind == "conv2d"
                and (op.module.groups == 1 or _channel_separable(op))
            )
        )

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
        """Faulty values of each fault's dirty channel.

        Returns ``(chans, rows)`` where ``chans[v]`` is variant *v*'s
        output channel and ``rows`` stacks the channels' faulty
        activations as ``(N, K, oh, ow)`` (conv) or ``(N, K)`` (linear).
        Each result row is bit-identical to the corresponding row of the
        full faulty op output.  Depthwise layers run each fault's
        corrupted kernel on its one golden input channel
        (:func:`~repro.check.kernels.run_channel`).  Row-GEMM layers
        compute all K in one GEMM: GEMM rows are independent, and stacked
        row GEMMs with M >= 2 reproduce the full GEMM's rows exactly (a
        single row is duplicated to M = 2 for the same reason).
        """
        from repro.check.kernels import is_depthwise, run_channel

        m = op.module
        k = len(faults)
        weight = m.weight.data
        per_row = weight.size // weight.shape[0]
        chans = np.array([f.index // per_row for f in faults])
        if op.kind == "conv2d" and is_depthwise(m):
            x = self._golden[op.inputs[0]]
            golden_out = self._golden[op.output]
            out = np.empty(
                (len(golden_out), k, *golden_out.shape[2:]), dtype=np.float32
            )
            for v, fault in enumerate(faults):
                c = int(chans[v])
                with self.injector.inject(fault):
                    out[:, v] = run_channel(self.backend, op, x[:, c], c)[0]
            return chans, out
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

    def _preserve_chain(self, op_index: int) -> list[OpSpec]:
        """Longest single-consumer channel-separable chain after an op.

        While the fault's effect stays confined to one channel, bn /
        relu / subsample / pad / depthwise conv can be replayed on that
        channel alone — bitwise equal to the full op at a fraction of
        the cost — before the first channel-mixing op forces dense
        execution.
        """
        chain = self._chain_cache.get(op_index)
        if chain is None:
            chain = []
            slot = self.plan.ops[op_index].output
            while True:
                cons = self.plan.consumers(slot)
                if len(cons) != 1:
                    break
                t = cons[0]
                if len(t.inputs) != 1 or not _channel_separable(t):
                    break
                chain.append(t)
                slot = t.output
            self._chain_cache[op_index] = chain
        return chain

    def _faulty_output(self, op: OpSpec, fault: Fault) -> np.ndarray:
        """*fault*'s op output on golden inputs: the full faulty op."""
        with self.injector.inject(fault):
            return self.plan.run_op(op, [self._golden[s] for s in op.inputs])

    # -- fault-batch execution ---------------------------------------------

    def _run_batch(self, layer_idx: int, faults: Sequence[Fault]) -> np.ndarray:
        """One tail pass over K faults of one layer -> (K, N) preds."""
        op_index = self._layer_op[layer_idx]
        op = self.plan.ops[op_index]
        k = len(faults)
        tail = self.plan.affected_ops(op_index)
        preds = np.empty((k, len(self.images)), dtype=np.intp)
        # Corrupted weights legitimately overflow to inf/NaN; only the
        # argmax matters, so silence the warnings wholesale.
        with np.errstate(all="ignore"):
            if self._row_separable(op):
                from repro.check.kernels import run_channel

                chans, rows = self._variant_rows(op, faults)
                chain = self._preserve_chain(op_index) if rows.ndim > 2 else []
                end = chain[-1] if chain else op
                for v in range(k):
                    val, c = rows[:, v], int(chans[v])
                    for t in chain:
                        val, c = run_channel(self.backend, t, val, c)
                    # Every other channel of the true faulty activation
                    # is bit-equal to golden: copy-and-patch is exact.
                    seed = self._golden[end.output].copy()
                    seed[:, c] = val
                    preds[v] = self._dense_tail(end.index, seed)
            else:
                for v, fault in enumerate(faults):
                    seed = self._faulty_output(op, fault)
                    preds[v] = self._dense_tail(op_index, seed)
        self.tail_passes += 1
        self.ops_executed += len(tail)
        self.ops_cached += len(self.plan.ops) - 1 - len(tail)
        self.inference_count += k
        if self.telemetry.enabled:
            self.telemetry.counter("engine.inferences").add(k)
        return preds

    def _dense_tail(self, op_index: int, seed: np.ndarray) -> np.ndarray:
        """Run op *op_index*'s tail from its seeded output -> (N,) preds.

        Each tail op runs once at the full eval batch, golden arrays
        standing in for the operands the fault never reached, so every
        call is shaped exactly like ``forward_fast``'s.
        """
        env = {self.plan.ops[op_index].output: seed}
        free_after = self._tail_free_schedule(op_index)
        for pos, t_index in enumerate(self.plan.affected_ops(op_index)):
            t = self.plan.ops[t_index]
            inputs = [
                env[s] if s in env else self._golden[s] for s in t.inputs
            ]
            env[t.output] = self.plan.run_op(t, inputs)
            del inputs
            for slot in free_after[pos]:
                env.pop(slot, None)
        return env[self.plan.output_slot].argmax(axis=1)


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
        from repro.runtime.vectorized import VectorizedPlanEngine

        return VectorizedPlanEngine(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
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
            backend=backend,
        )
    if kind == "module":
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
