"""Variant-axis vectorized fault evaluation with no-flip certification.

The exact engines spend almost all campaign wall-clock re-running the
faulted suffix densely, once per fault variant — even though ~97% of
non-masked faults end up predicting exactly the golden labels.  This
module exploits that: instead of *computing* every faulty activation, it
*certifies* — per fault and per image — that the fault cannot flip the
top-1 prediction, and only runs kernels for the rows that survive.

The certificate is a sound channelwise delta bound propagated through
the suffix by the absorption calculus the verifier owns
(:func:`repro.check.kernels.absorption_spec`).  Two chains run in
parallel — per-channel **max** and per-channel **mean** of ``|delta|``
over spatial positions — because after relu gating the deltas are
spiky, so the mean chain (which ``global_avg_pool2d`` maps straight
onto the logits) is often orders of magnitude sharper than the max
chain; the final bound is the minimum of the two.  A fault is certified
for an image when ``(bound_j + bound_gp) * slack`` stays below the
golden logit margin for every class *j*: the prediction provably cannot
move, so the row inherits the golden prediction without any kernel
work.

Execution pipeline per batch of K same-layer faults:

0. **Pre-certification** — a bound from the corrupted weight delta and
   the golden input channel statistics alone.  No kernels at all; on
   the campaign-representative mix this retires the majority of faults.
1. **Exact dirty rows + chain propagation** — surviving variants'
   faulted output channels via one stacked row-GEMM
   (:meth:`PlanEngine._variant_rows`, bit-identical to the dense op's
   rows), re-certified against the now exact channel delta; then the
   dirty channel is replayed bitwise through any single-consumer chain
   of channel-preserving ops (bn / relu / relu6 / subsample / pad) and
   re-certified once more at the chain's end — post-relu gating is by
   far the strongest pruner.
2. **Dense continuation** — a variant still alive on most of the eval
   batch after seeding has nothing left to prune.  Its surviving seed
   rows are scattered into a golden copy of the start slot and it
   continues through :meth:`PlanEngine._dense_tail` (the exact engine's
   contiguous, certification-free tail), which is faster per row once
   certification can no longer win.  Surviving rows take the tail's
   predictions; certified rows keep the golden one.
3. **Stacked suffix walk** — the remaining (variant, image) rows are
   lifted into one leading variant axis and the suffix runs as stacked
   im2col + one big GEMM per op, re-certifying and compacting rows at a
   stride.  A per-op memory budget (im2col-expansion aware) cache-blocks
   the stacked workspace; batch-invariant kernels are bit-stable under
   both the stacking and the blocking.
4. **Exact fallback** — ops the verifier does *not* mark
   batch-invariant (the final 2-D GEMM, depthwise/grouped einsum convs)
   run once per variant at the full eval batch, exactly shaped like the
   exact engine's call.  GEMM and einsum output rows depend only on
   their own input row, so the surviving rows come out bit-identical.

Certified rows provably keep golden predictions; surviving rows run
through bit-stable kernels at exact-engine shapes — so the predictions
matrix is bit-identical to :class:`PlanEngine`'s, which is what lets
:func:`repro.check.check_plan_vectorized` declare the vectorized
fingerprint compatible with the exact one for checkpoint and
distributed-merge purposes.  The certification arithmetic runs in
float64 with a multiplicative slack so its own rounding stays far below
the margins it compares against; non-finite bounds (saturating faults)
never certify and always take the exact path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.backends import Backend, resolve_backend
from repro.faults.model import Fault
from repro.ieee754 import FLOAT32, FloatFormat
from repro.nn import functional as F
from repro.nn.module import Module
from repro.runtime.engine import PlanEngine
from repro.runtime.plan import OpSpec
from repro.telemetry import Telemetry

#: Per-op byte budget for the stacked suffix workspace; stacked rows
#: beyond it are executed in row blocks so the per-op working set stays
#: cache-sized (bit-identical: blocking only splits the batch axis of
#: batch-invariant kernels).
_OP_BUDGET = 4 * 1024 * 1024

#: Multiplicative slack on every certification bound: keeps the float64
#: bound arithmetic's own rounding from certifying a borderline fault
#: the float32 kernels would flip.
CERT_SLACK = 1.001

#: Re-certify the stacked rows every this many tail ops.  Recomputing
#: the delta statistics costs about as much as a small op, so per-op
#: certification would double the walk; pruning is purely a perf
#: optimisation (certified rows are bit-exact and argmax to the golden
#: prediction anyway), so a stride trades a little extra kernel work
#: for far less bound arithmetic.
CERT_STRIDE = 3

#: Skip certification below this many stacked rows — running a small
#: tail to completion is cheaper than trying to prune it.
CERT_MIN_ROWS = 48

#: A seeded variant still alive on more than ``n // DENSE_ALIVE_DIV``
#: images continues on the exact engine's dense tail instead of the
#: certified walk — with most rows alive there is nothing to prune, and
#: the dense path's contiguous, certification-free kernels are faster
#: per row.
DENSE_ALIVE_DIV = 6

#: Default same-layer faults per batch.  Much larger than the exact
#: engine's: the certified walk's cost scales with surviving rows, not
#: K, so a big variant axis amortises the per-op call overhead that
#: dominates at this model scale.
DEFAULT_VEC_BATCH_SIZE = 256


class VectorizedPlanEngine(PlanEngine):
    """Certified variant-axis vectorized execution over a captured plan.

    Parameters mirror :class:`PlanEngine`.  Outcomes are bit-identical
    to the plan and module engines; the engine runs under distinct
    plan/engine fingerprints that :func:`repro.check.check_plan_vectorized`
    declares compatible with its exact twins.
    """

    kind = "plan_vectorized"

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
        batch_size: int = DEFAULT_VEC_BATCH_SIZE,
        backend: Backend | None = None,
    ) -> None:
        resolved = resolve_backend(backend)
        if not resolved.is_reference:
            raise ValueError(
                "the vectorized engine's no-flip certificates and dirty-row "
                f"replay are proved against the reference numerics; backend "
                f"{resolved.name!r} is not the reference (use kind='plan')"
            )
        super().__init__(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
            batch_size=batch_size,
            backend=resolved,
        )
        # Lazy: repro.check reasons about runtime; runtime must not
        # import it at module load.
        from repro.check import (
            check_plan_vectorized,
            declare_fingerprints_compatible,
        )

        #: Mode-qualified structural fingerprint.  check_plan_vectorized
        #: also declares it compatible with the exact plan fingerprint.
        self.plan_fingerprint = check_plan_vectorized(self.plan)
        # Engine-level (golden weights + images) identity: attested
        # bit-identical to the exact twins, so checkpoints/merges may
        # mix them — an explicit declaration, never an implicit pass.
        own = self.fingerprint()
        declare_fingerprints_compatible(own, self.fingerprint(kind="plan"))
        declare_fingerprints_compatible(own, self.fingerprint(kind="module"))

        n = len(self.images)
        logits = self._golden[self.plan.output_slot].astype(np.float64)
        margin = logits[np.arange(n), self.golden_predictions][:, None] - logits
        margin[np.arange(n), self.golden_predictions] = np.inf
        #: Per-image logit margin to every class (inf at the golden class).
        self._margin = margin
        self._num_classes = logits.shape[1]
        self._gamma_cache: dict[int, tuple[dict, dict]] = {}
        self._stats_cache: tuple[int, np.ndarray, np.ndarray] | None = None

        #: Faults fully retired by pre-certification (no kernel work).
        self.precertified = 0
        #: (variant, image) rows certified during seeding or the walk.
        self.certified_rows = 0
        #: Rows that reached the plan output and were argmax-classified.
        self.survivor_rows = 0
        #: Stacked op executions split by the per-op memory budget.
        self.vec_blocks = 0
        #: Non-batch-invariant ops replayed per variant at full batch.
        self.full_batch_ops = 0
        #: Mostly-alive variants continued on the exact dense tail.
        self.dense_fallback_faults = 0

    # -- certification machinery -------------------------------------------

    def _absorb(self, op: OpSpec, mean: bool):
        from repro.check.kernels import absorption_spec

        x_in = self._golden[op.inputs[0]]
        x_out = self._golden[op.output]
        in_pos = int(np.prod(x_in.shape[2:])) if x_in.ndim > 2 else 1
        out_pos = int(np.prod(x_out.shape[2:])) if x_out.ndim > 2 else 1
        return absorption_spec(
            op,
            mean=mean,
            in_positions=in_pos,
            out_positions=out_pos,
            input_rank=x_in.ndim - 1,
        )

    def _slot_width(self, slot: int) -> int:
        arr = self._golden[slot]
        return arr.shape[1] if arr.ndim > 1 else arr.shape[0]

    def _gammas(self, op_index: int) -> tuple[dict, dict]:
        """Suffix absorption tables after op *op_index* has executed.

        For each chain (max, mean) a ``{slot: (classes, width)}`` float64
        matrix ``G`` such that ``|logit delta| <= sum_slots G[s] @ b_s``
        for channelwise delta bounds ``b_s`` of the dirty slots — built
        by reverse accumulation of per-op absorption specs; ``add`` ops
        accumulate into both operands, ops with no absorption row
        contribute an infinite column (rows never certify through them).
        """
        cached = self._gamma_cache.get(op_index)
        if cached is not None:
            return cached
        eye = np.eye(self._num_classes, dtype=np.float64)
        out_slot = self.plan.output_slot
        tables = (
            {out_slot: eye},
            {out_slot: eye.copy()},
        )
        for op in reversed(self.plan.ops):
            if op.index <= op_index:
                break
            for table, mean in zip(tables, (False, True)):
                g_out = table.get(op.output)
                if g_out is None:
                    continue
                if op.kind == "add":
                    for slot in op.inputs:
                        prev = table.get(slot)
                        table[slot] = g_out if prev is None else prev + g_out
                    continue
                spec = self._absorb(op, mean)
                if spec is None:
                    contrib = np.full(
                        (self._num_classes, self._slot_width(op.inputs[0])),
                        np.inf,
                    )
                elif spec[0] == "mat":
                    contrib = g_out @ spec[1]
                elif spec[0] == "diag":
                    contrib = g_out * spec[1][None, :]
                elif spec[0] == "scale":
                    contrib = g_out * spec[1]
                elif spec[0] == "pad":
                    before, after = spec[1], spec[2]
                    end = g_out.shape[1] - after if after else None
                    contrib = g_out[:, before:end]
                else:  # "id"
                    contrib = g_out
                slot = op.inputs[0]
                prev = table.get(slot)
                table[slot] = contrib if prev is None else prev + contrib
        self._gamma_cache[op_index] = tables
        return tables

    def _certified(
        self, bound: np.ndarray, img: np.ndarray | None
    ) -> np.ndarray:
        """Rows whose prediction provably cannot flip.

        ``bound`` is the per-row, per-class logit delta bound; a flip to
        class *j* needs the delta of ``logit_j - logit_gp`` to exceed
        the golden margin, and that delta is at most ``bound_j +
        bound_gp``.  Non-finite bounds (saturating faults) never
        certify.
        """
        gp = self.golden_predictions if img is None else self.golden_predictions[img]
        margin = self._margin if img is None else self._margin[img]
        bt = bound[np.arange(len(bound)), gp]
        tot = (bound + bt[:, None]) * CERT_SLACK
        return (tot < margin).all(axis=1) & np.isfinite(tot).all(axis=1)

    def _input_stats(self, op: OpSpec) -> tuple[np.ndarray, np.ndarray]:
        """Golden (max, mean) |input| channel stats (single-entry cache)."""
        cached = self._stats_cache
        if cached is not None and cached[0] == op.index:
            return cached[1], cached[2]
        maxabs, meanabs = F.channel_abs_stats(self._golden[op.inputs[0]])
        self._stats_cache = (op.index, maxabs, meanabs)
        return maxabs, meanabs

    def _precertify(
        self,
        op: OpSpec,
        fault: Fault,
        gcol_max: np.ndarray,
        gcol_mean: np.ndarray,
    ) -> np.ndarray:
        """Alive-image mask from the weight delta alone (no kernels).

        A single corrupted weight perturbs one output channel; its delta
        at any output position is the weight delta times one golden
        input value of the weight's input channel, so the golden input's
        per-image channel statistics bound the whole fault effect.
        """
        golden_val, faulty = self.injector.faulty_value(fault)
        dw = abs(faulty - golden_val)
        idx = np.unravel_index(fault.index, op.module.weight.data.shape)
        och, ic = int(idx[0]), int(idx[1])
        if op.kind == "linear":
            x = self._golden[op.inputs[0]]
            b0max = b0mean = dw * np.abs(x[:, ic]).astype(np.float64)
        else:
            maxabs, meanabs = self._input_stats(op)
            x_in = self._golden[op.inputs[0]]
            x_out = self._golden[op.output]
            pos_ratio = (x_in.shape[2] * x_in.shape[3]) / (
                x_out.shape[2] * x_out.shape[3]
            )
            b0max = dw * maxabs[:, ic]
            b0mean = dw * meanabs[:, ic] * pos_ratio
        bound = np.minimum(
            np.outer(b0max, gcol_max[:, och]),
            np.outer(b0mean, gcol_mean[:, och]),
        )
        return ~self._certified(bound, None)

    # -- fault-batch execution ---------------------------------------------

    def _run_batch(
        self, layer_idx: int, faults: Sequence[Fault]
    ) -> np.ndarray:
        op_index = self._layer_op[layer_idx]
        op = self.plan.ops[op_index]
        k = len(faults)
        tail = self.plan.affected_ops(op_index)
        preds = np.tile(self.golden_predictions, (k, 1))
        with np.errstate(all="ignore"):
            gmax, gmean = self._gammas(op_index)
            gcol_max, gcol_mean = gmax[op.output], gmean[op.output]
            row_separable = self._row_separable(op)
            survivors: list[tuple[int, Fault, np.ndarray]] = []
            for v, fault in enumerate(faults):
                if row_separable:
                    alive = self._precertify(op, fault, gcol_max, gcol_mean)
                else:
                    alive = np.ones(len(self.images), dtype=bool)
                if alive.any():
                    survivors.append((v, fault, alive))
                else:
                    self.precertified += 1
            if survivors:
                seeding = (
                    self._seed_sparse if row_separable else self._seed_dense
                )
                img, var, start, start_idx = seeding(
                    op, survivors, gcol_max, gcol_mean
                )
                img, var, start = self._continue_dense(
                    start_idx, img, var, start, preds
                )
                self._walk(
                    start_idx,
                    self.plan.affected_ops(start_idx),
                    img,
                    var,
                    start,
                    preds,
                )
        self.tail_passes += 1
        self.ops_executed += len(tail) if survivors else 0
        self.ops_cached += len(self.plan.ops) - 1 - len(tail)
        self.inference_count += k
        if self.telemetry.enabled:
            self.telemetry.counter("engine.inferences").add(k)
            self.telemetry.counter("engine.precertified").add(
                k - len(survivors)
            )
        return preds

    def _continue_dense(
        self,
        start_idx: int,
        img: np.ndarray,
        var: np.ndarray,
        start: np.ndarray,
        preds: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Finish mostly-alive variants on the exact dense tail.

        Each such variant runs :meth:`PlanEngine._dense_tail` from a
        golden copy of the start slot with its surviving seed rows
        scattered in.  Every tail kernel computes an output row from its
        own input row only, so the surviving rows come out exactly as in
        the exact engine; the certified rows' golden stand-ins never
        enter their arithmetic and keep the golden prediction.  Returns
        the rows left for the certified walk.
        """
        counts = np.bincount(var, minlength=len(preds))
        dense = np.nonzero(counts > len(self.images) // DENSE_ALIVE_DIV)[0]
        if dense.size == 0:
            return img, var, start
        golden = self._golden[self.plan.ops[start_idx].output]
        for v in dense:
            sel = var == v
            rows = img[sel]
            seed = golden.copy()
            seed[rows] = start[sel]
            preds[v, rows] = self._dense_tail(start_idx, seed)[rows]
        self.dense_fallback_faults += int(dense.size)
        keep = ~np.isin(var, dense)
        return img[keep], var[keep], start[keep]

    def _seed_sparse(
        self,
        op: OpSpec,
        survivors: list[tuple[int, Fault, np.ndarray]],
        gcol_max: np.ndarray,
        gcol_mean: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Exact dirty rows for the surviving variants, re-certified.

        One stacked row-GEMM computes every variant's faulted output
        channel bit-exactly and the exact channel delta re-certifies.
        Surviving rows are then replayed — still single-channel, still
        bit-exact — through the channel-preserving chain (bn gains,
        relu gating) and certified once more where the sharpened delta
        retires most of what the weight-level bound could not.  What
        remains is materialised as golden copies of the chain-end slot
        with the dirty channel patched (bit-equal to dense execution:
        row GEMMs are independent, other channels never change).
        """
        chans, rows = self._variant_rows(op, [f for _, f, _ in survivors])
        golden_out = self._golden[op.output]
        chain = self._preserve_chain(op.index) if rows.ndim > 2 else []
        start_op = chain[-1] if chain else op
        if chain:
            end_gmax, end_gmean = self._gammas(start_op.index)
            ecol_max = end_gmax[start_op.output]
            ecol_mean = end_gmean[start_op.output]
            end_golden = self._golden[start_op.output]
        imgs, vars_, patches = [], [], []
        for j, (v, _fault, alive) in enumerate(survivors):
            delta = rows[:, j] - golden_out[:, chans[j]]
            if delta.ndim > 1:
                d64 = np.abs(delta).astype(np.float64)
                axes = tuple(range(1, delta.ndim))
                bmax, bmean = d64.max(axis=axes), d64.mean(axis=axes)
            else:
                bmax = bmean = np.abs(delta).astype(np.float64)
            bound = np.minimum(
                np.outer(bmax, gcol_max[:, chans[j]]),
                np.outer(bmean, gcol_mean[:, chans[j]]),
            )
            keep = alive & ~self._certified(bound, None)
            idx = np.nonzero(keep)[0]
            if idx.size and chain:
                val, c = rows[idx, j], int(chans[j])
                for t in chain:
                    val, c = self._apply_channel(t, val, c)
                d = np.abs(val - end_golden[idx, c])
                bound = np.minimum(
                    np.outer(
                        d.max(axis=(1, 2)).astype(np.float64),
                        ecol_max[:, c],
                    ),
                    np.outer(
                        d.mean(axis=(1, 2), dtype=np.float64),
                        ecol_mean[:, c],
                    ),
                )
                still = ~self._certified(bound, idx)
                idx, val = idx[still], val[still]
            elif idx.size:
                val, c = rows[idx, j], int(chans[j])
            self.certified_rows += int(alive.sum() - idx.size)
            if idx.size:
                imgs.append(idx)
                vars_.append(np.full(idx.size, v, dtype=np.int64))
                patches.append((c, val))
        start_shape = self._golden[start_op.output].shape[1:]
        if not imgs:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                np.empty((0,) + start_shape, np.float32),
                start_op.index,
            )
        img = np.concatenate(imgs)
        var = np.concatenate(vars_)
        start = self._golden[start_op.output][img].copy()
        offset = 0
        for c, val in patches:
            start[offset : offset + len(val), c] = val
            offset += len(val)
        return img, var, start, start_op.index

    def _seed_dense(
        self,
        op: OpSpec,
        survivors: list[tuple[int, Fault, np.ndarray]],
        gcol_max: np.ndarray,
        gcol_mean: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Full faulted op per variant (grouped/depthwise convs).

        These kernels are not row-separable, so the faulted op runs
        exactly as the exact engine would — full batch, full channels —
        and certification starts from the complete output delta.
        """
        golden_out = self._golden[op.output]
        imgs, vars_, parts = [], [], []
        for v, fault, alive in survivors:
            out = self._faulty_output(op, fault)
            bmax, bmean = F.channel_abs_stats(out - golden_out)
            bound = np.minimum(bmax @ gcol_max.T, bmean @ gcol_mean.T)
            keep = alive & ~self._certified(bound, None)
            idx = np.nonzero(keep)[0]
            self.certified_rows += int(alive.sum() - idx.size)
            if idx.size:
                imgs.append(idx)
                vars_.append(np.full(idx.size, v, dtype=np.int64))
                parts.append(out[idx])
        if not imgs:
            empty = np.empty(0, dtype=np.int64)
            return (
                empty,
                empty,
                np.empty((0,) + golden_out.shape[1:], np.float32),
                op.index,
            )
        return (
            np.concatenate(imgs),
            np.concatenate(vars_),
            np.concatenate(parts, axis=0),
            op.index,
        )

    def _walk(
        self,
        op_index: int,
        tail: tuple[int, ...],
        img: np.ndarray,
        var: np.ndarray,
        start: np.ndarray,
        preds: np.ndarray,
    ) -> None:
        """Stacked suffix walk with per-op re-certification + compaction."""
        if img.size == 0:
            return
        env: dict[int, np.ndarray] = {self.plan.ops[op_index].output: start}
        free_after = self._tail_free_schedule(op_index)
        last = len(tail) - 1
        for pos, t_index in enumerate(tail):
            t = self.plan.ops[t_index]
            if t.batch_invariant:
                env[t.output] = self._run_stacked(t, env, img)
            else:
                env[t.output] = self._run_full_batch(t, env, img, var)
                self.full_batch_ops += 1
            for slot in free_after[pos]:
                env.pop(slot, None)
            # Certifying at the last op is pointless (argmax is cheaper)
            # and pruning small row counts costs more than it saves.
            if (
                pos == last
                or img.size < CERT_MIN_ROWS
                or pos % CERT_STRIDE != CERT_STRIDE - 1
            ):
                continue
            keep = self._certify_rows(t_index, env, img)
            if not keep.all():
                self.certified_rows += int((~keep).sum())
                img, var = img[keep], var[keep]
                env = {s: a[keep] for s, a in env.items()}
                if img.size == 0:
                    return
        logits = env[self.plan.output_slot]
        preds[var, img] = logits.argmax(axis=1)
        self.survivor_rows += img.size

    def _certify_rows(
        self, t_index: int, env: dict[int, np.ndarray], img: np.ndarray
    ) -> np.ndarray:
        """Keep-mask over the stacked rows after op *t_index* ran."""
        gmax, gmean = self._gammas(t_index)
        m = img.size
        bmax = np.zeros((m, self._num_classes))
        bmean = np.zeros((m, self._num_classes))
        contributed = False
        for slot, arr in env.items():
            g = gmax.get(slot)
            if g is None:
                continue  # the slot's delta can no longer reach the output
            b1, b2 = F.channel_abs_stats(arr - self._golden[slot][img])
            bmax += b1 @ g.T
            bmean += b2 @ gmean[slot].T
            contributed = True
        if not contributed:
            return np.zeros(m, dtype=bool)
        return ~self._certified(np.minimum(bmax, bmean), img)

    def _run_stacked(
        self, t: OpSpec, env: dict[int, np.ndarray], img: np.ndarray
    ) -> np.ndarray:
        """Batch-invariant op over the stacked rows, budget-blocked.

        Golden operands are gathered per row; blocking splits only the
        batch axis, which batch-invariant kernels are bit-stable under.
        """
        inputs = [
            env[s] if s in env else self._golden[s][img] for s in t.inputs
        ]
        m = img.size
        row_bytes = sum(a.nbytes for a in inputs) // max(m, 1)
        if t.kind == "conv2d":
            # The im2col workspace expands the input kh*kw-fold; size
            # the block for the materialised columns, not the input —
            # a block that overflows cache triples the per-row cost.
            kh, kw = t.module.weight.data.shape[2:]
            if kh * kw > 1:
                row_bytes *= 1 + kh * kw
        block = max(1, _OP_BUDGET // max(row_bytes, 1))
        if m <= block:
            return self.plan.run_op(t, inputs)
        self.vec_blocks += -(-m // block)
        parts = [
            self.plan.run_op(t, [a[lo : lo + block] for a in inputs])
            for lo in range(0, m, block)
        ]
        return np.concatenate(parts, axis=0)

    def _run_full_batch(
        self,
        t: OpSpec,
        env: dict[int, np.ndarray],
        img: np.ndarray,
        var: np.ndarray,
    ) -> np.ndarray:
        """Non-batch-invariant op: one full-batch call per variant.

        The call is shaped exactly like the exact engine's (full eval
        batch), with golden rows standing in for already-certified
        images.  2-D GEMM and einsum outputs are computed row-by-row
        from their own input row only, so the gathered surviving rows
        are bit-identical to the exact engine's — the stand-in values
        never enter their arithmetic.
        """
        outs = []
        for v in np.unique(var):
            sel = var == v
            idx = img[sel]
            inputs = []
            for s in t.inputs:
                if s in env:
                    full = self._golden[s].copy()
                    full[idx] = env[s][sel]
                else:
                    full = self._golden[s]
                inputs.append(full)
            out = self.plan.run_op(t, inputs)
            outs.append(out[idx])
        return np.concatenate(outs, axis=0)
