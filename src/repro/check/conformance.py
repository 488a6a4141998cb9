"""Conformance suite: engine-level and per-op empirical correctness.

**Engine level** (:func:`run_conformance`): the vectorized engine's
throughput comes from *not* running kernels for rows it can certify;
its correctness claim is that the predictions it reports are
nevertheless bit-identical to the exact engine's.  That claim is
attested structurally (``check_plan_vectorized`` declares the
fingerprints compatible) — this check runs both engines over the same
campaign-representative fault sample and compares the full per-fault
prediction matrices and classified outcomes row by row.  The module
engine (bit-identical by the capture contract) rides along, so all
three engines are compared per run.

**Op level** (:func:`run_op_conformance`): the op_db registry
(:mod:`repro.check.opdb`) supplies deterministic samples per op kind;
every backend under test runs every sample under two checks —
agreement with the reference at the backend's declared tolerance
class, and falsification of claimed batch-invariance (stacked vs
separate runs must match bitwise) — and the reference runs two more:
falsification of the kernel table's channel-separability claims (one
channel run alone must bit-equal that channel of the full output) and
plan-vs-module equivalence.  A backend that mis-declares a trait, or a
kernel-table row that over-claims, fails here, which is what the
mutation tests assert.

A *flip* is any (fault, image) cell where two engines predict
different classes; an *outcome flip* is a fault whose campaign
classification differs.  The engines attest bit-exactness, so no flip
is tolerated.

``repro-check conform`` is the CLI front end; CI runs it on the mini
reference models (and ``conform --ops`` over the op_db) and fails the
build on any flip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.backends import Backend
    from repro.check.opdb import BuiltSample
    from repro.nn.module import Module
    from repro.runtime import PlanEngine


@dataclass(frozen=True)
class ConformanceReport:
    """Outcome of one vectorized-vs-exact conformance run."""

    model: str
    faults: int
    eval_size: int
    #: (fault, image) cells predicting different classes.
    prediction_flips: int
    #: Faults whose campaign outcome classification differs.
    outcome_flips: int
    #: Module-engine (fault, image) cells differing from the exact plan
    #: engine.
    module_prediction_flips: int
    #: Engines declared their fingerprints compatible (bit-exact claim).
    bit_exact_attested: bool
    #: Faults fully retired by pre-certification (no kernel work).
    precertified: int
    #: (fault, image) rows certified during seeding or the suffix walk.
    certified_rows: int
    #: Rows that ran the full suffix and were argmax-classified.
    survivor_rows: int
    ok: bool
    #: Fault indices of outcome flips (first 32).
    flipped_faults: tuple[int, ...] = field(default=())

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "faults": self.faults,
            "eval_size": self.eval_size,
            "prediction_flips": self.prediction_flips,
            "outcome_flips": self.outcome_flips,
            "module_prediction_flips": self.module_prediction_flips,
            "bit_exact_attested": self.bit_exact_attested,
            "precertified": self.precertified,
            "certified_rows": self.certified_rows,
            "survivor_rows": self.survivor_rows,
            "ok": self.ok,
            "flipped_faults": list(self.flipped_faults),
        }


def _sample_faults(engine: PlanEngine, count: int, seed: int) -> list:
    """Campaign-representative fault sample (mirrors the throughput bench).

    Layers proportional to weight count, bits uniform over all 32
    positions, both stuck-at models, masked faults excluded — the same
    population the exhaustive artifacts enumerate.
    """
    from repro.faults import Fault, FaultModel

    rng = np.random.default_rng(seed)
    layers = engine.layers
    sizes = np.array([layer.size for layer in layers], dtype=np.float64)
    weights = sizes / sizes.sum()
    models = [FaultModel.STUCK_AT_0, FaultModel.STUCK_AT_1]
    faults: list = []
    while len(faults) < count:
        layer = int(rng.choice(len(layers), p=weights))
        fault = Fault(
            layer=layer,
            index=int(rng.integers(layers[layer].size)),
            bit=int(rng.integers(0, 32)),
            model=models[int(rng.integers(2))],
        )
        if not engine.injector.is_masked(fault):
            faults.append(fault)
    return faults


def run_conformance(
    model: str | Module,
    *,
    eval_size: int = 64,
    faults: int = 128,
    seed: int = 0,
) -> ConformanceReport:
    """Compare engines fault by fault over one campaign-representative sample.

    *model* is either a model name from the registry (the pretrained
    reference checkpoint is used, training it first if absent) or an
    already-built :class:`~repro.nn.module.Module`.

    The engine under test is the vectorized engine against the exact
    plan engine, plus a module-engine bit-identity check; any flip in
    either comparison fails the report.  Both plan engines run at their
    own batch sizes, the configuration campaigns run.
    """
    # Lazy: check is imported by runtime's plan layer; the engines pull
    # in the whole runtime stack.
    from repro.data import SynthCIFAR
    from repro.faults.engine import InferenceEngine
    from repro.runtime import PlanEngine, VectorizedPlanEngine

    if isinstance(model, str):
        name = model
        from repro.models import create_model, pretrained_path
        from repro.train import train_reference_model

        if not pretrained_path(name).is_file():
            train_reference_model(name)
        model = create_model(name, pretrained=True)
    else:
        name = type(model).__name__

    data = SynthCIFAR("test", size=eval_size, seed=1234)
    exact = PlanEngine(model, data.images, data.labels)
    under_test = VectorizedPlanEngine(model, data.images, data.labels)
    from repro.check.plan import fingerprints_compatible

    attested = fingerprints_compatible(
        under_test.plan_fingerprint, exact.plan_fingerprint
    )

    sample = _sample_faults(exact, faults, seed)
    preds_exact = exact.predictions_for_faults(sample)
    preds_test = under_test.predictions_for_faults(sample)
    cells = np.asarray(preds_exact) != np.asarray(preds_test)
    prediction_flips = int(cells.sum())

    outcomes_exact = exact.classify_many(sample)
    outcomes_test = under_test.classify_many(sample)
    flipped = [
        i
        for i, (a, b) in enumerate(zip(outcomes_exact, outcomes_test))
        if a != b
    ]

    module_engine = InferenceEngine(model, data.images, data.labels)
    preds_module = np.asarray(module_engine.predictions_for_faults(sample))
    module_flips = int((preds_module != np.asarray(preds_exact)).sum())
    ok = (
        attested
        and prediction_flips == 0
        and not flipped
        and module_flips == 0
    )

    return ConformanceReport(
        model=name,
        faults=len(sample),
        eval_size=eval_size,
        prediction_flips=prediction_flips,
        outcome_flips=len(flipped),
        module_prediction_flips=module_flips,
        bit_exact_attested=attested,
        precertified=under_test.precertified,
        certified_rows=under_test.certified_rows,
        survivor_rows=under_test.survivor_rows,
        ok=ok,
        flipped_faults=tuple(flipped[:32]),
    )


# -- op-level conformance (op_db driven) -----------------------------------


#: The op-level check kinds, in report order.
OP_CHECKS = (
    "agreement",
    "batch_invariance",
    "channel_slice",
    "module_equivalence",
)


@dataclass(frozen=True)
class OpConformanceResult:
    """Verdict of one (backend, kind, sample, check) combination."""

    backend: str
    kind: str
    sample: str
    #: One of :data:`OP_CHECKS`.
    check: str
    ok: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "kind": self.kind,
            "sample": self.sample,
            "check": self.check,
            "ok": self.ok,
            "detail": self.detail,
        }


def _run_built(backend: Backend, built: BuiltSample) -> Any:
    """Execute one built op_db sample on *backend*."""
    if built.op is not None:
        return backend.run_op(built.op, built.inputs)
    if built.kind == "gemm":
        return backend.gemm(*built.inputs)
    if built.kind == "im2col":
        return backend.im2col(built.inputs[0], *built.args)
    raise ValueError(f"op_db sample kind {built.kind!r} has no runner")


def _outputs_agree(out: Any, ref_out: Any, tolerance_class: str) -> tuple[bool, str]:
    out = np.asarray(out)
    ref_out = np.asarray(ref_out)
    if out.shape != ref_out.shape:
        return False, f"shape {out.shape} != reference {ref_out.shape}"
    if tolerance_class == "bitexact":
        if np.array_equal(out, ref_out):
            return True, ""
        bad = int((out != ref_out).sum())
        return False, f"{bad} element(s) differ bitwise"
    if np.allclose(out, ref_out, rtol=1e-5, atol=1e-6):
        return True, ""
    err = float(np.max(np.abs(out - ref_out)))
    return False, f"max abs error {err:.3g} beyond relative tolerance"


def _claims_invariance(backend: Backend, built: BuiltSample) -> bool:
    if built.op is not None:
        return bool(backend.batch_invariant(built.op))
    return backend.OP_INVARIANCE[built.kind] == "always"


def _check_batch_invariance(
    backend: Backend, built: BuiltSample, rng: np.random.Generator
) -> tuple[bool, str]:
    """Falsify a claimed invariance: stacked run must bit-equal split runs.

    A second batch of fresh inputs (same shapes, same op/parameters) is
    concatenated along the batch axis; the stacked output's slices must
    be bitwise equal to the two separate runs.
    """
    alt = [
        rng.standard_normal(x.shape).astype(np.float32) for x in built.inputs
    ]
    split_a = np.asarray(_run_built(backend, built))
    alt_built = type(built)(
        kind=built.kind, op=built.op, inputs=alt, args=built.args,
        module=built.module,
    )
    split_b = np.asarray(_run_built(backend, alt_built))
    stacked_built = type(built)(
        kind=built.kind,
        op=built.op,
        inputs=[
            np.concatenate([x, a], axis=0)
            for x, a in zip(built.inputs, alt)
        ],
        args=built.args,
        module=built.module,
    )
    try:
        stacked = np.asarray(_run_built(backend, stacked_built))
    except Exception as exc:  # noqa: BLE001 — any crash falsifies the claim
        return False, (
            "claimed batch-invariant but the stacked run raised "
            f"{type(exc).__name__}: {exc}"
        )
    expected = np.concatenate([split_a, split_b], axis=0)
    if np.array_equal(stacked, expected):
        return True, ""
    bad = int((stacked != expected).sum())
    return False, (
        f"claimed batch-invariant but stacking changed {bad} element(s)"
    )


def _check_channel_slice(
    backend: Backend, built: BuiltSample, full: np.ndarray
) -> tuple[bool, str]:
    """Falsify a claimed channel separability, channel by channel.

    Each input channel *c* runs alone through
    :func:`~repro.check.kernels.run_channel`, the engines' single-channel
    replay; its output must bitwise equal the matching channel of the
    full output *full*, and changing channel *c* of the full input must
    leave every other output channel bitwise unchanged.
    """
    from repro.check.kernels import run_channel

    x = built.inputs[0]
    for c in range(x.shape[1]):
        moved = x.copy()
        moved[:, c] = np.float32(1) - np.float32(2) * x[:, c]
        try:
            out, j = run_channel(backend, built.op, x[:, c], c)
            got = np.asarray(out)
            other = np.asarray(backend.run_op(built.op, [moved]))
        except Exception as exc:  # noqa: BLE001 — any crash falsifies it
            return False, (
                f"claimed channel-separable but channel {c} alone raised "
                f"{type(exc).__name__}: {exc}"
            )
        want = full[:, j]
        if got.shape != want.shape or not np.array_equal(got, want):
            return False, (
                f"claimed channel-separable but channel {c} alone does not "
                "bit-equal that channel of the full op"
            )
        rest = np.arange(full.shape[1]) != j
        if not np.array_equal(other[:, rest], full[:, rest]):
            return False, (
                f"claimed channel-separable but changing input channel {c} "
                "moved other output channels"
            )
    return True, ""


def run_op_conformance(
    *,
    backends: list[Backend] | None = None,
    kinds: list[str] | None = None,
    seed: int = 0,
) -> list[OpConformanceResult]:
    """Run the op_db suite: every sample × every backend × every check.

    *backends* is a list of :class:`~repro.backends.Backend` instances
    under test (default: the numpy reference alone); *kinds* restricts
    the op kinds.  Returns one :class:`OpConformanceResult` per executed
    check; a mis-declared tolerance or batch-invariance class, or a
    kernel-table channel-separability claim that does not hold on the
    reference kernels, surfaces as ``ok=False`` rows.
    """
    from repro.backends import REFERENCE_BACKEND
    from repro.check.kernels import KERNEL_TABLE
    from repro.check.opdb import OP_SAMPLES

    reference = REFERENCE_BACKEND
    resolved: list[Backend] = [reference] if backends is None else backends
    selected = sorted(OP_SAMPLES) if kinds is None else [
        kind for kind in sorted(OP_SAMPLES) if kind in set(kinds)
    ]

    results: list[OpConformanceResult] = []
    for ki, kind in enumerate(selected):
        for si, sample in enumerate(OP_SAMPLES[kind]):
            built = sample.build(np.random.default_rng((seed, ki, si)))
            ref_out = _run_built(reference, built)
            if built.module is not None:
                ok = bool(
                    np.array_equal(
                        np.asarray(ref_out),
                        built.module.forward_fast(built.inputs[0]),
                    )
                )
                results.append(
                    OpConformanceResult(
                        backend=reference.name,
                        kind=kind,
                        sample=sample.name,
                        check="module_equivalence",
                        ok=ok,
                        detail=""
                        if ok
                        else "plan kernel != module forward_fast bitwise",
                    )
                )
            if built.op is not None and KERNEL_TABLE[kind].channel_separable(
                built.op
            ):
                ok, detail = _check_channel_slice(
                    reference, built, np.asarray(ref_out)
                )
                results.append(
                    OpConformanceResult(
                        backend=reference.name,
                        kind=kind,
                        sample=sample.name,
                        check="channel_slice",
                        ok=ok,
                        detail=detail,
                    )
                )
            for backend in resolved:
                out = _run_built(backend, built)
                ok, detail = _outputs_agree(
                    out, ref_out, backend.tolerance(kind)
                )
                results.append(
                    OpConformanceResult(
                        backend=backend.name,
                        kind=kind,
                        sample=sample.name,
                        check="agreement",
                        ok=ok,
                        detail=detail,
                    )
                )
                if _claims_invariance(backend, built):
                    ok, detail = _check_batch_invariance(
                        backend,
                        built,
                        np.random.default_rng((seed + 1, ki, si)),
                    )
                    results.append(
                        OpConformanceResult(
                            backend=backend.name,
                            kind=kind,
                            sample=sample.name,
                            check="batch_invariance",
                            ok=ok,
                            detail=detail,
                        )
                    )
    return results
