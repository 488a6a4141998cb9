"""Span wrappers around the public entry points of each layer.

:func:`install` replaces each boundary with a wrapper that records a
span on a :class:`~spans.Tracer` and then calls the original.  It patches
the names callers actually resolve: class attributes (an engine method
is looked up on its class at call time) and every ``repro`` module
attribute bound to a wrapped function (``from x import f`` copies the
binding into the importing module, so each copy is replaced).  Only the
traced run imports this module (which loads every layer it wraps, so the
set-up span of imports covers them) and calls :func:`install`; the
untraced run never imports it.

GEMM and convolution flops and operand bytes are *computed* from the
operand shapes at the boundary, not measured.
"""

from __future__ import annotations

import functools
import os
import sys

import repro.check.plan
import repro.faults.table
import repro.models.registry
import repro.runtime.engine
import repro.runtime.plan
import repro.sfi.runner
import repro.sfi.validation
from repro.backends import Backend
from repro.data import SynthCIFAR
from repro.faults import FaultInjectionEngine, FaultOutcome, OutcomeTable, TableOracle
from repro.runtime import ExecutionPlan, PlanEngine
from repro.sfi import CampaignRunner, DataAwareSFI, DataUnawareSFI, LayerWiseSFI, NetworkWiseSFI
from spans import Tracer


def _conv_flops(op, x, out) -> int:
    m = op.module
    per_output = (x.shape[1] // m.groups) * m.kernel_size * m.kernel_size
    return 2 * out.size * per_output


def _array_bytes(arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _op_attrs(args, out) -> dict:
    """Kind label, computed flops and operand bytes of one plan op."""
    op, inputs = args[1], args[2]
    kind = op.kind
    flops = 0
    weights = []
    if kind == "conv2d":
        if op.module.groups > 1:
            kind = "conv2d_grouped"
        flops = _conv_flops(op, inputs[0], out)
        weights = [op.module.weight.data]
    elif kind == "linear":
        flops = 2 * out.size * inputs[0].shape[-1]
        weights = [op.module.weight.data]
    return {
        "kind": kind,
        "flops": flops,
        "bytes": _array_bytes([*inputs, *weights, out]),
    }


def _gemm_attrs(args, out) -> dict:
    a, b = args[1], args[2]
    return {"flops": 2 * out.size * a.shape[-1], "bytes": _array_bytes([a, b, out])}


def _im2col_attrs(args, out) -> dict:
    return {"bytes": _array_bytes([args[1], out])}


def _predict_attrs(args, out) -> dict:
    faults = args[1]
    return {"layer": faults[0].layer if faults else -1, "faults": len(faults)}


def _classify_many_attrs(args, out) -> dict:
    masked = sum(1 for outcome in out if outcome is FaultOutcome.MASKED)
    return {"faults": len(out), "masked": masked}


def _cell_attrs(args, out) -> dict:
    cell = out[0]
    return {"faults": int(cell.size), "masked": int((cell == FaultOutcome.MASKED).sum())}


def _count_attrs(args, out) -> dict:
    return {"faults": len(out)}


def _lookup_attrs(args, out) -> dict:
    return {"faults": len(args[1])}


def _load_attrs(args, out) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _wrap(fn, tracer: Tracer, name: str, attrs_of):
    """*fn* recording a *name* span; *attrs_of(args, result)* adds attrs."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as attrs:
            result = fn(*args, **kwargs)
            if attrs_of is not None:
                attrs.update(attrs_of(args, result))
            return result

    return wrapper


class _Patches:
    """Replaced bindings, restorable in reverse order."""

    def __init__(self) -> None:
        self.saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self.saved:
            owner, attr, value = self.saved.pop()
            setattr(owner, attr, value)


def _patch_method(patches, tracer, cls, attr, name, attrs_of=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        wrapped = _wrap(raw.__func__, tracer, name, attrs_of)
        patches.set(cls, attr, classmethod(wrapped))
    else:
        patches.set(cls, attr, _wrap(raw, tracer, name, attrs_of))


def _patch_function(patches, tracer, fn, name, attrs_of=None) -> None:
    """Replace every loaded ``repro`` module's binding of *fn*."""
    wrapper = _wrap(fn, tracer, name, attrs_of)
    for mod_name, module in sorted(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                patches.set(module, attr, wrapper)


def install(tracer: Tracer):
    """Wrap every layer boundary; returns a function undoing it all."""
    patches = _Patches()
    method = functools.partial(_patch_method, patches, tracer)
    function = functools.partial(_patch_function, patches, tracer)

    # Timed-phase boundaries.
    method(PlanEngine, "predictions_for_faults", "runtime.predict", _predict_attrs)
    method(ExecutionPlan, "run_op", "backends.op", _op_attrs)
    backends = [Backend]
    while backends:
        cls = backends.pop()
        backends.extend(cls.__subclasses__())
        if "gemm" in cls.__dict__:
            method(cls, "gemm", "backends.gemm", _gemm_attrs)
        if "im2col" in cls.__dict__:
            method(cls, "im2col", "backends.im2col", _im2col_attrs)
    method(FaultInjectionEngine, "classify_many", "faults.classify", _classify_many_attrs)
    function(repro.faults.table.timed_classify_cell, "faults.classify", _cell_attrs)
    method(TableOracle, "classify_many", "faults.lookup", _lookup_attrs)
    function(repro.sfi.runner.sample_subpopulation, "sfi.sample", _count_attrs)
    method(CampaignRunner, "run", "sfi.run")
    function(repro.sfi.validation.validate_campaign, "sfi.validate")

    # Set-up boundaries.
    function(repro.models.registry.create_model, "models.load")
    method(SynthCIFAR, "__init__", "data.eval_set")
    function(repro.runtime.engine.create_engine, "runtime.engine_init")
    function(repro.runtime.plan.capture_plan, "runtime.capture")
    function(repro.check.plan.check_plan, "check.verify")
    function(repro.check.plan.check_plan_vectorized, "check.verify")
    method(ExecutionPlan, "execute_all", "runtime.golden")
    method(OutcomeTable, "load", "store.load", _load_attrs)
    for planner in (NetworkWiseSFI, LayerWiseSFI, DataUnawareSFI, DataAwareSFI):
        method(planner, "plan", "sfi.plan")
    return patches.restore
