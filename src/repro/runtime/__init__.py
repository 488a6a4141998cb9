"""Compiled inference path: execution plans and the plan engine.

``repro.runtime`` lowers a model's ``forward_fast`` into a flat,
forward-only :class:`ExecutionPlan` of primitive ops over explicit
buffer slots (:func:`capture_plan`), and classifies weight faults over
it with :class:`PlanEngine` — op-granular prefix caching, one seeding
path (a row GEMM or a depthwise kernel on one channel, plus
single-channel replay, or the full faulty op) and
one exact dense tail, bit-identical to the module engine.
:class:`VectorizedPlanEngine` runs on the same seeding path and dense
tail, and adds no-flip certification and a stacked walk over the rows
certification cannot retire.
"""

from repro.runtime.engine import PlanEngine, create_engine
from repro.runtime.plan import (
    OP_KINDS,
    ExecutionPlan,
    OpSpec,
    PlanBuilder,
    capture_plan,
)
from repro.runtime.vectorized import VectorizedPlanEngine

__all__ = [
    "ExecutionPlan",
    "OP_KINDS",
    "OpSpec",
    "PlanBuilder",
    "PlanEngine",
    "VectorizedPlanEngine",
    "capture_plan",
    "create_engine",
]
