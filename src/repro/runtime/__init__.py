"""Compiled inference path: execution plans and the plan engine.

``repro.runtime`` lowers a model's ``forward_fast`` into a flat,
forward-only :class:`ExecutionPlan` of primitive ops over explicit
buffer slots (:func:`capture_plan`), and classifies weight faults over
it with :class:`PlanEngine` — op-granular prefix caching plus batched
same-layer fault evaluation, bit-identical to the module engine.
"""

from repro.runtime.engine import (
    DEFAULT_BATCH_SIZE,
    PlanEngine,
    create_engine,
)
from repro.runtime.plan import (
    OP_KINDS,
    ExecutionPlan,
    OpSpec,
    PlanBuilder,
    capture_plan,
)
from repro.runtime.vectorized import (
    DEFAULT_OP_BUDGET,
    DEFAULT_VEC_BATCH_SIZE,
    VectorizedPlanEngine,
)

__all__ = [
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_OP_BUDGET",
    "DEFAULT_VEC_BATCH_SIZE",
    "ExecutionPlan",
    "OP_KINDS",
    "OpSpec",
    "PlanBuilder",
    "PlanEngine",
    "VectorizedPlanEngine",
    "capture_plan",
    "create_engine",
]
