"""Property test: plan and module engines agree fault-for-fault.

Hypothesis drives randomized mini models, fault coordinates across all
three fault models, and every classification policy; the batched plan
engine must reproduce the module engine's outcomes exactly, fed K
faults per call so every seeding width from one row up is exercised.
Randomized depthwise-separable models hold both plan engines'
single-channel replay across depthwise convs to the module engine's
predictions, row for row.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.data import SynthCIFAR
from repro.faults import Fault, FaultModel, InferenceEngine
from repro.ieee754 import FLOAT16, FLOAT32
from repro.models import MobileNetV2CIFAR, ResNetCIFAR
from repro.runtime import PlanEngine, VectorizedPlanEngine

_WIDTHS = [(2, 4, 6), (2, 4, 8), (4, 6, 8)]
_POLICIES = ["accuracy_drop", "any_mismatch", "accuracy_threshold"]


@settings(max_examples=15, deadline=None)
@given(
    widths=st.sampled_from(_WIDTHS),
    model_seed=st.integers(min_value=0, max_value=7),
    policy=st.sampled_from(_POLICIES),
    use_half=st.booleans(),
    per_call=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_plan_outcomes_match_module(
    widths, model_seed, policy, use_half, per_call, data
):
    model = ResNetCIFAR(blocks_per_stage=1, widths=widths, seed=model_seed)
    model.eval()
    eval_set = SynthCIFAR("test", size=8, seed=42)
    fmt = FLOAT16 if use_half else FLOAT32
    threshold = 0.25 if policy == "accuracy_threshold" else 0.0
    kwargs = dict(fmt=fmt, policy=policy, threshold=threshold)
    module_engine = InferenceEngine(
        model, eval_set.images, eval_set.labels, **kwargs
    )
    plan_engine = PlanEngine(
        model, eval_set.images, eval_set.labels, **kwargs
    )

    faults = []
    for fault_model in FaultModel:
        for _ in range(4):
            layer = data.draw(
                st.integers(0, len(module_engine.layers) - 1), label="layer"
            )
            faults.append(
                Fault(
                    layer=layer,
                    index=data.draw(
                        st.integers(0, module_engine.layers[layer].size - 1),
                        label="index",
                    ),
                    bit=data.draw(
                        st.integers(0, fmt.total_bits - 1), label="bit"
                    ),
                    model=fault_model,
                )
            )

    plan_outcomes = []
    for start in range(0, len(faults), per_call):
        plan_outcomes += plan_engine.classify_many(
            faults[start : start + per_call]
        )
    assert plan_outcomes == module_engine.classify_many(faults)
    # Batched tail passes still count one logical inference per fault.
    assert plan_engine.inference_count == module_engine.inference_count


@settings(max_examples=8, deadline=None)
@given(
    expansions=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    widths=st.tuples(st.sampled_from([4, 6]), st.sampled_from([6, 8])),
    stem=st.sampled_from([4, 6]),
    model_seed=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_depthwise_plans_match_module(
    expansions, widths, stem, model_seed, data
):
    # Group one's second block is a stride-1 residual: its input slot
    # feeds the expansion conv and the add, so no chain may cross it.
    # Group two opens with a stride-2 depthwise conv.
    config = (
        (expansions[0], widths[0], 2, 1),
        (expansions[1], widths[1], 1, 2),
    )
    model = MobileNetV2CIFAR(
        config=config, stem_channels=stem, head_channels=8, seed=model_seed
    )
    model.eval()
    eval_set = SynthCIFAR("test", size=10, seed=42)
    args = (model, eval_set.images, eval_set.labels)
    module_engine = InferenceEngine(*args)
    layers = module_engine.layers
    faults = []
    for _ in range(24):
        layer = data.draw(st.integers(0, len(layers) - 1), label="layer")
        faults.append(
            Fault(
                layer=layer,
                index=data.draw(
                    st.integers(0, layers[layer].size - 1), label="index"
                ),
                bit=data.draw(st.integers(0, 31), label="bit"),
                model=data.draw(st.sampled_from(list(FaultModel))),
            )
        )
    expected = module_engine.predictions_for_faults(faults)
    for engine in (PlanEngine(*args), VectorizedPlanEngine(*args)):
        np.testing.assert_array_equal(
            engine.predictions_for_faults(faults), expected, err_msg=engine.kind
        )
