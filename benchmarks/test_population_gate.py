"""Reduced full-population gate: one whole layer per mini model, every engine.

Every cell of one weight layer (all 32 bits, both stuck-at models) is
classified through each surviving engine and must be array-equal to the
committed exhaustive table — the exhaustive ground truth, not a sample.
The layers are picked to reach the engines' seeding paths:
full-resolution ResNet convs, whose mostly-alive variants continue on the
dense tail, and MobileNetV2's single-channel replay through depthwise
convs — depthwise faults seeded from their one dirty channel at stride 1
and 2, and an expansion conv whose chain carries its channel across a
stride-2 depthwise conv.  Engines come from ``load_or_run_exhaustive``,
so the committed table is a cache hit.
"""

import numpy as np
import pytest

from repro.faults.table import timed_classify_cell
from repro.sfi.artifacts import load_or_run_exhaustive
from repro.telemetry import NULL_TELEMETRY

GATE_LAYERS = [
    ("resnet8_mini", 1),  # blocks.0.conv1, 32x32
    ("resnet14_mini", 2),  # blocks.0.conv2, 32x32
    ("mobilenetv2_mini", 2),  # block0.conv2, depthwise, stride 1
    ("mobilenetv2_mini", 4),  # block1.conv1, chain crosses stride-2 depthwise
    ("mobilenetv2_mini", 8),  # block2.conv2, depthwise, stride 2
]


@pytest.mark.parametrize("engine_kind", ["module", "plan", "plan_vectorized"])
@pytest.mark.parametrize(("model_name", "layer"), GATE_LAYERS)
def test_layer_population_matches_committed_table(
    model_name, layer, engine_kind
):
    table, space, engine = load_or_run_exhaustive(
        model_name, engine_kind=engine_kind
    )
    assert engine.kind == engine_kind
    for bit in range(space.bits):
        cell, _, _ = timed_classify_cell(
            engine, space, layer, bit, NULL_TELEMETRY
        )
        np.testing.assert_array_equal(
            cell,
            table.outcomes[layer][:, bit, :],
            err_msg=f"{model_name} layer {layer} bit {bit} via {engine_kind}",
        )
