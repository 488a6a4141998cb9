"""Ablation — weight (stuck-at) vs activation (transient flip) criticality.

Extends the paper's weight-fault study to the datapath fault model
PyTorchFI users pair it with: transient single-bit flips in stage
activations.  Uses the same statistical machinery (data-unaware sizing on
the activation fault space) and compares per-bit criticality signatures.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.analysis import render_table
from repro.data import SynthCIFAR
from repro.faults import (
    ActivationFaultSpace,
    ActivationInferenceEngine,
    FaultOutcome,
    TableOracle,
)
from repro.models import create_model
from repro.sfi import CampaignRunner, DataUnawareSFI


def test_activation_vs_weight_criticality(benchmark, resnet8_truth):
    weight_table, weight_space, _ = resnet8_truth
    model = create_model("resnet8_mini", pretrained=True)
    data = SynthCIFAR("test", size=48, seed=1234)
    engine = ActivationInferenceEngine(model, data.images, data.labels)
    act_space = ActivationFaultSpace(engine)

    def build():
        plan = DataUnawareSFI(error_margin=0.1, confidence=0.9).plan(act_space)
        return CampaignRunner(engine, act_space).run(plan, seed=0)

    result = benchmark.pedantic(build, rounds=1, iterations=1)

    # Per-bit critical rates for both fault models.
    weight_bits = {}
    for bit in range(32):
        criticals = population = 0
        for layer in range(weight_table.num_layers):
            c, p = weight_table.cell_counts(layer, bit)
            criticals += c
            population += p
        weight_bits[bit] = criticals / population
    act_bits = {}
    for bit in range(32):
        n = criticals = 0
        for (site, b), tally in result.cell_tallies.items():
            if b == bit:
                n += tally[0]
                criticals += tally[1]
        act_bits[bit] = criticals / n if n else 0.0

    rows = [
        [bit, round(weight_bits[bit] * 100, 3), round(act_bits[bit] * 100, 3)]
        for bit in range(31, -1, -1)
    ]
    emit(
        "Ablation — per-bit critical rate: weight stuck-at vs activation flip",
        render_table(["bit", "weight faults [%]", "activation flips [%]"], rows),
    )

    net = result.network_estimate()
    # Activation flips are substantially more critical than weight
    # stuck-at faults overall (no masking, direct datapath impact).
    assert net.p_hat > weight_table.total_rate()
    # High exponent bits dominate both signatures.
    assert max(act_bits, key=act_bits.get) in (29, 30)
    assert max(weight_bits, key=weight_bits.get) == 30
    # Low mantissa flips are benign in both models.
    assert act_bits[0] < 0.01
    assert weight_bits[0] == 0.0
