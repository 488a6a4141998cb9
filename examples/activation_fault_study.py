"""Transient activation-fault study (datapath faults, not memory faults).

Extends the paper's weight-fault methodology to transient single-bit
flips in the activation stream — the other fault model PyTorchFI-style
tools offer.  Uses the same statistical planners on the activation fault
space, compares per-bit criticality signatures against the cached
weight-fault ground truth, and exports the results as JSON/CSV under
artifacts/reports/.

Run:  python examples/activation_fault_study.py
"""

from repro.analysis import (
    ascii_bars,
    campaign_to_dict,
    write_json,
)
from repro.data import SynthCIFAR
from repro.faults import (
    ActivationFaultSpace,
    ActivationInferenceEngine,
)
from repro.models import create_model, pretrained_path
from repro.sfi import CampaignRunner, DataUnawareSFI
from repro.sfi.artifacts import load_or_run_exhaustive
from repro.train import train_reference_model
from repro.utils import artifacts_dir

MODEL = "resnet8_mini"


def main() -> None:
    if not pretrained_path(MODEL).is_file():
        train_reference_model(MODEL)
    weight_table, _, _ = load_or_run_exhaustive(MODEL)

    model = create_model(MODEL, pretrained=True)
    data = SynthCIFAR("test", size=48, seed=1234)
    engine = ActivationInferenceEngine(model, data.images, data.labels)
    space = ActivationFaultSpace(engine)
    print(
        f"activation fault space: {len(engine.sites)} sites, "
        f"N = {space.total_population:,} transient flips"
    )

    plan = DataUnawareSFI(error_margin=0.1, confidence=0.9).plan(space)
    print(plan.describe())
    result = CampaignRunner(engine, space).run(plan, seed=0)
    print(result.summary())

    print("\nper-site critical rates (activation flips):")
    for site in engine.sites:
        est = result.layer_estimate(site.index)
        print(
            f"  stage {site.stage} output {site.shape}: "
            f"{est.p_hat:7.3%} ± {est.margin:.3%}"
        )

    print("\nper-bit critical rate, activation flips vs weight stuck-at:")
    act_rates = []
    weight_rates = []
    for bit in range(31, -1, -1):
        n = criticals = 0
        for (_, b), tally in result.cell_tallies.items():
            if b == bit:
                n += tally[0]
                criticals += tally[1]
        act_rates.append(criticals / n if n else 0.0)
        wc = wp = 0
        for layer in range(weight_table.num_layers):
            c, p = weight_table.cell_counts(layer, bit)
            wc += c
            wp += p
        weight_rates.append(wc / wp)
    labels = [f"bit {b:2d}" for b in range(31, -1, -1)]
    print("activation flips:")
    print(ascii_bars(labels, act_rates, fmt="{:.3f}"))
    print("weight stuck-at (exhaustive):")
    print(ascii_bars(labels, weight_rates, fmt="{:.3f}"))

    out = artifacts_dir() / "reports" / "activation_study.json"
    write_json(campaign_to_dict(result), out)
    print(f"\ncampaign exported to {out}")


if __name__ == "__main__":
    main()
