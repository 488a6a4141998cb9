"""Self-tests of the campaign benchmark's harness.

Run from the repository root::

    python3 -m pytest campaign_bench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate
import hostspeed
import inputs
import metrics
import run
from spans import Span, Tracer, reconcile, self_times


def _tree() -> list[Span]:
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 6];
    # e [11, 12] is a second top-level span.  Run wall: 15 s.
    return [
        Span("a", 0.0, 10.0, -1, "setup"),
        Span("b", 1.0, 4.0, 0, "setup"),
        Span("c", 2.0, 3.0, 1, "setup"),
        Span("d", 5.0, 6.0, 0, "setup"),
        Span("e", 11.0, 12.0, -1, "cell:1"),
    ]


def test_self_times_subtract_child_spans():
    assert self_times(_tree()) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_self_times_count_overlapping_children_once():
    spans = [
        Span("a", 0.0, 10.0, -1, "t"),
        Span("b", 1.0, 5.0, 0, "t"),
        Span("c", 4.0, 7.0, 0, "t"),
        Span("d", 9.0, 12.0, 0, "t"),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_times_and_unattributed_add_up_to_wall():
    attributed, unattributed = reconcile(_tree(), wall=15.0)
    assert attributed == 11.0
    assert unattributed == 4.0
    assert attributed + unattributed == 15.0


def test_tracer_records_parents_and_item_ids():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer"):
        tracer.trace = "cell:L00B01"
        with tracer.span("inner") as attrs:
            attrs["faults"] = 3
    outer, inner = tracer.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert (outer.trace, inner.trace) == ("setup", "cell:L00B01")
    assert inner.attrs == {"faults": 3}
    assert self_times(tracer.spans) == [2.0, 1.0]


def test_ledger_splits_setup_and_timed_spans():
    spans = _tree()
    spans[4].name = "runtime.predict"
    spans[4].attrs = {"layer": 3, "faults": 8}
    spans[0].name = "setup.import"
    values = metrics.per_layer(spans, wall=15.0, counters={})
    assert values["setup.import_s"] == 10.0
    assert values["runtime.predict_s"] == 1.0
    assert values["runtime.layer_s.03"] == 1.0
    assert values["runtime.faults_per_call"] == 8.0
    assert values["trace.unattributed_s"] == 4.0
    assert set(values) | {"trace.untraced_wall_s", "trace.overhead_ratio"} == set(
        metrics.PER_LAYER
    )


def test_scale_is_relative_to_the_reference_loop_time():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.scale(1.5, ref) == pytest.approx(1.5)
    assert hostspeed.scale(1.5, 2 * ref) == pytest.approx(0.75)


def test_work_clock_scales_each_stretch_by_its_end_timings():
    ref = hostspeed.REFERENCE_S
    loops = iter([2.0, 2.0, 1.0, 3.0, 2.0, 4.0, 2.0])  # first five: median 2.0
    now = [0.0]
    meter = hostspeed.WorkClock(sample=lambda: next(loops), clock=lambda: now[0])
    assert meter.samples == [2.0]
    now[0] = 0.2
    meter.add(0.2)  # under EVERY_S since the last timing: the stretch stays open
    assert meter.raw == meter.scaled == 0.0
    now[0] = 0.6
    meter.add(0.4)  # closes the stretch: loop 4.0, so a mean of 3.0 over it
    assert meter.raw == pytest.approx(0.6)
    assert meter.scaled == pytest.approx(0.6 * ref / 3.0)
    now[0] = 0.8
    meter.add(0.1)
    meter.close()  # loop 2.0 after 4.0: a mean of 3.0 again
    meter.close()  # nothing open: no timing
    assert meter.samples == [2.0, 4.0, 2.0]
    assert meter.raw == pytest.approx(0.7)
    assert meter.scaled == pytest.approx(0.7 * ref / 3.0)


@pytest.fixture(scope="module")
def resnet_table():
    from repro.faults import OutcomeTable

    return OutcomeTable.load(ROOT / "artifacts/exhaustive/resnet14_mini_n64_accuracy_drop.npz")


def test_gate_trips_on_one_corrupted_cell(resnet_table):
    cells = [
        (layer, bit, resnet_table.outcomes[layer][:, bit, :].copy())
        for layer, bit in [(0, 3), (5, 30), (13, 31)]
    ]
    attempted, failed = gate.check_cells(cells, resnet_table)
    assert failed == 0 and attempted == sum(c.size for _, _, c in cells)
    corrupted = cells[1][2]
    corrupted[7, 1] = (corrupted[7, 1] + 1) % 3
    assert gate.check_cells(cells, resnet_table) == (attempted, 1)
    assert gate.check_cells([(5, 30, None)], resnet_table) == (corrupted.size,) * 2


def test_gate_trips_on_a_changed_tally():
    expected = {(0, 3): [40, 2, 30], (1, 4): [10, 0, 5]}
    assert gate.check_tallies({k: list(v) for k, v in expected.items()}, expected) == (50, 0)
    assert gate.check_tallies({(0, 3): [40, 3, 30], (1, 4): [10, 0, 5]}, expected) == (50, 40)
    assert gate.check_tallies({(0, 3): [40, 2, 30]}, expected) == (50, 10)


def test_table_tallies_match_the_table_replay(resnet_table):
    from repro.faults import FaultSpace, TableOracle
    from repro.faults.targets import enumerate_weight_layers
    from repro.models import create_model
    from repro.sfi import (
        CampaignRunner,
        DataAwareSFI,
        DataUnawareSFI,
        LayerWiseSFI,
        NetworkWiseSFI,
    )

    space = FaultSpace(enumerate_weight_layers(create_model("resnet14_mini")))
    runner = CampaignRunner(TableOracle(resnet_table, space), space)
    for planner in (NetworkWiseSFI(0.05), LayerWiseSFI(0.05), DataUnawareSFI(0.2), DataAwareSFI()):
        plan = planner.plan(space)
        result = runner.run(plan, seed=11, workers=1)
        assert gate.table_tallies(plan, 11, resnet_table, space) == result.cell_tallies


def test_same_seed_same_inputs_other_seed_other_slice():
    assert inputs.cell_rounds(5, 3) == inputs.cell_rounds(5, 3)
    assert inputs.cell_rounds(5, 3) != inputs.cell_rounds(6, 3)
    strata = list(range(0, 180, 3))
    assert inputs.stratum_rounds(5, strata, 2) == inputs.stratum_rounds(5, strata, 2)
    assert inputs.stratum_rounds(5, strata, 2) != inputs.stratum_rounds(6, strata, 2)
    assert inputs.replay_rounds(5, 4, 3) == inputs.replay_rounds(5, 4, 3)
    assert inputs.replay_rounds(5, 4, 3) != inputs.replay_rounds(6, 4, 3)


def test_rounds_have_fixed_composition():
    slice_ = sorted(inputs.cell_rounds(0, 1)[0])
    assert [layer for layer, _ in slice_] == list(range(14))
    bits = [bit for _, bit in slice_]
    assert len(set(bits)) == len(bits)
    assert {30, 31} <= set(bits)  # exponent MSB and sign
    assert set(bits) & set(range(23)) and set(bits) & set(range(23, 30))
    for seed in range(5):
        for round_ in inputs.cell_rounds(seed, 4):
            assert sorted(round_) == slice_
    strata = list(range(0, 180, 3))
    for round_ in inputs.stratum_rounds(7, strata, 3):
        assert sorted(stratum for stratum, _ in round_) == strata
    seeds = [s for round_ in inputs.stratum_rounds(7, strata, 3) for _, s in round_]
    assert len(set(seeds)) == len(seeds)
    for round_ in inputs.replay_rounds(7, 4, 3):
        assert [p for p, _ in round_] == [0, 1, 2, 3] and len({s for _, s in round_}) == 1


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert run.gated_workloads() == [w["name"] for w in spec["workloads"]]
    assert set(run.gated_workloads()) <= set(run.MODELS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
