"""``repro-plan``: print SFI campaign plans — and price them.

The base mode reproduces the paper's Table I layout (sample sizes per
subpopulation).  ``--predict`` adds the cost side: a
:class:`~repro.telemetry.costmodel.CostModel` fitted from measured
telemetry journals (``--fit``) and the engine-throughput bench
(``--bench``) prices every engine kind × worker count
before anything runs, and the headline prediction can be journalled
(``--trace``) so ``repro-stats`` later reports predicted-vs-actual
error.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.analysis import render_plan_table
from repro.cli import (
    add_telemetry_arguments,
    finish_telemetry,
    telemetry_from_args,
)
from repro.faults import FaultSpace
from repro.models import MODELS, create_model
from repro.sfi import (
    DataAwareSFI,
    DataUnawareSFI,
    LayerWiseSFI,
    NetworkWiseSFI,
)
from repro.stats import proportional_allocation
from repro.telemetry import (
    CostModel,
    CostModelError,
    fit_cost_model,
    load_bench,
    resolve_telemetry,
    summarize_journal,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-plan",
        description=(
            "Compute statistical fault-injection sample sizes (paper Eq. 1/3) "
            "for a model, in the paper's Table I layout; with --predict, "
            "price the campaigns from measured telemetry before running."
        ),
    )
    parser.add_argument(
        "--model",
        default="resnet20",
        choices=sorted(MODELS),
        help="model to plan for (default: resnet20)",
    )
    parser.add_argument(
        "--error-margin",
        type=float,
        default=0.01,
        help="target error margin e (default: 0.01)",
    )
    parser.add_argument(
        "--confidence",
        type=float,
        default=0.99,
        help="confidence level (default: 0.99)",
    )
    parser.add_argument(
        "--pretrained",
        action="store_true",
        help="use trained weights for the data-aware profile",
    )
    predict = parser.add_argument_group(
        "cost prediction (requires --fit or --cost-model)"
    )
    predict.add_argument(
        "--predict",
        action="store_true",
        help="print predicted wall clock / fault-evaluations per engine "
        "kind x worker count, fitted from measured telemetry",
    )
    predict.add_argument(
        "--fit",
        type=Path,
        action="append",
        default=None,
        metavar="JOURNAL",
        help="fit the cost model from this telemetry journal "
        "(repeatable; cell_done events are the model's input)",
    )
    predict.add_argument(
        "--cost-model",
        type=Path,
        default=None,
        metavar="JSON",
        help="load a previously saved cost model instead of fitting",
    )
    predict.add_argument(
        "--save-cost-model",
        type=Path,
        default=None,
        metavar="JSON",
        help="save the fitted cost model for later predictions",
    )
    predict.add_argument(
        "--bench",
        type=Path,
        default=None,
        metavar="JSON",
        help="engine-throughput bench for relative engine speeds "
        "(default: BENCH_engine.json when present)",
    )
    predict.add_argument(
        "--engine",
        default=None,
        choices=("module", "plan", "plan_vectorized"),
        help="engine for the headline prediction (default: the fastest "
        "benched engine, else the measured one)",
    )
    predict.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count for the headline prediction (default: 1)",
    )
    predict.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shard count capping parallelism in the headline "
        "prediction (default: unconstrained)",
    )
    predict.add_argument(
        "--predict-out",
        type=Path,
        default=None,
        metavar="JSON",
        help="write the full prediction report (cost model, table, "
        "headline) to this JSON file",
    )
    add_telemetry_arguments(parser)
    return parser


def _worker_axis(limit: int) -> list[int]:
    """1, 2, 4, ... up to (and including) *limit*."""
    counts = []
    w = 1
    while w < max(1, limit):
        counts.append(w)
        w *= 2
    counts.append(max(1, limit))
    return sorted(set(counts))


def _build_cost_model(args, space) -> CostModel:
    if args.cost_model is not None:
        model = CostModel.load(args.cost_model)
    elif args.fit:
        summaries = []
        for journal in args.fit:
            summaries.extend(summarize_journal(journal))
        model = fit_cost_model(summaries)
    else:
        raise CostModelError(
            "--predict needs measurements: pass --fit <journal> "
            "(a campaign run with --trace) or --cost-model <json>"
        )
    bench_path = args.bench
    if bench_path is None and Path("BENCH_engine.json").is_file():
        bench_path = Path("BENCH_engine.json")
    if bench_path is not None:
        model.engine_rates = dict(load_bench(bench_path))
    return model


def _predict(args, space, plans, tele) -> dict:
    """Print the prediction tables; returns the JSON-ready report."""
    cost_model = _build_cost_model(args, space)
    if args.save_cost_model is not None:
        cost_model.save(args.save_cost_model)
        print(f"cost model saved to {args.save_cost_model}")
    print(
        f"cost model: {cost_model.cells_observed} cells "
        f"({cost_model.faults_observed:,} faults) measured on "
        f"engine={cost_model.measured_engine}; "
        f"utilisation {cost_model.utilisation * 100:.0f}%"
        + (
            f"; bench: {', '.join(sorted(cost_model.engine_rates))}"
            if cost_model.engine_rates
            else "; no bench loaded (engine scaling disabled)"
        )
    )
    workers_axis = _worker_axis(args.workers)
    # The benched engine kinds, else the measured one.
    engine_axis = sorted(cost_model.engine_rates) or [cost_model.measured_engine]
    table_rows = []
    header = f"  {'engine':<18s}" + "".join(
        f" {'w=' + str(w):>12s}" for w in workers_axis
    )
    print(
        f"predicted exhaustive wall clock over "
        f"{space.total_population:,} fault-evaluations:"
    )
    print(header)
    for kind in engine_axis:
        cells = []
        for w in workers_axis:
            prediction = cost_model.predict_exhaustive(
                space,
                engine=kind,
                workers=w,
                shards=args.shards,
                model=args.model,
            )
            cells.append(prediction)
        table_rows.append(
            {
                "engine": kind,
                "predictions": [p.to_dict() for p in cells],
            }
        )
        print(
            f"  {kind:<18s}"
            + "".join(f" {p.wall_seconds:>11.2f}s" for p in cells)
        )

    headline = cost_model.predict_exhaustive(
        space,
        engine=args.engine,
        workers=args.workers,
        shards=args.shards,
        model=args.model,
    )
    print(
        f"headline: engine={headline.engine} "
        f"workers={headline.workers} shards={headline.shards or '-'} -> "
        f"{headline.wall_seconds:.2f}s wall "
        f"({headline.faults_per_sec:,.0f} fault-evals/sec)"
    )

    sampled = []
    print(
        f"predicted sampled campaigns (engine={headline.engine} "
        f"workers={headline.workers}):"
    )
    print(f"  {'method':<14s} {'injections':>12s} {'wall(s)':>10s}")
    for plan in plans:
        prediction = cost_model.predict_sampled(
            plan,
            engine=headline.engine,
            workers=args.workers,
            shards=args.shards,
            model=args.model,
        )
        sampled.append({"method": plan.method, **prediction.to_dict()})
        print(
            f"  {plan.method:<14s} {prediction.fault_evals:>12,d} "
            f"{prediction.wall_seconds:>10.2f}"
        )

    if tele.enabled:
        tele.emit("campaign_predicted", **headline.event_fields())

    report = {
        "model": args.model,
        "cost_model": cost_model.to_dict(),
        "exhaustive": table_rows,
        "headline": headline.to_dict(),
        "sampled": sampled,
    }
    if args.predict_out is not None:
        from repro.store import atomic_write_bytes

        atomic_write_bytes(
            args.predict_out,
            (json.dumps(report, indent=2, sort_keys=True) + "\n").encode(
                "utf-8"
            ),
        )
        print(f"prediction report written to {args.predict_out}")
    return report


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry = telemetry_from_args(args)
    tele = resolve_telemetry(telemetry)
    model = create_model(args.model, pretrained=args.pretrained)
    space = FaultSpace(model)
    planners = [
        NetworkWiseSFI(args.error_margin, args.confidence),
        LayerWiseSFI(args.error_margin, args.confidence),
        DataUnawareSFI(args.error_margin, args.confidence),
        DataAwareSFI(args.error_margin, args.confidence),
    ]
    plans = []
    for planner in planners:
        with tele.span("plan.compute", emit=True, method=planner.method):
            plans.append(planner.plan(space))
    layer_params = [layer.size for layer in space.layers]
    network_allocation = proportional_allocation(
        plans[0].total_injections,
        [space.layer_population(l) for l in range(len(space.layers))],
    )
    print(f"model: {args.model}  population N = {space.total_population:,}")
    print(
        render_plan_table(
            plans,
            layer_params,
            network_wise_allocation=network_allocation,
        )
    )
    if args.predict:
        try:
            _predict(args, space, plans, tele)
        except CostModelError as exc:
            print(f"repro-plan: error: {exc}")
            return 2
    finish_telemetry(telemetry, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
