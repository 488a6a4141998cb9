"""``repro-run``: execute an SFI campaign on a pretrained mini model."""

from __future__ import annotations

import argparse
import sys

from repro.cli import (
    add_telemetry_arguments,
    finish_telemetry,
    telemetry_from_args,
)
from repro.faults import InferenceOracle, TableOracle
from repro.models import MODELS
from repro.sfi import (
    CampaignRunner,
    DataAwareSFI,
    DataUnawareSFI,
    LayerWiseSFI,
    NetworkWiseSFI,
    validate_campaign,
)
from repro.sfi.artifacts import load_or_run_exhaustive
from repro.store import CorruptArtifactError
from repro.telemetry import progress_printer

_PLANNERS = {
    "network-wise": NetworkWiseSFI,
    "layer-wise": LayerWiseSFI,
    "data-unaware": DataUnawareSFI,
    "data-aware": DataAwareSFI,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-run",
        description=(
            "Run a statistical fault-injection campaign on a pretrained "
            "mini model and validate it against exhaustive ground truth."
        ),
    )
    parser.add_argument(
        "--model",
        default="resnet8_mini",
        choices=sorted(name for name in MODELS if name.endswith("_mini")),
        help="pretrained mini model (default: resnet8_mini)",
    )
    parser.add_argument(
        "--method",
        default="data-aware",
        choices=sorted(_PLANNERS),
        help="SFI method (default: data-aware)",
    )
    parser.add_argument("--error-margin", type=float, default=0.01)
    parser.add_argument("--confidence", type=float, default=0.99)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--eval-size", type=int, default=64, help="evaluation set size"
    )
    parser.add_argument(
        "--engine",
        default="plan",
        choices=("plan", "plan_vectorized", "module"),
        help="fault-evaluation engine: 'plan' (op-granular caching, "
        "batched faults; default), 'plan_vectorized' (certified "
        "variant-axis stacking) or 'module' (stage-granular "
        "reference). Outcomes are bit-identical in all three.",
    )
    parser.add_argument(
        "--live",
        action="store_true",
        help="really inject each sampled fault instead of replaying the "
        "cached exhaustive outcomes",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="processes for the exhaustive campaign when the cache is "
        "cold, and for the sampled campaign's strata "
        "(default: REPRO_WORKERS or all CPU cores)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="run the cold-cache exhaustive campaign through repro.dist: "
        "split it into N shards drained by a local worker fleet and "
        "merged deterministically (same table as a serial run)",
    )
    parser.add_argument(
        "--no-resume",
        action="store_true",
        help="do not checkpoint the exhaustive campaign / resume from an "
        "earlier interrupted one",
    )
    add_telemetry_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    telemetry = telemetry_from_args(
        args, on_event=progress_printer(f"  exhaustive {args.model}")
    )
    try:
        table, space, engine = load_or_run_exhaustive(
            args.model,
            eval_size=args.eval_size,
            engine_kind=args.engine,
            workers=args.workers,
            shards=args.shards,
            resume=not args.no_resume,
            telemetry=telemetry,
        )
    except (CorruptArtifactError, ValueError) as exc:
        print(f"repro-run: error: {exc}", file=sys.stderr)
        return 2
    planner = _PLANNERS[args.method](args.error_margin, args.confidence)
    plan = planner.plan(space)
    oracle = InferenceOracle(engine) if args.live else TableOracle(table, space)
    runner = CampaignRunner(oracle, space, telemetry=telemetry)
    result = runner.run(plan, seed=args.seed, workers=args.workers)
    report = validate_campaign(result, table)
    print(result.summary())
    print(
        f"exhaustive network rate: {table.total_rate() * 100:.3f}% | "
        f"avg layer margin: {report.average_margin * 100:.3f}% | "
        f"layers contained: {report.contained_fraction * 100:.0f}%"
    )
    for row in report.layers:
        est = row.estimate
        margin = f"±{est.margin * 100:.3f}%" if est.margin is not None else "n/a"
        status = "ok" if row.contained else "MISS"
        print(
            f"  layer {row.layer:2d}: exhaustive {row.exhaustive_rate * 100:6.3f}% "
            f"estimate {est.p_hat * 100:6.3f}% {margin} ({est.injections} FIs) "
            f"{status}"
        )
    finish_telemetry(telemetry, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
