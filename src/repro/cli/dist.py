"""``repro-dist``: drive a sharded campaign across processes and hosts.

One campaign lives in one queue directory; the subcommands mirror the
shard lifecycle:

- ``submit`` — plan the campaign, split it into shards and publish them
  (idempotent: resubmitting the same campaign resumes it);
- ``work`` — drain shards from the queue until it is empty.  Run as many
  ``work`` processes as you like, on any host that sees the queue
  directory; each verifies its rebuilt engine against the campaign's
  config fingerprint before classifying anything;
- ``status`` — show pending/leased/done/poisoned shards and lease
  deadlines;
- ``rebalance`` — observe per-worker pace from the lease files and
  split oversized *pending* shards for stragglers (the merge stays
  bit-identical: splitting only re-partitions work units along the
  stable shard-id rules);
- ``merge`` — deterministically reassemble the shard results into the
  campaign result (bit-identical to a serial run), refusing incomplete
  queues and mismatched config fingerprints.

``submit --auto`` closes the telemetry loop: a cost model fitted from a
measured journal (``--fit``) picks the engine kind and shard
granularity, and the resulting prediction is recorded with the campaign
so ``repro-stats`` can report predicted-vs-actual error afterwards.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.cli import (
    add_telemetry_arguments,
    finish_telemetry,
    telemetry_from_args,
)
from repro.data import SynthCIFAR
from repro.dist import (
    DistError,
    ExhaustiveContext,
    Rebalancer,
    SampledContext,
    ShardQueue,
    ShardWorker,
    config_hash,
    make_exhaustive_shards,
    make_sampled_shards,
    merge_exhaustive,
    merge_sampled,
    sampled_config,
    verify_context_config,
)
from repro.faults import (
    FaultSpace,
    InferenceOracle,
    TableOracle,
)
from repro.models import MODELS, create_model
from repro.sfi import (
    DataAwareSFI,
    DataUnawareSFI,
    LayerWiseSFI,
    NetworkWiseSFI,
)
from repro.telemetry import (
    CostModel,
    CostModelError,
    choose_submit_settings,
    fit_cost_model,
    load_bench,
    summarize_journal,
)

_PLANNERS = {
    "network-wise": NetworkWiseSFI,
    "layer-wise": LayerWiseSFI,
    "data-unaware": DataUnawareSFI,
    "data-aware": DataAwareSFI,
}


def _build_engine(runtime: dict, *, telemetry=None):
    """Rebuild the campaign's engine/space from its runtime record.

    Deterministic: pretrained weights plus the seeded synthetic eval
    set, so every host reconstructs the same engine fingerprint (and
    ``verify_context_config`` can prove it did).
    """
    if runtime.get("fuse"):
        raise DistError(
            "this campaign was submitted with fused numerics (BN folded "
            "into conv), which this release no longer computes; resubmit "
            "it to a fresh queue"
        )
    if runtime.get("backend"):
        raise DistError(
            "this campaign was submitted on the "
            f"{runtime['backend']!r} kernel backend, which this release "
            "no longer provides; resubmit it to a fresh queue"
        )
    from repro.runtime import create_engine

    model = create_model(runtime["model"], pretrained=True)
    data = SynthCIFAR("test", size=int(runtime["eval_size"]), seed=1234)
    engine = create_engine(
        model,
        data.images,
        data.labels,
        # Queues submitted before engine selection existed carry no
        # "engine" key; they were computed by the module engine.
        kind=runtime.get("engine", "module"),
        policy=runtime.get("policy", "accuracy_drop"),
        telemetry=telemetry,
    )
    return engine, FaultSpace(engine.layers)


def _build_plan(runtime: dict, space: FaultSpace):
    planner = _PLANNERS[runtime["method"]](
        float(runtime["error_margin"]), float(runtime["confidence"])
    )
    return planner.plan(space)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dist",
        description=(
            "Shard a fault-injection campaign into a file-backed work "
            "queue, drain it with any number of workers, and merge the "
            "results bit-identically to a serial run."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser(
        "submit", help="split a campaign into shards and enqueue them"
    )
    submit.add_argument("root", type=Path, help="queue directory")
    submit.add_argument(
        "--kind",
        default="exhaustive",
        choices=("exhaustive", "sampled"),
        help="campaign kind (default: exhaustive)",
    )
    submit.add_argument(
        "--model",
        default="resnet8_mini",
        choices=sorted(name for name in MODELS if name.endswith("_mini")),
    )
    submit.add_argument("--eval-size", type=int, default=64)
    submit.add_argument("--policy", default="accuracy_drop")
    submit.add_argument(
        "--engine",
        default="plan",
        choices=("plan", "plan_vectorized", "module"),
        help="execution engine; plan, vectorized and module outcomes "
        "are bit-identical (default: plan)",
    )
    submit.add_argument(
        "--shards", type=int, default=4, help="shard count (default: 4)"
    )
    submit.add_argument(
        "--method",
        default="data-unaware",
        choices=sorted(_PLANNERS),
        help="SFI method for --kind sampled (default: data-unaware)",
    )
    submit.add_argument("--error-margin", type=float, default=0.01)
    submit.add_argument("--confidence", type=float, default=0.99)
    submit.add_argument("--seed", type=int, default=0)
    auto = submit.add_argument_group(
        "cost-model tuning (submit --auto)"
    )
    auto.add_argument(
        "--auto",
        action="store_true",
        help="pick engine kind and shard granularity from a "
        "cost model fitted from measured telemetry (needs --fit or "
        "--cost-model; exhaustive campaigns only)",
    )
    auto.add_argument(
        "--fit",
        type=Path,
        action="append",
        default=None,
        metavar="JOURNAL",
        help="fit the cost model from this telemetry journal (repeatable)",
    )
    auto.add_argument(
        "--cost-model",
        type=Path,
        default=None,
        metavar="JSON",
        help="load a saved cost model instead of fitting",
    )
    auto.add_argument(
        "--bench",
        type=Path,
        default=None,
        metavar="JSON",
        help="engine-throughput bench for relative engine speeds "
        "(default: BENCH_engine.json when present)",
    )
    auto.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker count the fleet will run with (shapes the --auto "
        "shard choice and the recorded prediction; default: 1)",
    )
    auto.add_argument(
        "--target-shard-seconds",
        type=float,
        default=30.0,
        help="target predicted wall time per shard for --auto "
        "(default: 30)",
    )
    add_telemetry_arguments(submit)

    work = sub.add_parser(
        "work", help="claim and execute shards until the queue is drained"
    )
    work.add_argument("root", type=Path, help="queue directory")
    work.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name for leases/telemetry (default: host:pid)",
    )
    work.add_argument(
        "--lease-seconds",
        type=float,
        default=30.0,
        help="lease lifetime; renewed on every completed unit "
        "(default: 30)",
    )
    work.add_argument("--max-attempts", type=int, default=3)
    work.add_argument(
        "--max-shards",
        type=int,
        default=None,
        help="stop after completing this many shards (default: drain)",
    )
    work.add_argument(
        "--no-wait",
        action="store_true",
        help="exit when no shard is claimable instead of idling through "
        "other workers' leases and backoff windows",
    )
    work.add_argument(
        "--live",
        action="store_true",
        help="sampled campaigns: really inject each fault instead of "
        "replaying the cached exhaustive outcomes",
    )
    work.add_argument(
        "--engine",
        default=None,
        choices=("plan", "plan_vectorized"),
        help="exhaustive campaigns: run this worker's shards on a "
        "different engine than the campaign was submitted with; "
        "accepted only when the verifier attests both engines' "
        "fingerprints outcome-compatible",
    )
    work.add_argument(
        "--heartbeat-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="minimum seconds between worker_heartbeat events (default: "
        "REPRO_HEARTBEAT_INTERVAL env, else one event per completed "
        "unit; leases renew per unit regardless)",
    )
    add_telemetry_arguments(work)

    status = sub.add_parser("status", help="show the queue's state")
    status.add_argument("root", type=Path, help="queue directory")
    status.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    rebalance = sub.add_parser(
        "rebalance",
        help="split oversized pending shards for stragglers (one pass, "
        "or --watch until the queue drains)",
    )
    rebalance.add_argument("root", type=Path, help="queue directory")
    rebalance.add_argument(
        "--target-shard-seconds",
        type=float,
        default=30.0,
        help="split pending shards predicted to exceed this wall time "
        "at the observed fleet pace (default: 30)",
    )
    rebalance.add_argument(
        "--straggler-ratio",
        type=float,
        default=0.5,
        help="a worker below this fraction of the median unit rate is a "
        "straggler; the slowest pace then prices pending shards "
        "(default: 0.5)",
    )
    rebalance.add_argument(
        "--min-units",
        type=int,
        default=2,
        help="never produce child shards smaller than this many units "
        "(default: 2)",
    )
    rebalance.add_argument(
        "--watch",
        action="store_true",
        help="keep rebalancing until the queue drains instead of one pass",
    )
    rebalance.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between --watch passes (default: 1)",
    )
    add_telemetry_arguments(rebalance)

    merge = sub.add_parser(
        "merge", help="reassemble shard results into the campaign result"
    )
    merge.add_argument("root", type=Path, help="queue directory")
    merge.add_argument(
        "--out",
        type=Path,
        default=None,
        help="exhaustive campaigns: save the merged OutcomeTable here "
        "(verified .npz)",
    )
    add_telemetry_arguments(merge)
    return parser


# -- submit ----------------------------------------------------------------


def _submit_cost_model(args) -> CostModel | None:
    """Build the submit-time cost model, or ``None`` when not asked for."""
    if args.cost_model is not None:
        model = CostModel.load(args.cost_model)
    elif args.fit:
        summaries = []
        for journal in args.fit:
            summaries.extend(summarize_journal(journal))
        model = fit_cost_model(summaries)
    elif args.auto:
        raise CostModelError(
            "submit --auto needs measurements: pass --fit <journal> "
            "(a campaign run with --trace) or --cost-model <json>"
        )
    else:
        return None
    bench_path = args.bench
    if bench_path is None and Path("BENCH_engine.json").is_file():
        bench_path = Path("BENCH_engine.json")
    if bench_path is not None:
        model.engine_rates = dict(load_bench(bench_path))
    return model


def _cmd_submit(args) -> int:
    cost_model = _submit_cost_model(args)
    if args.auto:
        if args.kind != "exhaustive":
            raise DistError(
                "submit --auto tunes exhaustive campaigns; sampled "
                "campaigns are priced by their plan instead"
            )
        # The auto choice needs the fault space before the engine is
        # built; the module-engine space is identical (same model), so
        # build cheap, choose, then rebuild with the chosen engine.
        probe_model = create_model(args.model, pretrained=True)
        choice = choose_submit_settings(
            cost_model,
            FaultSpace(probe_model),
            workers=args.workers,
            target_shard_seconds=args.target_shard_seconds,
            model=args.model,
        )
        args.engine = choice.engine
        args.shards = choice.shards
        print(
            f"auto: engine={choice.engine} "
            f"shards={choice.shards} -> predicted "
            f"{choice.prediction.wall_seconds:.2f}s wall at "
            f"{args.workers} worker(s)"
        )
    engine, space = _build_engine(
        {
            "model": args.model,
            "eval_size": args.eval_size,
            "policy": args.policy,
            "engine": args.engine,
        }
    )
    runtime = {
        "model": args.model,
        "eval_size": args.eval_size,
        "policy": args.policy,
        "engine": args.engine,
        "golden_accuracy": engine.golden_accuracy,
    }
    if getattr(engine, "plan_fingerprint", None) is not None:
        # Pin the verified plan structure: the merge refuses shard
        # results that do not attest this fingerprint.
        runtime["plan_sha256"] = engine.plan_fingerprint
    if args.kind == "exhaustive":
        config, specs = make_exhaustive_shards(
            engine, space, shards=args.shards
        )
    else:
        plan = _build_plan(
            {
                "method": args.method,
                "error_margin": args.error_margin,
                "confidence": args.confidence,
            },
            space,
        )
        config, specs = make_sampled_shards(
            plan,
            space,
            seed=args.seed,
            shards=args.shards,
            golden_sha256=engine.fingerprint(),
        )
        runtime.update(
            method=args.method,
            error_margin=args.error_margin,
            confidence=args.confidence,
            seed=args.seed,
        )
    prediction = None
    if cost_model is not None:
        if args.kind == "exhaustive":
            prediction = cost_model.predict_exhaustive(
                space,
                engine=args.engine,
                workers=args.workers,
                shards=len(specs),
                model=args.model,
            )
        else:
            prediction = cost_model.predict_sampled(
                plan,
                engine=args.engine,
                workers=args.workers,
                shards=len(specs),
                model=args.model,
            )
        # Recorded with the campaign AND journalled, so repro-stats can
        # hold the model to account once the fleet has run.
        runtime["prediction"] = prediction.to_dict()
        print(
            f"predicted: {prediction.wall_seconds:.2f}s wall at "
            f"{args.workers} worker(s), {prediction.fault_evals:,} "
            "fault-evals"
        )
    queue = ShardQueue(args.root)
    enqueued = queue.submit(specs, config=config, runtime=runtime)
    telemetry = telemetry_from_args(args)
    if telemetry is not None and telemetry.enabled and prediction is not None:
        telemetry.emit("campaign_predicted", **prediction.event_fields())
    status = queue.status()
    print(
        f"submitted {args.kind} campaign "
        f"{config_hash(config)[:12]} for {args.model}: "
        f"{len(specs)} shard(s), {enqueued} enqueued "
        f"({len(status.done)} already done)"
    )
    print(f"drain it with: repro-dist work {args.root}")
    finish_telemetry(telemetry, args)
    return 0


# -- work ------------------------------------------------------------------


def _cmd_work(args) -> int:
    queue = ShardQueue(args.root)
    campaign = queue.campaign()
    config = campaign["config"]
    runtime = campaign.get("runtime", {})
    telemetry = telemetry_from_args(args)
    if config["kind"] == "exhaustive":
        if args.engine:
            runtime = dict(runtime, engine=args.engine)
        engine, space = _build_engine(runtime, telemetry=telemetry)
        expected_plan = campaign.get("runtime", {}).get("plan_sha256")
        rebuilt_plan = getattr(engine, "plan_fingerprint", None)
        if expected_plan is not None and rebuilt_plan != expected_plan:
            # A mixed-engine fleet is legitimate exactly when the
            # verifier attested both plans bit-identical in outcomes.
            from repro.check import fingerprints_compatible

            if not fingerprints_compatible(
                str(rebuilt_plan), expected_plan
            ):
                raise DistError(
                    "execution-plan mismatch: the campaign was submitted "
                    f"for verified plan {expected_plan[:12]}, this worker "
                    f"captured {str(rebuilt_plan)[:12]} — refusing to "
                    "classify shards (not attested outcome-compatible)"
                )
        context = ExhaustiveContext(engine, space)
        verify_context_config(context, config)
    else:
        if args.engine:
            raise DistError(
                "--engine only applies to exhaustive campaigns; sampled "
                "workers replay or inject under the submitted engine"
            )
        engine, space = _build_engine(runtime, telemetry=telemetry)
        plan = _build_plan(runtime, space)
        rebuilt = sampled_config(
            plan,
            space,
            seed=int(runtime["seed"]),
            golden_sha256=engine.fingerprint(),
        )
        if config_hash(rebuilt) != campaign["config_hash"]:
            raise DistError(
                "this worker rebuilt a different sampled campaign "
                f"(config {config_hash(rebuilt)[:12]} vs submitted "
                f"{campaign['config_hash'][:12]}); model weights, eval "
                "set or planner inputs do not match the submission"
            )
        if args.live:
            oracle = InferenceOracle(engine)
        else:
            # Replay from the cached exhaustive table: bit-exact against
            # live injection and orders of magnitude faster.
            from repro.sfi.artifacts import load_or_run_exhaustive

            table, _space, _engine = load_or_run_exhaustive(
                runtime["model"],
                eval_size=int(runtime["eval_size"]),
                policy=runtime.get("policy", "accuracy_drop"),
                engine_kind=runtime.get("engine", "module"),
                telemetry=telemetry,
            )
            oracle = TableOracle(table, space)
        context = SampledContext(oracle, space, plan)
        verify_context_config(context, config)
    worker = ShardWorker(
        queue,
        context,
        worker_id=args.worker_id,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        heartbeat_interval=args.heartbeat_interval,
        telemetry=telemetry,
    )
    completed = worker.run(max_shards=args.max_shards, wait=not args.no_wait)
    status = queue.status()
    print(
        f"worker {worker.worker_id}: completed {completed} shard(s); "
        f"queue now {len(status.done)} done, {len(status.pending)} "
        f"pending, {len(status.leased)} leased, "
        f"{len(status.poisoned)} poisoned"
    )
    finish_telemetry(telemetry, args)
    return 0


# -- status ----------------------------------------------------------------


def _cmd_status(args) -> int:
    queue = ShardQueue(args.root)
    campaign = queue.campaign()
    status = queue.status()
    if args.json:
        print(
            json.dumps(
                {
                    "campaign_id": campaign["campaign_id"],
                    "kind": campaign["config"]["kind"],
                    "shards": len(campaign["shards"]),
                    "pending": status.pending,
                    "leased": status.leased,
                    "done": status.done,
                    "poisoned": status.poisoned,
                    "complete": status.complete,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    runtime = campaign.get("runtime", {})
    model = runtime.get("model", "?")
    print(
        f"campaign {campaign['campaign_id']} "
        f"[{campaign['config']['kind']}] on {model}: "
        f"{len(campaign['shards'])} shard(s)"
    )
    print(
        f"  done {len(status.done)}  pending {len(status.pending)}  "
        f"leased {len(status.leased)}  poisoned {len(status.poisoned)}"
    )
    for lease in status.leased:
        expires = lease["expires_in"]
        state = (
            f"expires in {expires:.1f}s" if expires > 0 else "EXPIRED"
        )
        print(
            f"  leased {lease['shard_id']} by {lease['worker']} "
            f"({lease['heartbeats']} heartbeats, {state})"
        )
    for spec in queue.poisoned():
        last = spec.history[-1] if spec.history else "unknown"
        print(
            f"  poisoned {spec.shard_id} after {spec.attempts} "
            f"attempts (last: {last})"
        )
    if status.complete and status.done:
        print(f"  all shards done — merge with: repro-dist merge {args.root}")
    return 0


# -- rebalance -------------------------------------------------------------


def _prior_seconds_per_unit(campaign: dict) -> float | None:
    """Pace prior from the campaign's recorded submit-time prediction.

    Lets the rebalancer split a too-coarse campaign before any lease has
    been observed.  Exhaustive campaigns only: the unit count (cells) is
    derivable from the config, a sampled plan's item count is not.
    """
    runtime = campaign.get("runtime", {})
    prediction = runtime.get("prediction")
    config = campaign.get("config", {})
    if not prediction or config.get("kind") != "exhaustive":
        return None
    layer_sizes = config.get("layer_sizes")
    bits = config.get("bits")
    serial = prediction.get("serial_seconds")
    if not layer_sizes or not bits or not serial:
        return None
    cells = len(layer_sizes) * int(bits)
    if cells <= 0:
        return None
    return float(serial) / cells


def _cmd_rebalance(args) -> int:
    queue = ShardQueue(args.root)
    campaign = queue.campaign()
    telemetry = telemetry_from_args(args)
    rebalancer = Rebalancer(
        queue,
        target_shard_seconds=args.target_shard_seconds,
        straggler_ratio=args.straggler_ratio,
        min_units=args.min_units,
        seconds_per_unit=_prior_seconds_per_unit(campaign),
        telemetry=telemetry,
    )
    while True:
        report = rebalancer.tick()
        for shard_id in report.recovered:
            print(f"recovered interrupted split of {shard_id}")
        pace = (
            f"{report.seconds_per_unit:.3f}s/unit"
            if report.seconds_per_unit
            else "unknown pace"
        )
        stragglers = (
            f", stragglers: {', '.join(report.stragglers)}"
            if report.stragglers
            else ""
        )
        print(
            f"observed {len(report.rates)} lease(s) ({pace}{stragglers}); "
            f"split {report.split_count} shard(s)"
        )
        for parent, children in report.splits:
            print(f"  {parent} -> {', '.join(children)}")
        if not args.watch:
            break
        status = queue.status()
        if not status.pending and not status.leased:
            break
        time.sleep(args.interval)
    finish_telemetry(telemetry, args)
    return 0


# -- merge -----------------------------------------------------------------


def _cmd_merge(args) -> int:
    queue = ShardQueue(args.root)
    campaign = queue.campaign()
    telemetry = telemetry_from_args(args)
    if campaign["config"]["kind"] == "exhaustive":
        table = merge_exhaustive(queue, telemetry=telemetry)
        _criticals, population = table.total_counts()
        print(
            f"merged {len(campaign['shards'])} shard(s): "
            f"{population:,} faults, "
            f"network critical rate {table.total_rate() * 100:.3f}%"
        )
        if args.out is not None:
            table.save(args.out)
            print(f"table saved to {args.out}")
    else:
        runtime = campaign.get("runtime", {})
        _engine, space = _build_engine(runtime)
        result = merge_sampled(queue, space, telemetry=telemetry)
        print(result.summary())
        if args.out is not None:
            print(
                "repro-dist: note: --out applies to exhaustive campaigns "
                "only; sampled results are printed",
                file=sys.stderr,
            )
    finish_telemetry(telemetry, args)
    return 0


_COMMANDS = {
    "submit": _cmd_submit,
    "work": _cmd_work,
    "status": _cmd_status,
    "rebalance": _cmd_rebalance,
    "merge": _cmd_merge,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DistError, CostModelError) as exc:
        print(f"repro-dist: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
