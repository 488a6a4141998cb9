"""``repro-check``: static plan verification and determinism linting.

Three subcommands:

- ``repro-check plan`` — capture and verify execution plans for
  registered models (``--all-models`` covers the zoo).  Exit 1 if any
  plan has errors; ``--strict`` also fails on warnings.
  ``--timings-out`` records per-plan verifier wall time.
- ``repro-check lint`` — run the determinism rules (D201–D206) over
  source paths, honouring ``# repro-check: ignore[RULE]`` suppressions
  and an optional committed baseline.  ``--write-baseline`` adopts the
  current findings.
- ``repro-check conform`` — run the vectorized-vs-exact conformance
  suite (:func:`repro.check.run_conformance`) on reference models;
  exit 1 on any prediction or outcome flip.  ``--ops`` runs the op_db
  per-kernel suite (:func:`repro.check.run_op_conformance`) over every
  op kind of the reference kernels instead.
- ``repro-check protocol`` — verify the distributed queue protocol:
  the static filesystem-effect pass (Q301–Q306) over the real
  ``repro.dist`` source, then the crash-interleaving model checker
  (Q310–Q314) exploring every schedule of ``--workers`` concurrent
  workers up to ``--depth`` started operations, with a crash injected
  at every effect boundary unless ``--no-crash``.  Counterexamples are
  rendered as replayable operation schedules.  ``--mutants`` also runs
  the mutation harness (each seeded protocol bug must be caught with
  its expected Q-code).  ``--timings-out`` records state-space size
  and wall time.
- ``repro-check rules`` — print the rule catalogue (all passes).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.check import LINT_RULES, PLAN_RULES, PROTOCOL_RULES, verify_plan
from repro.check.baseline import load_baseline, new_findings, save_baseline
from repro.check.lint import lint_paths
from repro.models import MODELS, create_model
from repro.runtime.plan import capture_plan
from repro.store import atomic_write_bytes

_DEFAULT_BASELINE = "check-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="Static checks: plan verifier and determinism linter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="verify captured execution plans")
    plan.add_argument(
        "--model",
        action="append",
        choices=sorted(MODELS),
        help="model to capture and verify (repeatable)",
    )
    plan.add_argument(
        "--all-models",
        action="store_true",
        help="verify every registered model",
    )
    plan.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings (over-approximation, dead ops) as failures",
    )
    plan.add_argument(
        "--timings-out",
        metavar="JSON",
        default=None,
        help="write per-plan verifier wall-time measurements to this file",
    )

    lint = sub.add_parser("lint", help="run the determinism linter")
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src/repro", "benchmarks"],
        help="files or directories to lint "
        "(default: src/repro benchmarks)",
    )
    lint.add_argument(
        "--baseline",
        metavar="JSON",
        default=None,
        help="committed baseline of known findings (default: "
        f"{_DEFAULT_BASELINE} when it exists)",
    )
    lint.add_argument(
        "--write-baseline",
        action="store_true",
        help="adopt the current findings into the baseline file and exit 0",
    )

    conform = sub.add_parser(
        "conform",
        help="vectorized-vs-exact engine conformance on reference models",
    )
    conform.add_argument(
        "--model",
        action="append",
        choices=sorted(MODELS),
        help="model to check (repeatable; default: resnet14_mini)",
    )
    conform.add_argument(
        "--faults",
        type=int,
        default=128,
        help="campaign-representative faults per model (default: 128)",
    )
    conform.add_argument(
        "--eval-size", type=int, default=64, help="evaluation set size"
    )
    conform.add_argument("--seed", type=int, default=0)
    conform.add_argument(
        "--out",
        metavar="JSON",
        default=None,
        help="write the per-model conformance reports to this file",
    )
    conform.add_argument(
        "--ops",
        action="store_true",
        help="run the op_db per-kernel conformance suite instead of the "
        "model-level engine suite (covers every op kind)",
    )

    protocol = sub.add_parser(
        "protocol",
        help="model-check the distributed queue protocol and lint its "
        "filesystem effects",
    )
    protocol.add_argument(
        "--depth",
        type=int,
        default=5,
        help="operations started per explored schedule (default: 5)",
    )
    protocol.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent model workers (default: 2)",
    )
    protocol.add_argument(
        "--crash",
        dest="crash",
        action="store_true",
        default=True,
        help="inject a crash at every effect boundary (default: on)",
    )
    protocol.add_argument(
        "--no-crash",
        dest="crash",
        action="store_false",
        help="disable crash injection (interleavings only)",
    )
    protocol.add_argument(
        "--mutants",
        action="store_true",
        help="also run the mutation harness: each seeded protocol bug "
        "must produce its expected Q-code",
    )
    protocol.add_argument(
        "--timings-out",
        metavar="JSON",
        default=None,
        help="write explored-state counts and wall time to this file",
    )

    sub.add_parser("rules", help="print the rule catalogue")
    return parser


def _cmd_plan(args) -> int:
    names = sorted(MODELS) if args.all_models else (args.model or [])
    if not names:
        print(
            "repro-check plan: name models with --model or use --all-models",
            file=sys.stderr,
        )
        return 2
    failed = False
    timings = []
    for name in names:
        model = create_model(name)
        # capture_plan verifies internally; verify again explicitly to
        # report diagnostics (including warnings) and wall time.
        plan = capture_plan(model)
        start = time.perf_counter()
        diagnostics = verify_plan(plan)
        seconds = time.perf_counter() - start
        errors = [d for d in diagnostics if d.severity == "error"]
        warnings = [d for d in diagnostics if d.severity == "warning"]
        verdict = "ok"
        if errors or (args.strict and warnings):
            verdict = "FAIL"
            failed = True
        elif warnings:
            verdict = "warn"
        print(
            f"{verdict:4s} {name:18s} ops={len(plan):3d} "
            f"verify={1e3 * seconds:6.2f} ms"
        )
        for diagnostic in diagnostics:
            print(f"     {diagnostic}")
        timings.append(
            {
                "model": name,
                "ops": len(plan),
                "verify_seconds": seconds,
                "errors": len(errors),
                "warnings": len(warnings),
            }
        )
    if args.timings_out:
        payload = {
            "plans": timings,
            "max_verify_seconds": max(t["verify_seconds"] for t in timings),
        }
        serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(Path(args.timings_out), serialized.encode("utf-8"))
    return 1 if failed else 0


def _cmd_lint(args) -> int:
    root = Path.cwd()
    findings = lint_paths([Path(p) for p in args.paths])
    baseline_path = args.baseline
    if baseline_path is None and Path(_DEFAULT_BASELINE).exists():
        baseline_path = _DEFAULT_BASELINE
    if args.write_baseline:
        target = Path(baseline_path or _DEFAULT_BASELINE)
        save_baseline(target, findings, root)
        print(f"wrote {len(findings)} finding(s) to {target}")
        return 0
    if baseline_path is not None:
        baseline = load_baseline(Path(baseline_path))
        findings = new_findings(findings, baseline, root)
    for finding in findings:
        print(finding)
    if findings:
        print(
            f"\n{len(findings)} new finding(s); fix them or suppress a "
            "justified one with  # repro-check: ignore[RULE]"
        )
        return 1
    print("determinism lint: clean")
    return 0


def _cmd_conform(args) -> int:
    from repro.check.conformance import run_conformance

    if args.ops:
        return _cmd_conform_ops(args)
    names = args.model or ["resnet14_mini"]
    reports = []
    failed = False
    for name in names:
        report = run_conformance(
            name,
            eval_size=args.eval_size,
            faults=args.faults,
            seed=args.seed,
        )
        reports.append(report)
        verdict = "ok" if report.ok else "FAIL"
        failed = failed or not report.ok
        attest = "bit-exact" if report.bit_exact_attested else "unattested"
        print(
            f"{verdict:4s} {report.model:18s} "
            f"faults={report.faults:4d} "
            f"flips={report.outcome_flips}/{report.faults} "
            f"cells={report.prediction_flips} "
            f"module={report.module_prediction_flips} [{attest}] "
            f"precertified={report.precertified} "
            f"survivors={report.survivor_rows}"
        )
        if report.flipped_faults:
            print(f"     flipped fault indices: {list(report.flipped_faults)}")
    if args.out:
        payload = {"reports": [r.to_dict() for r in reports]}
        serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(Path(args.out), serialized.encode("utf-8"))
    return 1 if failed else 0


def _cmd_conform_ops(args) -> int:
    from repro.check.conformance import OP_CHECKS, run_op_conformance

    results = run_op_conformance(seed=args.seed)
    failures = [r for r in results if not r.ok]
    per_backend: dict[str, int] = {}
    for result in results:
        per_backend[result.backend] = per_backend.get(result.backend, 0) + 1
    for name in sorted(per_backend):
        print(f"backend {name}: {per_backend[name]} check(s)")
    for check in OP_CHECKS:
        ran = [r for r in results if r.check == check]
        passed = sum(r.ok for r in ran)
        print(f"check {check}: {passed}/{len(ran)} passed")
    for result in failures:
        print(
            f"FAIL {result.backend}/{result.kind} sample={result.sample} "
            f"check={result.check}: {result.detail}"
        )
    if args.out:
        payload = {"checks": [r.to_dict() for r in results]}
        serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(Path(args.out), serialized.encode("utf-8"))
    if failures:
        print(f"\nop conformance: {len(failures)}/{len(results)} failed")
        return 1
    print(f"op conformance: {len(results)} checks passed")
    return 0


def _cmd_protocol(args) -> int:
    from repro.check.protocol import (
        MUTANT_MODELS,
        check_effects,
        check_protocol,
        render_trace,
    )

    failed = False
    findings = check_effects()
    for finding in findings:
        print(finding)
    verdict = "FAIL" if findings else "ok"
    failed = failed or bool(findings)
    print(
        f"{verdict:4s} effect lint: {len(findings)} finding(s) over "
        "repro.dist.queue/lease/rebalance"
    )

    result = check_protocol(
        depth=args.depth, workers=args.workers, crash=args.crash
    )
    verdict = "ok" if result.ok else "FAIL"
    failed = failed or not result.ok
    print(
        f"{verdict:4s} model check: depth={result.depth} "
        f"workers={result.workers} crash={result.crash} "
        f"states={result.states} outcomes={result.outcomes} "
        f"wall={result.wall_seconds:.2f}s"
    )
    for violation in result.violations:
        print(render_trace(violation))

    mutant_rows = []
    if args.mutants:
        for name in sorted(MUTANT_MODELS):
            cls, expected = MUTANT_MODELS[name]
            mutant = check_protocol(
                cls(), depth=args.depth, workers=args.workers, crash=args.crash
            )
            caught = expected in mutant.codes()
            verdict = "ok" if caught else "FAIL"
            failed = failed or not caught
            print(
                f"{verdict:4s} mutant {name}: expected {expected}, "
                f"got {list(mutant.codes())} "
                f"(states={mutant.states}, wall={mutant.wall_seconds:.2f}s)"
            )
            mutant_rows.append(
                {
                    "mutant": name,
                    "expected": expected,
                    "caught": caught,
                    **mutant.to_json(),
                }
            )

    if args.timings_out:
        payload: dict = {
            "effect_findings": len(findings),
            "protocol": result.to_json(),
        }
        if mutant_rows:
            payload["mutants"] = mutant_rows
        serialized = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write_bytes(Path(args.timings_out), serialized.encode("utf-8"))
    return 1 if failed else 0


def _cmd_rules(args) -> int:
    print("Plan verifier (repro-check plan):")
    for rule in sorted(PLAN_RULES):
        print(f"  {rule}  {PLAN_RULES[rule]}")
    print("\nDeterminism linter (repro-check lint):")
    for rule in sorted(LINT_RULES):
        print(f"  {rule}  {LINT_RULES[rule]}")
    print("\nQueue-protocol checker (repro-check protocol):")
    for rule in sorted(PROTOCOL_RULES):
        print(f"  {rule}  {PROTOCOL_RULES[rule]}")
    return 0


_COMMANDS = {
    "plan": _cmd_plan,
    "lint": _cmd_lint,
    "conform": _cmd_conform,
    "protocol": _cmd_protocol,
    "rules": _cmd_rules,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
