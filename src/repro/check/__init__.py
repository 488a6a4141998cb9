"""Static analysis for the repro stack: plan verifier + determinism linter.

Two passes, both milliseconds-cheap, guarding invariants the campaign
stack otherwise only discovers through expensive end-to-end bit-identity
runs:

- :func:`check_plan` / :func:`verify_plan` — abstract interpretation
  over a captured :class:`~repro.runtime.plan.ExecutionPlan` (shapes,
  dtypes, SSA slots, ``affected_ops`` soundness, cache safety,
  batch-invariance audit).  Wired into every plan trust boundary:
  ``capture_plan``, ``PlanEngine.__init__`` and the distributed merge
  (shards must attest a verified plan fingerprint).
- :func:`lint_paths` — AST determinism rules (D201–D206) over the
  source tree, with inline suppressions and a committed baseline.
- :mod:`repro.check.protocol` — the distributed queue protocol, proved
  two ways: :func:`check_protocol` model-checks every crash
  interleaving of the abstract queue (Q310–Q314) and
  :func:`check_effects` statically matches the real ``repro.dist``
  source against its declared filesystem-effect spec (Q301–Q306).

``repro-check`` (:mod:`repro.cli.check`) is the CLI front end.
"""

from repro.check.baseline import load_baseline, new_findings, save_baseline
from repro.check.diagnostics import (
    LINT_RULES,
    PLAN_RULES,
    PROTOCOL_RULES,
    Diagnostic,
    PlanVerificationError,
)
from repro.check.protocol import (
    MUTANT_MODELS,
    ProtocolCheckResult,
    ProtocolFinding,
    ProtocolModel,
    Scenario,
    Violation,
    check_effects,
    check_protocol,
    render_trace,
)
from repro.check.kernels import (
    ABSORPTION_KINDS,
    KERNEL_TABLE,
    KernelSpec,
    ShapeError,
    absorption_spec,
)
from repro.check.lint import (
    LintFinding,
    lint_file,
    lint_paths,
    lint_source,
    rule_catalog,
)
from repro.check.conformance import (
    ConformanceReport,
    OpConformanceResult,
    run_conformance,
    run_op_conformance,
)
from repro.check.opdb import OP_SAMPLES, OpSample, opdb_kinds, samples_for
from repro.check.plan import (
    DEFAULT_INPUT_SHAPE,
    check_plan,
    check_plan_vectorized,
    compatible_fingerprints,
    declare_fingerprints_compatible,
    fingerprints_compatible,
    is_plan_verified,
    mark_plan_verified,
    plan_fingerprint,
    verify_plan,
    verify_plan_vectorized,
)

__all__ = [
    "LINT_RULES",
    "PLAN_RULES",
    "PROTOCOL_RULES",
    "Diagnostic",
    "PlanVerificationError",
    "MUTANT_MODELS",
    "ProtocolCheckResult",
    "ProtocolFinding",
    "ProtocolModel",
    "Scenario",
    "Violation",
    "check_effects",
    "check_protocol",
    "render_trace",
    "ABSORPTION_KINDS",
    "ConformanceReport",
    "KERNEL_TABLE",
    "KernelSpec",
    "ShapeError",
    "absorption_spec",
    "OP_SAMPLES",
    "OpConformanceResult",
    "OpSample",
    "opdb_kinds",
    "run_conformance",
    "run_op_conformance",
    "samples_for",
    "LintFinding",
    "lint_file",
    "lint_paths",
    "lint_source",
    "rule_catalog",
    "load_baseline",
    "new_findings",
    "save_baseline",
    "DEFAULT_INPUT_SHAPE",
    "check_plan",
    "check_plan_vectorized",
    "compatible_fingerprints",
    "declare_fingerprints_compatible",
    "fingerprints_compatible",
    "is_plan_verified",
    "mark_plan_verified",
    "plan_fingerprint",
    "verify_plan",
    "verify_plan_vectorized",
]
