"""Diagnostic records shared by the static verification passes.

Every finding carries a stable rule id (``P1xx`` for plan rules,
``D2xx`` for determinism-lint rules, ``Q3xx`` for queue-protocol rules)
so tests can assert on the *class* of a rejection and CI baselines can
match findings across line-number churn.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Plan-verifier rules.  Errors make :func:`repro.check.check_plan`
#: raise; warnings are surfaced by ``repro-check plan`` (and fail the
#: run only under ``--strict``).
PLAN_RULES: dict[str, str] = {
    "P101": "unknown op kind",
    "P102": "SSA discipline violated: duplicate slot assignment, output "
    "aliasing an input, out-of-range output slot, or bad op indexing",
    "P103": "read-before-write: an op consumes a slot no earlier op defined",
    "P104": "shape-infeasible: abstract shape propagation cannot execute "
    "the op (rank/extent/parameter mismatch)",
    "P105": "bad parameter dtype: op parameters must be float32",
    "P106": "output-slot contract violated: the plan output is undefined "
    "or not the last op's result",
    "P110": "affected_ops unsound: a transitively dependent op is missing "
    "(stale golden cache would be served) or the set is out of order",
    "P111": "affected_ops over-approximates: an independent op would be "
    "recomputed (correct but wasted work)",
    "P112": "cache-unsafe dataflow: an op's output cannot reach the plan "
    "output (a faulted module op would silently have no effect)",
    "P120": "batch_invariant flag disagrees with the static kernel "
    "classification table",
    "P121": "op kind is not classified in the kernel table (new kernels "
    "must be vetted for batch invariance before capture)",
    "P123": "no absorption row for this op: the vectorized certifier "
    "cannot bound fault propagation through it, so rows reaching it "
    "never certify (exact fallback, correct but no speedup)",
}

#: Queue-protocol rules (see :mod:`repro.check.protocol`).  Q301–Q306
#: come from the static filesystem-effect pass over the real
#: ``repro.dist`` source; Q310–Q314 from the crash-interleaving model
#: checker's safety invariants.
PROTOCOL_RULES: dict[str, str] = {
    "Q301": "declared protocol method missing from the source (the "
    "effect spec in repro.dist.effects no longer matches the code)",
    "Q302": "undeclared filesystem effect: a protocol method performs a "
    "write/rename/unlink the declared effect sequence does not allow "
    "(includes any direct effect in repro.dist.rebalance, which must "
    "act only through the ShardQueue API)",
    "Q303": "declared effect missing: a non-optional step of the "
    "protocol (e.g. the cleanup unlink after a commit) was dropped",
    "Q304": "effect order violation: an effect moved past its declared "
    "position (e.g. a rename or result write reordered across the "
    "campaign.json commit point)",
    "Q305": "non-atomic write primitive in a protocol module (open('w'), "
    "write_text, ...) — crash safety requires repro.store atomic "
    "helpers",
    "Q306": "unresolvable path role: a protocol method touches a path "
    "the effect extractor cannot classify, so its crash safety cannot "
    "be checked",
    "Q310": "shard lost: an explored schedule + crash point leaves a "
    "campaign shard (or one of its units) unrecoverable by "
    "recover_splits/release_expired",
    "Q311": "duplicate consumption: two done results feed the same unit "
    "into the merge (overlapping split partition or double-merged "
    "shard)",
    "Q312": "unrecoverable residue: recovery leaves a .splitting or "
    "leased spec behind, or the recovery drain fails to quiesce",
    "Q313": "split replay nondeterminism: the recorded split does not "
    "re-derive the campaign's shard list (resume/recovery would "
    "rebuild a different campaign)",
    "Q314": "schedule-dependent merge: the canonical merged table "
    "differs between two explored schedules (execution history leaks "
    "into results)",
}

#: Determinism-linter rules (see :mod:`repro.check.lint`).
LINT_RULES: dict[str, str] = {
    "D201": "unseeded RNG: np.random.* legacy calls, default_rng() with "
    "no seed, or stdlib random — campaign results must derive from "
    "SeedSequence plumbing",
    "D202": "set/frozenset iteration in ordered context: iteration order "
    "is undefined and may flow into serialized output",
    "D203": "wall clock reaches serialized output: time.time()/"
    "datetime.now() in a function that also writes fingerprints, "
    "hashes, or artifacts",
    "D204": "file write bypasses repro.store atomic helpers (torn files "
    "on crash; no fsync+rename discipline)",
    "D205": "json.dump(s) without sort_keys=True: dict ordering leaks "
    "into serialized/hashed bytes",
    "D206": "unsorted directory listing iterated in ordered context: "
    "glob/iterdir/listdir order is filesystem-dependent",
}


@dataclass(frozen=True)
class Diagnostic:
    """One plan-verifier finding."""

    rule: str
    severity: str  # "error" | "warning"
    message: str
    op_index: int | None = None

    def __str__(self) -> str:
        where = "" if self.op_index is None else f" op {self.op_index}:"
        return f"{self.rule} [{self.severity}]{where} {self.message}"


class PlanVerificationError(ValueError):
    """Raised by :func:`repro.check.check_plan` when a plan has errors."""

    def __init__(self, diagnostics: list[Diagnostic]) -> None:
        self.diagnostics = list(diagnostics)
        errors = [d for d in self.diagnostics if d.severity == "error"]
        lines = "\n".join(f"  {d}" for d in errors)
        super().__init__(
            f"execution plan failed verification ({len(errors)} error(s)):\n"
            f"{lines}"
        )

    @property
    def rules(self) -> set[str]:
        return {d.rule for d in self.diagnostics if d.severity == "error"}
