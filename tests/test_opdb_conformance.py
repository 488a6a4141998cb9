"""op_db registry completeness and the per-op conformance checks.

Two guarantees:

- **Completeness** — every op kind the plan engine can emit has a
  :data:`~repro.check.kernels.KERNEL_TABLE` row, a reference-backend
  dispatch entry, and at least one op_db sample generator.  Adding a new
  op kind without all three fails here, in tier 1, before any campaign
  can silently run an unchecked kernel.
- **Falsifiability** — the conformance runner actually catches lies: a
  backend that mis-declares batch invariance or a bit-exact tolerance
  class, or a kernel-table row that claims channel separability for a
  channel-mixing conv, is flagged by the empirical checks (mutation
  tests).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import (
    BACKEND_OP_KINDS,
    BACKEND_PRIMITIVES,
    REFERENCE_BACKEND,
    NumpyBackend,
)
from repro.check import KERNEL_TABLE, run_op_conformance
from repro.check.opdb import OP_SAMPLES, opdb_kinds, samples_for
from repro.runtime.plan import OP_KINDS


class TestRegistryCompleteness:
    def test_every_plan_kind_has_a_kernel_table_row(self):
        assert OP_KINDS <= set(KERNEL_TABLE)

    def test_every_plan_kind_has_a_backend_dispatch_entry(self):
        assert OP_KINDS <= REFERENCE_BACKEND.op_kinds()

    def test_every_plan_kind_has_an_opdb_sample(self):
        assert OP_KINDS <= opdb_kinds()

    def test_primitives_have_opdb_samples(self):
        assert set(BACKEND_PRIMITIVES) <= opdb_kinds()

    def test_opdb_covers_exactly_the_backend_surface(self):
        surface = set(BACKEND_OP_KINDS) | set(BACKEND_PRIMITIVES)
        assert opdb_kinds() == surface

    def test_backend_surface_matches_plan_kinds(self):
        # BACKEND_OP_KINDS is the dispatch contract every backend must
        # implement; it must track the plan vocabulary exactly.
        assert set(BACKEND_OP_KINDS) == OP_KINDS

    def test_sample_names_are_unique_per_kind(self):
        for kind, samples in OP_SAMPLES.items():
            names = [sample.name for sample in samples]
            assert len(names) == len(set(names)), kind

    def test_samples_for_unknown_kind_is_empty(self):
        assert samples_for("no_such_kind") == ()


class TestConformancePasses:
    def test_reference_backend_is_clean(self):
        results = run_op_conformance(backends=[REFERENCE_BACKEND])
        bad = [r for r in results if not r.ok]
        assert not bad, [r.to_dict() for r in bad]

    def test_every_kind_is_exercised(self):
        results = run_op_conformance(backends=[REFERENCE_BACKEND])
        exercised = {r.kind for r in results}
        assert OP_KINDS <= exercised
        assert set(BACKEND_PRIMITIVES) <= exercised

    def test_channel_slice_covers_every_claimed_sample(self):
        results = run_op_conformance(backends=[REFERENCE_BACKEND])
        sliced = {
            (r.kind, r.sample) for r in results if r.check == "channel_slice"
        }
        assert {kind for kind, _ in sliced} == {
            "conv2d",
            "batchnorm2d",
            "relu",
            "relu6",
            "subsample2d",
            "pad_channels",
        }
        # Depthwise convs at stride 1 and 2, a 7-row batch, denormal and
        # non-contiguous inputs; no channel-mixing conv is claimed.
        assert {s for kind, s in sliced if kind == "conv2d"} == {
            "depthwise",
            "depthwise_stride2_batch7",
            "depthwise_denormal",
            "depthwise_noncontig",
        }

    def test_results_are_deterministic(self):
        backends = [REFERENCE_BACKEND]
        first = [r.to_dict() for r in run_op_conformance(backends=backends)]
        second = [r.to_dict() for r in run_op_conformance(backends=backends)]
        assert first == second


class _BatchCheatBackend(NumpyBackend):
    """Keeps the honest relu="always" claim but leaks batch size into it."""

    name = "batch_cheat"
    is_reference = False

    def relu(self, x):
        # A batch-size-dependent result: the output shifts by an amount
        # proportional to the batch, so a stacked run can never bit-equal
        # the concatenation of its split halves.
        return np.maximum(x, 0.0) + np.float32(1e-3) * x.shape[0]


class _ToleranceCheatBackend(NumpyBackend):
    """Claims bit-exactness while perturbing linear outputs."""

    name = "tolerance_cheat"
    is_reference = False

    def linear(self, x, weight, bias=None):
        return super().linear(x, weight, bias) * np.float32(1.0 + 1e-6)


class TestMutationCatches:
    """The op_db checks must falsify mis-declared backend claims."""

    def test_false_batch_invariance_claim_is_caught(self):
        results = run_op_conformance(backends=[_BatchCheatBackend()])
        failed = [
            r
            for r in results
            if not r.ok
            and r.check == "batch_invariance"
            and r.kind == "relu"
        ]
        assert failed, "stacking check did not falsify the invariance lie"

    def test_false_bitexact_claim_is_caught(self):
        results = run_op_conformance(backends=[_ToleranceCheatBackend()])
        failed = [
            r
            for r in results
            if not r.ok and r.check == "agreement" and r.kind == "linear"
        ]
        assert failed, "agreement check did not falsify the tolerance lie"

    @pytest.mark.parametrize("sample", ["grouped", "pointwise"])
    def test_false_channel_separability_claim_is_caught(
        self, monkeypatch, sample
    ):
        conv = KERNEL_TABLE["conv2d"]
        monkeypatch.setitem(
            KERNEL_TABLE,
            "conv2d",
            dataclasses.replace(conv, channel_separable=lambda op: True),
        )
        results = run_op_conformance(kinds=["conv2d"])
        failed = [
            r
            for r in results
            if not r.ok and r.check == "channel_slice" and r.sample == sample
        ]
        assert failed, "channel_slice check did not falsify the claim"

    def test_honest_subclass_passes(self):
        # Control: the same harness does not flag an honest backend.
        class Honest(NumpyBackend):
            name = "honest"
            is_reference = False

        results = run_op_conformance(backends=[Honest()])
        assert all(r.ok for r in results)
