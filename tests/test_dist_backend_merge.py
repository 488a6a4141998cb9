"""Cross-backend shard mixing at the distributed merge boundary.

A non-reference kernel backend folds its attestation into the plan
fingerprint, so its shards carry a different fingerprint than the
reference campaign's.  The merge must refuse them — different backends
are different numerics — unless a verification pass explicitly declared
the two fingerprints outcome-compatible.  Campaigns submitted before
attestation existed keep merging untouched.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check import declare_fingerprints_compatible
from repro.data import SynthCIFAR
from repro.dist import (
    ExhaustiveContext,
    MergeError,
    ShardQueue,
    make_exhaustive_shards,
    merge_exhaustive,
    plan_attestation_runtime,
)
from repro.faults import FaultSpace
from repro.faults.table import cell_key
from repro.ieee754 import FLOAT16
from repro.models import ResNetCIFAR
from repro.runtime import PlanEngine
from tests.helpers import ForeignBackend


@pytest.fixture(scope="module")
def backend_setup():
    model = ResNetCIFAR(blocks_per_stage=1, widths=(2, 4, 6), seed=3)
    model.eval()
    data = SynthCIFAR("test", size=8, seed=42)
    reference = PlanEngine(model, data.images, data.labels, fmt=FLOAT16)
    shifted = PlanEngine(
        model,
        data.images,
        data.labels,
        fmt=FLOAT16,
        backend=ForeignBackend(),
    )
    space = FaultSpace(reference.layers, fmt=FLOAT16)
    return reference, shifted, space


def zero_arrays(spec, config):
    sizes = config["layer_sizes"]
    n_models = len(config["fault_models"])
    return {
        f"cell_{cell_key(int(u[0]), int(u[1]))}": np.zeros(
            (sizes[int(u[0])], n_models), dtype=np.uint8
        )
        for u in spec.units
    }


def submitted_queue(tmp_path, engine, space, *, runtime, shards=2):
    config, specs = make_exhaustive_shards(engine, space, shards=shards)
    queue = ShardQueue(tmp_path / "queue")
    queue.submit(specs, config=config, runtime=runtime)
    return queue, config, specs


class TestBackendIdentity:
    def test_backend_changes_the_plan_fingerprint(self, backend_setup):
        reference, shifted, _space = backend_setup
        assert shifted.plan_fingerprint != reference.plan_fingerprint

    def test_shifted_stamp_carries_backend(self, backend_setup):
        reference, shifted, space = backend_setup
        stamp = ExhaustiveContext(shifted, space).attestation()
        assert stamp["backend"] == {
            "name": "foreign",
            "version": np.__version__,
        }
        assert stamp["plan_verified"] is True

    def test_reference_stamp_has_no_backend_key(self, backend_setup):
        reference, _shifted, space = backend_setup
        stamp = ExhaustiveContext(reference, space).attestation()
        assert "backend" not in stamp


class TestCrossBackendMerge:
    def test_undeclared_cross_backend_shard_refused(
        self, backend_setup, tmp_path
    ):
        reference, shifted, space = backend_setup
        queue, config, specs = submitted_queue(
            tmp_path, reference, space,
            runtime=plan_attestation_runtime(reference),
        )
        ref_stamp = ExhaustiveContext(reference, space).attestation()
        foreign = dict(ExhaustiveContext(shifted, space).attestation())
        # Strip any compatibility other tests may have declared in this
        # process: the refusal must hold on the fingerprints alone.
        foreign.pop("plan_compatible_with", None)
        queue.complete(specs[0], zero_arrays(specs[0], config), meta=ref_stamp)
        queue.complete(specs[1], zero_arrays(specs[1], config), meta=foreign)
        from repro.check import plan as check_plan_mod

        saved = check_plan_mod._COMPATIBLE_FINGERPRINTS
        check_plan_mod._COMPATIBLE_FINGERPRINTS = {}
        try:
            with pytest.raises(MergeError, match="does not attest"):
                merge_exhaustive(queue)
        finally:
            check_plan_mod._COMPATIBLE_FINGERPRINTS = saved

    def test_declared_compatible_shard_accepted(
        self, backend_setup, tmp_path
    ):
        reference, shifted, space = backend_setup
        queue, config, specs = submitted_queue(
            tmp_path, reference, space,
            runtime=plan_attestation_runtime(reference),
        )
        declare_fingerprints_compatible(
            shifted.plan_fingerprint, reference.plan_fingerprint
        )
        ref_stamp = ExhaustiveContext(reference, space).attestation()
        foreign = ExhaustiveContext(shifted, space).attestation()
        assert reference.plan_fingerprint in foreign["plan_compatible_with"]
        queue.complete(specs[0], zero_arrays(specs[0], config), meta=ref_stamp)
        queue.complete(specs[1], zero_arrays(specs[1], config), meta=foreign)
        table = merge_exhaustive(queue)
        assert table.num_layers == len(config["layer_sizes"])

    def test_legacy_campaign_merges_without_backend_attestation(
        self, backend_setup, tmp_path
    ):
        # Queues submitted before plan/backend attestation carry no
        # plan_sha256; cross-backend stamps must not break their merge.
        reference, shifted, space = backend_setup
        queue, config, specs = submitted_queue(
            tmp_path, reference, space, runtime={},
        )
        foreign = ExhaustiveContext(shifted, space).attestation()
        for spec in specs:
            queue.complete(spec, zero_arrays(spec, config), meta=foreign)
        table = merge_exhaustive(queue)
        assert table.num_layers == len(config["layer_sizes"])
