"""The kernel-backend layer: resolution, attestation, parity.

Covers the ``repro.backends`` contract end to end: resolution (the given
:class:`Backend` instance, else the shared numpy reference), per-kernel
agreement between the reference backend and :mod:`repro.nn.functional`,
backend-qualified plan fingerprints, the non-reference plan engine's
full-op seeding path (through the test-local :class:`ForeignBackend`), and
the engine-level restrictions (module and vectorized engines are
reference-only).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.functional as F
from repro.backends import (
    BACKEND_OP_KINDS,
    BACKEND_PRIMITIVES,
    REFERENCE_BACKEND,
    Backend,
    NumpyBackend,
    resolve_backend,
)
from repro.faults import Fault, FaultModel
from repro.nn import Conv2d, Linear
from repro.runtime import PlanEngine, capture_plan, create_engine
from tests.helpers import ForeignBackend


class TestRegistry:
    """The shared reference instance and the trait-declaration contract."""

    def test_numpy_backend_registered_and_reference(self):
        backend = resolve_backend(None)
        assert isinstance(backend, NumpyBackend)
        assert backend.name == "numpy"
        assert backend.is_reference
        assert backend.version == np.__version__

    def test_instances_are_cached(self):
        assert resolve_backend(None) is REFERENCE_BACKEND
        assert resolve_backend() is resolve_backend(None)

    def test_backend_must_declare_every_op_kind(self):
        class Partial(Backend):
            name = "partial"
            OP_TOLERANCE = {"conv2d": "bitexact"}
            OP_INVARIANCE = {"conv2d": "kernel"}

        with pytest.raises(TypeError, match="linear"):
            Partial()


class TestResolution:
    def test_default_is_reference(self):
        assert resolve_backend(None).name == "numpy"

    def test_instance_passes_through(self):
        backend = ForeignBackend()
        assert resolve_backend(backend) is backend

    def test_backend_names_are_refused(self, tiny_model):
        with pytest.raises(TypeError, match="Backend instance"):
            resolve_backend("numpy")
        with pytest.raises(TypeError, match="Backend instance"):
            capture_plan(tiny_model, backend="numpy")


class TestAttestation:
    def test_attestation_covers_every_kind_and_primitive(self):
        attestation = REFERENCE_BACKEND.attestation()
        declared = set(attestation["ops"])
        assert declared == set(BACKEND_OP_KINDS) | set(BACKEND_PRIMITIVES)

    def test_attestation_is_deterministic(self):
        backend = REFERENCE_BACKEND
        assert backend.attestation() == backend.attestation()

    def test_attestation_carries_name_and_version(self):
        attestation = REFERENCE_BACKEND.attestation()
        assert attestation["name"] == "numpy"
        assert attestation["version"] == np.__version__


class TestReferenceKernels:
    """The numpy backend is a pure reorganisation of nn.functional."""

    def test_conv2d_matches_functional(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        conv = Conv2d(3, 5, 3, stride=1, padding=1, bias=True, rng=rng)
        out = REFERENCE_BACKEND.conv2d(
            x, conv.weight.data, conv.bias.data, stride=1, padding=1
        )
        expected = F.conv2d(
            x, conv.weight.data, conv.bias.data, stride=1, padding=1
        )
        np.testing.assert_array_equal(out, expected)

    def test_linear_matches_functional(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32)
        layer = Linear(7, 3, rng=rng)
        out = REFERENCE_BACKEND.linear(x, layer.weight.data, layer.bias.data)
        expected = F.linear(x, layer.weight.data, layer.bias.data)
        np.testing.assert_array_equal(out, expected)

    def test_relu_and_pad_match_functional(self, rng):
        x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        backend = REFERENCE_BACKEND
        np.testing.assert_array_equal(backend.relu(x), F.relu(x))
        np.testing.assert_array_equal(
            backend.pad_channels(x, 2, 3), F.pad_channels(x, 2, 3)
        )


class TestPlanBackendWiring:
    def test_bare_plan_defaults_to_reference(self, tiny_model):
        plan = capture_plan(tiny_model)
        assert plan.backend is REFERENCE_BACKEND

    def test_fingerprint_unqualified_on_reference(self, tiny_model):
        from repro.check import plan_fingerprint

        plan = capture_plan(tiny_model)
        explicit = plan_fingerprint(plan, backend=plan.backend)
        assert plan_fingerprint(plan) == explicit

    def test_fingerprint_qualified_on_non_reference(self, tiny_model):
        from repro.check import plan_fingerprint

        plan = capture_plan(tiny_model)
        reference = plan_fingerprint(plan)
        qualified = plan_fingerprint(plan, backend=ForeignBackend())
        assert qualified != reference


@pytest.fixture(scope="module")
def foreign_engines(tiny_model, tiny_eval_set):
    images, labels = tiny_eval_set
    return (
        PlanEngine(tiny_model, images, labels, batch_size=8),
        create_engine(
            tiny_model,
            images,
            labels,
            kind="plan",
            batch_size=8,
            backend=ForeignBackend(),
        ),
    )


class TestForeignBackendParity:
    """A non-reference plan engine seeds every fault from the full faulty
    op; on reference numerics it must classify exactly as the reference
    engine does."""

    def test_plan_engine_classifies_like_reference(self, foreign_engines):
        reference, foreign = foreign_engines
        rng = np.random.default_rng(11)
        # Every layer, both stuck-at models and the bit flip, one mantissa
        # bit and three exponent bits (30 drives weights to inf/NaN scale).
        sample = [
            Fault(
                layer=layer,
                index=int(rng.integers(reference.layers[layer].size)),
                bit=bit,
                model=model,
            )
            for layer in range(len(reference.layers))
            for bit in (10, 23, 27, 30)
            for model in FaultModel
        ]
        np.testing.assert_array_equal(
            foreign.predictions_for_faults(sample),
            reference.predictions_for_faults(sample),
        )
        assert foreign.classify_many(sample) == reference.classify_many(
            sample
        )


class TestEngineRestrictions:
    def test_module_engine_refuses_non_reference(
        self, tiny_model, tiny_eval_set
    ):
        images, labels = tiny_eval_set
        with pytest.raises(ValueError, match="module"):
            create_engine(
                tiny_model,
                images,
                labels,
                kind="module",
                backend=ForeignBackend(),
            )

    def test_vectorized_engine_refuses_non_reference(
        self, tiny_model, tiny_eval_set
    ):
        images, labels = tiny_eval_set
        with pytest.raises(ValueError, match="reference"):
            create_engine(
                tiny_model,
                images,
                labels,
                kind="plan_vectorized",
                backend=ForeignBackend(),
            )

    def test_plan_engine_reference_backend_unchanged(
        self, tiny_model, tiny_eval_set
    ):
        images, labels = tiny_eval_set
        engine = create_engine(tiny_model, images, labels, kind="plan")
        assert engine.backend.is_reference


class TestCampaignConfigBackend:
    def test_reference_config_has_no_backend_key(
        self, tiny_model, tiny_eval_set
    ):
        from repro.faults import FaultSpace
        from repro.faults.table import campaign_config

        images, labels = tiny_eval_set
        engine = create_engine(tiny_model, images, labels, kind="plan")
        config = campaign_config(engine, FaultSpace(engine.layers))
        assert "backend" not in config

    def test_non_reference_config_carries_attestation(
        self, tiny_model, tiny_eval_set
    ):
        from repro.faults import FaultSpace
        from repro.faults.table import campaign_config

        images, labels = tiny_eval_set
        engine = create_engine(
            tiny_model, images, labels, kind="plan", backend=ForeignBackend()
        )
        config = campaign_config(engine, FaultSpace(engine.layers))
        assert config["backend"]["name"] == "foreign"
        assert "ops" in config["backend"]
