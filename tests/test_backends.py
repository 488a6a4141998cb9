"""The kernel-backend layer: registry, resolution, attestation, parity.

Covers the ``repro.backends`` contract end to end: name resolution
(explicit arg > ``REPRO_BACKEND`` > reference), graceful degradation
when a backend's library is missing, per-kernel agreement between the
reference backend and :mod:`repro.nn.functional`, backend-qualified
plan fingerprints, and the engine-level restrictions (module and
vectorized engines are reference-only).
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn.functional as F
from repro.backends import (
    BACKEND_ENV,
    BACKEND_OP_KINDS,
    BACKEND_PRIMITIVES,
    Backend,
    BackendUnavailableError,
    NumpyBackend,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.models import ResNetCIFAR
from repro.nn import Conv2d, Linear
from repro.runtime import capture_plan, create_engine


class TestRegistry:
    def test_numpy_backend_registered_and_reference(self):
        backend = get_backend("numpy")
        assert backend.name == "numpy"
        assert backend.is_reference
        assert backend.version == np.__version__

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_unknown_backend_lists_registered_names(self):
        with pytest.raises(BackendUnavailableError, match="numpy"):
            get_backend("no_such_backend")

    def test_available_backends_includes_reference(self):
        assert "numpy" in available_backends()

    def test_register_backend_round_trip(self):
        class Probe(NumpyBackend):
            name = "probe"
            is_reference = False

        register_backend("probe", Probe)
        try:
            assert get_backend("probe").name == "probe"
        finally:
            from repro.backends import _INSTANCES, _REGISTRY

            _REGISTRY.pop("probe", None)
            _INSTANCES.pop("probe", None)

    def test_backend_must_declare_every_op_kind(self):
        class Partial(Backend):
            name = "partial"
            OP_TOLERANCE = {"conv2d": "bitexact"}
            OP_INVARIANCE = {"conv2d": "kernel"}

        with pytest.raises(TypeError, match="linear"):
            Partial()


class TestResolution:
    def test_default_is_reference(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend(None).name == "numpy"

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "array_api")
        assert resolve_backend(None).name == "array_api"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "array_api")
        assert resolve_backend("numpy").name == "numpy"

    def test_instance_passes_through(self):
        backend = get_backend("numpy")
        assert resolve_backend(backend) is backend

    def test_blank_env_falls_back_to_reference(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "  ")
        assert resolve_backend(None).name == "numpy"


class TestAttestation:
    def test_attestation_covers_every_kind_and_primitive(self):
        attestation = get_backend("numpy").attestation()
        declared = set(attestation["ops"])
        assert declared == set(BACKEND_OP_KINDS) | set(BACKEND_PRIMITIVES)

    def test_attestation_is_deterministic(self):
        backend = get_backend("numpy")
        assert backend.attestation() == backend.attestation()

    def test_attestation_carries_name_and_version(self):
        attestation = get_backend("numpy").attestation()
        assert attestation["name"] == "numpy"
        assert attestation["version"] == np.__version__


class TestGracefulDegradation:
    def test_unavailable_backend_is_filtered_not_fatal(self):
        class Broken(Backend):
            name = "broken"
            OP_TOLERANCE = dict.fromkeys(
                (*BACKEND_OP_KINDS, *BACKEND_PRIMITIVES), "bitexact"
            )
            OP_INVARIANCE = dict.fromkeys(
                (*BACKEND_OP_KINDS, *BACKEND_PRIMITIVES), "always"
            )

            def __init__(self):
                raise BackendUnavailableError("library not installed")

        register_backend("broken", Broken)
        try:
            assert "broken" not in available_backends()
            with pytest.raises(BackendUnavailableError):
                get_backend("broken")
        finally:
            from repro.backends import _INSTANCES, _REGISTRY

            _REGISTRY.pop("broken", None)
            _INSTANCES.pop("broken", None)


class TestReferenceKernels:
    """The numpy backend is a pure reorganisation of nn.functional."""

    def test_conv2d_matches_functional(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        conv = Conv2d(3, 5, 3, stride=1, padding=1, bias=True, rng=rng)
        backend = get_backend("numpy")
        out = backend.conv2d(
            x, conv.weight.data, conv.bias.data, stride=1, padding=1
        )
        expected = F.conv2d(
            x, conv.weight.data, conv.bias.data, stride=1, padding=1
        )
        np.testing.assert_array_equal(out, expected)

    def test_linear_matches_functional(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32)
        layer = Linear(7, 3, rng=rng)
        backend = get_backend("numpy")
        out = backend.linear(x, layer.weight.data, layer.bias.data)
        expected = F.linear(x, layer.weight.data, layer.bias.data)
        np.testing.assert_array_equal(out, expected)

    def test_relu_and_pad_match_functional(self, rng):
        x = rng.standard_normal((2, 4, 5, 5)).astype(np.float32)
        backend = get_backend("numpy")
        np.testing.assert_array_equal(backend.relu(x), F.relu(x))
        np.testing.assert_array_equal(
            backend.pad_channels(x, 2, 3), F.pad_channels(x, 2, 3)
        )


class TestPlanBackendWiring:
    def test_bare_plan_defaults_to_reference(self, tiny_model):
        plan = capture_plan(tiny_model)
        assert plan.backend.is_reference

    def test_capture_plan_resolves_backend_name(self, tiny_model):
        plan = capture_plan(tiny_model, backend="numpy")
        assert plan.backend is get_backend("numpy")

    def test_fingerprint_unqualified_on_reference(self, tiny_model):
        from repro.check import plan_fingerprint

        plan = capture_plan(tiny_model)
        explicit = plan_fingerprint(plan, backend=plan.backend)
        assert plan_fingerprint(plan) == explicit

    def test_fingerprint_qualified_on_non_reference(self, tiny_model):
        from repro.check import plan_fingerprint

        class Shifted(NumpyBackend):
            name = "shifted"
            is_reference = False

        plan = capture_plan(tiny_model)
        reference = plan_fingerprint(plan)
        qualified = plan_fingerprint(plan, backend=Shifted())
        assert qualified != reference


@pytest.mark.skipif(
    "array_api" not in available_backends(),
    reason="no Array-API-compatible library importable here",
)
class TestArrayApiParity:
    def test_plan_outputs_within_tolerance(self, tiny_model, tiny_eval_set):
        images, _labels = tiny_eval_set
        x = images[:4]
        reference = capture_plan(tiny_model)
        alternate = capture_plan(tiny_model, backend="array_api")
        ref_out = reference.execute_all(x)[reference.output_slot]
        alt_out = alternate.execute_all(x)[alternate.output_slot]
        np.testing.assert_allclose(alt_out, ref_out, rtol=1e-5, atol=1e-6)

    def test_plan_engine_accepts_array_api(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        engine = create_engine(
            tiny_model, images, labels, kind="plan", backend="array_api"
        )
        assert engine.backend.name == "array_api"
        # The array_api backend claims "never" for matmul-backed kernels,
        # so no conv/linear op is ever stacked under it.
        assert not any(
            stackable
            for op, stackable in zip(engine.plan.ops, engine._stackable)
            if op.kind in ("conv2d", "linear")
        )


class TestEngineRestrictions:
    def _non_reference(self):
        class Shifted(NumpyBackend):
            name = "shifted"
            is_reference = False

        return Shifted()

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
                backend=self._non_reference(),
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
                backend=self._non_reference(),
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

        class Shifted(NumpyBackend):
            name = "shifted"
            is_reference = False

        images, labels = tiny_eval_set
        engine = create_engine(
            tiny_model, images, labels, kind="plan", backend=Shifted()
        )
        config = campaign_config(engine, FaultSpace(engine.layers))
        assert config["backend"]["name"] == "shifted"
        assert "ops" in config["backend"]


def test_exhaustive_table_path_backend_suffix():
    from repro.sfi.artifacts import exhaustive_table_path

    reference = exhaustive_table_path("resnet8_mini")
    alternate = exhaustive_table_path("resnet8_mini", backend="array_api")
    assert reference != alternate
    assert "_via_array_api" in alternate.name
