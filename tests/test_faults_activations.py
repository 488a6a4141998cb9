"""Tests for repro.faults.activations."""

import numpy as np
import pytest

from repro.data import SynthCIFAR
from repro.faults import (
    ActivationFaultSpace,
    ActivationInferenceEngine,
    ActivationSite,
    Fault,
    FaultModel,
    FaultOutcome,
)
from repro.models import ResNetCIFAR
from repro.sfi import CampaignRunner, DataUnawareSFI, LayerWiseSFI


@pytest.fixture(scope="module")
def engine(tiny_model, tiny_eval_set):
    images, labels = tiny_eval_set
    return ActivationInferenceEngine(tiny_model, images, labels)


@pytest.fixture(scope="module")
def space(engine):
    return ActivationFaultSpace(engine)


class TestSites:
    def test_sites_cover_all_intermediate_stages(self, engine):
        # Stages minus the logits stage by default.
        assert len(engine.sites) == len(engine.stages) - 1

    def test_site_shapes_match_activations(self, engine):
        for site in engine.sites:
            activation = engine.site_activation(site)
            assert activation.shape[1:] == site.shape
            assert site.size == int(np.prod(site.shape))

    def test_include_logits_option(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        with_logits = ActivationInferenceEngine(
            tiny_model, images, labels, include_logits=True
        )
        assert len(with_logits.sites) == len(with_logits.stages)

    def test_population_arithmetic(self, engine, space):
        elements = sum(site.size for site in engine.sites)
        assert space.total_population == elements * 32  # one flip per bit


class TestClassification:
    def test_flip_on_high_exponent_changes_predictions(self, engine):
        """Exploding one activation element across the batch must perturb
        the logits downstream."""
        fault = Fault(layer=0, index=0, bit=30, model=FaultModel.BIT_FLIP)
        predictions = engine.predictions_with_fault(fault)
        assert predictions.shape == engine.golden_predictions.shape

    def test_mantissa_lsb_flip_is_benign(self, engine):
        fault = Fault(layer=1, index=5, bit=0, model=FaultModel.BIT_FLIP)
        outcome = engine.classify(fault)
        assert outcome in (FaultOutcome.NON_CRITICAL, FaultOutcome.MASKED)

    def test_stuck_at_can_be_masked(self, tiny_model, tiny_eval_set):
        """ReLU outputs are non-negative: stuck-at-0 on the sign bit is
        masked for every image."""
        images, labels = tiny_eval_set
        engine = ActivationInferenceEngine(tiny_model, images, labels)
        fault = Fault(layer=0, index=3, bit=31, model=FaultModel.STUCK_AT_0)
        assert engine.classify(fault) is FaultOutcome.MASKED

    def test_transient_flip_never_masked_on_sign(self, engine):
        fault = Fault(layer=0, index=3, bit=31, model=FaultModel.BIT_FLIP)
        assert engine.classify(fault) is not FaultOutcome.MASKED

    def test_corruption_does_not_leak_into_cache(self, engine):
        """Classifying a fault must not mutate the cached golden
        activations."""
        site = engine.sites[0]
        before = engine.site_activation(site).copy()
        fault = Fault(layer=0, index=0, bit=30, model=FaultModel.BIT_FLIP)
        engine.classify(fault)
        np.testing.assert_array_equal(engine.site_activation(site), before)

    def test_prefix_equals_full_recomputation(self, tiny_model, tiny_eval_set):
        """Corrupting the cached stage output then running the suffix must
        equal corrupting inside a full manual forward."""
        images, labels = tiny_eval_set
        engine = ActivationInferenceEngine(tiny_model, images, labels)
        fault = Fault(layer=1, index=7, bit=30, model=FaultModel.BIT_FLIP)
        fast = engine.predictions_with_fault(fault)

        x = images
        stages = tiny_model.stage_modules()
        with np.errstate(all="ignore"):
            for idx, stage in enumerate(stages):
                x = stage.forward_fast(x)
                if idx == 1:
                    flat = x.reshape(len(x), -1)
                    from repro.ieee754 import FLOAT32, flip_bit

                    bits = FLOAT32.encode(flat[:, 7])
                    flat[:, 7] = FLOAT32.decode_native(flip_bit(FLOAT32, bits, 30))
                    x = flat.reshape(x.shape)
        np.testing.assert_array_equal(fast, x.argmax(axis=1))


class TestCampaignsOverActivations:
    def test_planners_work_on_activation_space(self, space):
        plan = LayerWiseSFI(error_margin=0.05, confidence=0.95).plan(space)
        assert len(plan.items) == len(space.layers)
        assert plan.total_injections > 0

    def test_statistical_campaign_runs(self, engine, space):
        plan = DataUnawareSFI(error_margin=0.2, confidence=0.9).plan(space)
        result = CampaignRunner(engine, space).run(plan, seed=0)
        assert result.total_injections == plan.total_injections
        net = result.network_estimate()
        assert 0.0 <= net.p_hat <= 1.0


class TestValidation:
    def test_requires_stage_modules(self, tiny_eval_set):
        from repro.nn import Linear, Sequential

        images, labels = tiny_eval_set
        with pytest.raises(TypeError):
            ActivationInferenceEngine(
                Sequential(Linear(4, 4)), images, labels
            )

    def test_mismatched_labels(self, tiny_model, tiny_eval_set):
        images, labels = tiny_eval_set
        with pytest.raises(ValueError):
            ActivationInferenceEngine(tiny_model, images, labels[:-1])

    def test_site_dataclass(self):
        site = ActivationSite(index=0, stage=2, shape=(4, 8, 8))
        assert site.size == 256
