"""Transient activation (neuron) fault injection.

The paper targets the static parameters (weights); tools like PyTorchFI
also inject into *activations* — the feature maps flowing between layers —
to model faults in datapath logic rather than memory.  This module extends
the same statistical machinery to that fault model:

- An :class:`ActivationSite` is one stage-output tensor position (per-image
  flat index); a fault at a site corrupts that position for **every** image
  of the evaluation batch, modelling a faulty compute unit that hits the
  same output location on each inference.
- :class:`ActivationFaultSpace` reuses the weight-space id arithmetic
  (sites play the role of layers), so the network/layer/bit partitioners
  and every planner work unchanged.
- :class:`ActivationInferenceEngine` classifies activation faults with the
  same prefix-cache trick: the golden output of stage *s* is corrupted in
  place of recomputing it, and only stages ``s+1..`` run.  It implements
  the :class:`~repro.faults.oracle.Oracle` protocol, so campaign runners
  take it directly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.faults.engine import FaultOutcome, classify_predictions
from repro.faults.model import Fault, FaultModel
from repro.faults.space import FaultSpace
from repro.ieee754 import FLOAT32, FloatFormat, apply_stuck_at, flip_bit
from repro.nn import Module

#: Transient bit-flips are the canonical activation fault model.
TRANSIENT_MODELS = (FaultModel.BIT_FLIP,)


@dataclass(frozen=True)
class ActivationSite:
    """One stage-output tensor in the model's forward dataflow.

    Attributes
    ----------
    index:
        Position in the site ordering (plays the role of a layer index in
        :class:`repro.faults.FaultSpace` id arithmetic).
    stage:
        Index of the stage whose *output* this site corrupts.
    shape:
        Per-image activation shape (without the batch dimension).
    """

    index: int
    stage: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of per-image activation elements."""
        out = 1
        for dim in self.shape:
            out *= dim
        return out


class ActivationFaultSpace(FaultSpace):
    """Fault population over a model's activation sites.

    Constructed from an :class:`ActivationInferenceEngine`; the ``layers``
    of the base class become activation sites, so every subpopulation
    partitioner and planner built for weight faults applies verbatim.
    """

    def __init__(
        self,
        engine: "ActivationInferenceEngine",
        *,
        fault_models=TRANSIENT_MODELS,
    ) -> None:
        super().__init__(
            engine.sites, fmt=engine.fmt, fault_models=fault_models
        )


class ActivationInferenceEngine:
    """Classifies activation faults over a fixed evaluation batch."""

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        fmt: FloatFormat = FLOAT32,
        policy: str = "accuracy_drop",
        threshold: float = 0.0,
        include_logits: bool = False,
    ) -> None:
        if not hasattr(model, "stage_modules"):
            raise TypeError(
                "model must expose stage_modules() for prefix caching"
            )
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same length")
        model.eval()
        self.model = model
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels)
        self.fmt = fmt
        self.policy = policy
        self.threshold = threshold
        self.stages: list[Module] = model.stage_modules()
        self._activations = [self.images]
        for stage in self.stages:
            self._activations.append(stage.forward_fast(self._activations[-1]))
        self.golden_predictions = self._activations[-1].argmax(axis=1)
        self.golden_accuracy = float(
            (self.golden_predictions == self.labels).mean()
        )
        last = len(self.stages) - 1 if not include_logits else len(self.stages)
        self.sites: list[ActivationSite] = [
            ActivationSite(
                index=i,
                stage=i,
                shape=tuple(self._activations[i + 1].shape[1:]),
            )
            for i in range(last)
        ]
        self.inference_count = 0

    def site_activation(self, site: ActivationSite) -> np.ndarray:
        """The golden output of *site*'s stage, shape (N, *site.shape)."""
        return self._activations[site.stage + 1]

    def _faulty_predictions(self, fault: Fault) -> np.ndarray | None:
        """Top-1 predictions with *fault* injected (None if masked).

        Corrupts a copy of the faulted stage's golden output and runs
        only the stages after it.
        """
        site = self.sites[fault.layer]
        golden = self.site_activation(site)
        flat = golden.reshape(len(golden), -1)
        bits = self.fmt.encode(flat[:, fault.index])
        stuck = fault.model.stuck_value
        if stuck is None:
            corrupted = flip_bit(self.fmt, bits, fault.bit)
        else:
            corrupted = apply_stuck_at(self.fmt, bits, fault.bit, stuck)
        if np.array_equal(corrupted, bits):
            return None
        x = flat.copy()
        x[:, fault.index] = self.fmt.decode_native(corrupted).astype(np.float32)
        x = x.reshape(golden.shape)
        with np.errstate(all="ignore"):
            for stage in self.stages[site.stage + 1 :]:
                x = stage.forward_fast(x)
        self.inference_count += 1
        return x.argmax(axis=1)

    def predictions_with_fault(self, fault: Fault) -> np.ndarray:
        """Top-1 predictions with *fault* injected (runs inference)."""
        predictions = self._faulty_predictions(fault)
        return self.golden_predictions if predictions is None else predictions

    def classify(self, fault: Fault) -> FaultOutcome:
        """Outcome of injecting *fault* into the activation stream."""
        predictions = self._faulty_predictions(fault)
        if predictions is None:
            return FaultOutcome.MASKED
        return classify_predictions(
            predictions,
            self.golden_predictions,
            self.labels,
            policy=self.policy,
            threshold=self.threshold,
        )

    def classify_many(self, faults: Sequence[Fault]) -> list[FaultOutcome]:
        """Outcomes of a batch of faults, in input order."""
        return [self.classify(fault) for fault in faults]
