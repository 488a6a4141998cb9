"""Prefix-cached fast inference for fault-injection campaigns.

Running the full test set through the network for every injected fault is
what made the paper's exhaustive campaigns take 37-54 days.  Two standard
engineering observations make laptop-scale exhaustive campaigns possible
here:

1. **Masked faults need no inference.**  A stuck-at fault whose target bit
   already holds the stuck value leaves the weight bit-identical; it can
   never affect the output.  Half of all stuck-at faults are masked on
   average.
2. **Prefix caching.**  A weight fault in stage *s* cannot change the
   activations of stages ``< s``; the engine caches every stage's golden
   input once and, per fault, recomputes only stages ``s..end``.

This module holds the classification machinery shared by every engine
(:class:`FaultInjectionEngine`) and the *module* engine
(:class:`InferenceEngine`), whose cache is stage-granular.  The
op-granular, batch-evaluating *plan* engine lives in
:mod:`repro.runtime` and shares the same base — same fingerprinting,
same classification semantics, bit-identical outcomes.
"""

from __future__ import annotations

import enum
import hashlib
import json
from collections.abc import Sequence

import numpy as np

from repro.faults.injector import WeightFaultInjector
from repro.faults.model import Fault
from repro.faults.targets import WeightLayer, enumerate_weight_layers
from repro.ieee754 import FLOAT32, FloatFormat
from repro.nn import Module
from repro.telemetry import Telemetry, resolve_telemetry


class FaultOutcome(enum.IntEnum):
    """Classification of one injected fault.

    The paper classifies faults as *Critical* (the top-1 prediction of the
    faulty network is no longer correct) or *Non-critical*; *Masked* is the
    sub-case of Non-critical where the corrupted word is bit-identical to
    the golden one, so no inference is even needed.
    """

    MASKED = 0
    NON_CRITICAL = 1
    CRITICAL = 2

    @property
    def is_critical(self) -> bool:
        return self is FaultOutcome.CRITICAL


def classify_predictions(
    faulty_predictions: np.ndarray,
    golden_predictions: np.ndarray,
    labels: np.ndarray,
    *,
    policy: str = "accuracy_drop",
    threshold: float = 0.0,
) -> FaultOutcome:
    """Classify a fault from faulty vs golden top-1 predictions.

    Policies:

    - ``"accuracy_drop"`` (paper semantics): critical when the faulty
      network misclassifies at least one image the golden network got
      right — i.e. its top-1 accuracy drops.
    - ``"any_mismatch"``: critical when any prediction differs from the
      golden one (even if a wrong prediction flips to another wrong class).
    - ``"accuracy_threshold"``: critical when the accuracy drop exceeds
      *threshold* (a fraction, e.g. 0.05 for five points).
    """
    golden_correct = golden_predictions == labels
    faulty_correct = faulty_predictions == labels
    if policy == "accuracy_drop":
        critical = bool(np.any(golden_correct & ~faulty_correct))
    elif policy == "any_mismatch":
        critical = bool(np.any(faulty_predictions != golden_predictions))
    elif policy == "accuracy_threshold":
        drop = (golden_correct.mean() - faulty_correct.mean()).item()
        critical = drop > threshold
    else:
        raise ValueError(f"unknown classification policy {policy!r}")
    return FaultOutcome.CRITICAL if critical else FaultOutcome.NON_CRITICAL


class FaultInjectionEngine:
    """Shared base of every fault-classification engine.

    Owns everything that is independent of *how* a faulty forward pass
    is computed: the eval set, the weight-layer enumeration and injector,
    the classification policy, the config-covering fingerprint, and the
    masked-fault short-circuit.  Subclasses set :attr:`kind` and implement
    :meth:`_predictions_with_fault`; batching engines additionally
    override :meth:`predictions_for_faults` and raise
    :attr:`batch_size` above one.
    """

    #: Engine identity folded into the fingerprint ("module" / "plan").
    kind = "base"
    #: Faults evaluated per tail pass; 1 means classic one-at-a-time.
    batch_size = 1

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        fmt: FloatFormat = FLOAT32,
        policy: str = "accuracy_drop",
        threshold: float = 0.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if len(images) != len(labels):
            raise ValueError("images and labels must have the same length")
        model.eval()
        self.model = model
        self.images = np.asarray(images, dtype=np.float32)
        self.labels = np.asarray(labels)
        self.policy = policy
        self.threshold = threshold
        self.telemetry = resolve_telemetry(telemetry)
        self.layers: list[WeightLayer] = enumerate_weight_layers(model)
        self.injector = WeightFaultInjector(self.layers, fmt=fmt)
        #: Logical fault inferences performed (a batched tail pass that
        #: classifies K faults counts K, keeping faults/sec comparable
        #: across engines).
        self.inference_count = 0

    def fingerprint(self, *, kind: str | None = None) -> str:
        """SHA-256 over the campaign's full classification identity.

        Covers the golden weight bits and eval images *and* everything
        that decides an outcome given them: the float format, the
        classification policy and threshold, and the engine kind.  Two
        engines sharing a fingerprint classify every fault identically;
        checkpoints and distributed shards compare it so progress
        recorded under different weights or policies is never resumed
        or merged.

        *kind* substitutes another engine kind into the identity — used
        by engines whose outcomes are attested bit-identical to a twin
        (e.g. the vectorized engine declaring compatibility with the
        exact plan engine's fingerprint) without building the twin.
        """
        digest = hashlib.sha256()
        header = json.dumps(
            {
                "fmt": self.injector.fmt.name,
                "policy": self.policy,
                "threshold": self.threshold,
                "engine": self.kind if kind is None else kind,
                # Constant: keeps fingerprints recorded in earlier
                # checkpoints and queues valid.
                "fusions": [],
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        digest.update(header.encode("utf-8"))
        for layer in self.layers:
            digest.update(self.injector.fmt.encode(layer.flat_weights()).tobytes())
        digest.update(self.images.tobytes())
        return digest.hexdigest()

    # -- classification -------------------------------------------------------

    def predictions_with_fault(self, fault: Fault) -> np.ndarray:
        """Top-1 predictions of the faulty network (always runs inference)."""
        if self.telemetry.enabled:
            with self.telemetry.span("engine.inference"):
                return self._predictions_with_fault(fault)
        return self._predictions_with_fault(fault)

    def _predictions_with_fault(self, fault: Fault) -> np.ndarray:
        raise NotImplementedError

    def predictions_for_faults(self, faults: Sequence[Fault]) -> np.ndarray:
        """Faulty top-1 predictions for a batch of faults: ``(K, N)``.

        The base implementation runs one prefix-cached inference per
        fault; the plan engines override it to evaluate same-layer
        faults per tail pass, seeding all K from one GEMM.
        """
        return np.stack([self.predictions_with_fault(f) for f in faults])

    def classify(self, fault: Fault) -> FaultOutcome:
        """Outcome of injecting *fault*: masked, non-critical or critical."""
        if self.injector.is_masked(fault):
            return FaultOutcome.MASKED
        predictions = self.predictions_with_fault(fault)
        return classify_predictions(
            predictions,
            self.golden_predictions,
            self.labels,
            policy=self.policy,
            threshold=self.threshold,
        )

    def classify_many(self, faults: Sequence[Fault]) -> list[FaultOutcome]:
        """Classify a batch of faults (order of outcomes matches input).

        Non-masked faults are grouped by target layer and classified in
        :attr:`batch_size` chunks through :meth:`predictions_for_faults`
        — on a batching engine, same-layer faults share tail passes; on
        the module engine (batch size one) this is exactly the classic
        sequential loop.
        """
        if self.telemetry.enabled:
            with self.telemetry.span(
                "engine.classify_many", emit=True, faults=len(faults)
            ):
                outcomes = self._classify_many(faults)
            self.telemetry.counter("engine.faults_classified").add(len(faults))
            return outcomes
        return self._classify_many(faults)

    def _classify_many(self, faults: Sequence[Fault]) -> list[FaultOutcome]:
        # Faults are grouped by target layer at *every* batch size, not
        # just on batching engines: per-layer caches (the plan engine's
        # im2col columns cache, prefix materialisations) are reused
        # across consecutive same-layer faults, where a shuffled
        # campaign order would rebuild them per fault.  Outcomes are
        # scattered back by position, so results are order-independent.
        outcomes: list[FaultOutcome | None] = [None] * len(faults)
        by_layer: dict[int, list[int]] = {}
        for pos, fault in enumerate(faults):
            if self.injector.is_masked(fault):
                outcomes[pos] = FaultOutcome.MASKED
            else:
                by_layer.setdefault(fault.layer, []).append(pos)
        for positions in by_layer.values():
            if self.batch_size == 1:
                # Keep the grouping (cache reuse) but skip the
                # batched dispatch: predictions_for_faults would
                # np.stack every single-row result, which is measurable
                # against the <2% NullTelemetry overhead budget.
                for pos in positions:
                    outcomes[pos] = classify_predictions(
                        self.predictions_with_fault(faults[pos]),
                        self.golden_predictions,
                        self.labels,
                        policy=self.policy,
                        threshold=self.threshold,
                    )
                continue
            for start in range(0, len(positions), self.batch_size):
                chunk = positions[start : start + self.batch_size]
                rows = self.predictions_for_faults([faults[p] for p in chunk])
                for pos, row in zip(chunk, rows):
                    outcomes[pos] = classify_predictions(
                        row,
                        self.golden_predictions,
                        self.labels,
                        policy=self.policy,
                        threshold=self.threshold,
                    )
        return outcomes


class InferenceEngine(FaultInjectionEngine):
    """Classifies faults by (prefix-cached) inference over a fixed eval set.

    This is the *module* engine: it walks ``stage_modules()`` and caches
    golden activations at stage granularity.  The op-granular
    :class:`repro.runtime.PlanEngine` is bit-identical and faster; this
    engine remains the reference implementation.

    Parameters
    ----------
    model:
        A zoo model exposing ``stage_modules()`` and in eval mode.
    images, labels:
        The evaluation set; every fault is judged against the full set.
    fmt:
        Floating-point format of the weights.
    policy, threshold:
        Fault classification policy (see :func:`classify_predictions`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` sink.  When enabled,
        per-fault inference times land in the ``span.engine.inference``
        histogram; the default :class:`~repro.telemetry.NullTelemetry`
        costs one attribute read per fault.
    """

    kind = "module"

    def __init__(
        self,
        model: Module,
        images: np.ndarray,
        labels: np.ndarray,
        *,
        fmt: FloatFormat = FLOAT32,
        policy: str = "accuracy_drop",
        threshold: float = 0.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not hasattr(model, "stage_modules"):
            raise TypeError(
                "model must expose stage_modules() for prefix caching"
            )
        super().__init__(
            model,
            images,
            labels,
            fmt=fmt,
            policy=policy,
            threshold=threshold,
            telemetry=telemetry,
        )
        self.stages: list[Module] = model.stage_modules()
        self._layer_stage = self._map_layers_to_stages()
        self._activations = self._compute_golden_activations()
        self.golden_predictions = self._activations[-1].argmax(axis=1)
        self.golden_accuracy = float(
            (self.golden_predictions == self.labels).mean()
        )

    def _map_layers_to_stages(self) -> list[int]:
        """Stage index owning each weight layer, in layer order."""
        stage_of_module: dict[int, int] = {}
        for stage_idx, stage in enumerate(self.stages):
            for module in stage.modules():
                stage_of_module[id(module)] = stage_idx
        mapping = []
        for layer in self.layers:
            stage_idx = stage_of_module.get(id(layer.module))
            if stage_idx is None:
                raise ValueError(
                    f"weight layer {layer.name} not found in any stage; "
                    "stage_modules() must cover the whole forward pass"
                )
            mapping.append(stage_idx)
        return mapping

    def _compute_golden_activations(self) -> list[np.ndarray]:
        """Inputs of every stage plus the final logits."""
        acts = [self.images]
        for stage in self.stages:
            acts.append(stage.forward_fast(acts[-1]))
        return acts

    def _predictions_with_fault(self, fault: Fault) -> np.ndarray:
        stage_idx = self._layer_stage[fault.layer]
        # Corrupted weights legitimately push activations to inf/NaN; the
        # classification below only needs argmax, so overflow is expected.
        with self.injector.inject(fault), np.errstate(all="ignore"):
            x = self._activations[stage_idx]
            for stage in self.stages[stage_idx:]:
                x = stage.forward_fast(x)
        self.inference_count += 1
        if self.telemetry.enabled:
            self.telemetry.counter("engine.inferences").add(1)
        return x.argmax(axis=1)
