"""Metric names, units, and the per-layer ledger built from a traced run.

Names ending in ``_s`` are seconds.  The table in ``run.py``'s docstring
says which are self times; the rest are the inclusive time of their
boundary's spans.  Spans recorded while the work-item id is ``"setup"``
feed the set-up metrics; all others feed the timed-phase metrics.
"""

from __future__ import annotations

from spans import Span, reconcile, self_times

END_TO_END = {"faults_per_s": "faults/s", "setup_s": "s", "peak_rss_mb": "MiB"}

#: Plan op kinds of the two models, grouped convolutions split out.
OP_KINDS = (
    "conv2d",
    "conv2d_grouped",
    "linear",
    "batchnorm2d",
    "relu",
    "relu6",
    "add",
    "subsample2d",
    "pad_channels",
    "global_avg_pool2d",
)

#: Weight layers of the widest model (resnet14_mini).
MAX_LAYERS = 14

#: Engine counter attribute -> metric name (exact, read after the run).
ENGINE_COUNTERS = {
    "inference_count": "runtime.inferences",
    "tail_passes": "runtime.tail_passes",
    "ops_executed": "runtime.ops_executed",
    "ops_cached": "runtime.ops_cached",
    "precertified": "runtime.vectorized.precertified",
    "certified_rows": "runtime.vectorized.certified_rows",
    "survivor_rows": "runtime.vectorized.survivor_rows",
    "dense_fallback_faults": "runtime.vectorized.dense_fallback_faults",
    "vec_blocks": "runtime.vectorized.vec_blocks",
    "full_batch_ops": "runtime.vectorized.full_batch_ops",
}

PER_LAYER = {
    "runtime.predict_s": "s",
    "runtime.predict_calls": "count",
    "runtime.faults_per_call": "faults/call",
    **{f"runtime.layer_s.{layer:02d}": "s" for layer in range(MAX_LAYERS)},
    **{name: "count" for name in ENGINE_COUNTERS.values()},
    "runtime.vectorized.nonmasked_faults": "count",
    "runtime.vectorized.precertified_ratio": "ratio",
    "runtime.vectorized.dense_fallback_ratio": "ratio",
    **{f"backends.op_s.{kind}": "s" for kind in OP_KINDS},
    **{f"backends.op_calls.{kind}": "count" for kind in OP_KINDS},
    "backends.gemm_s": "s",
    "backends.gemm_calls": "count",
    "backends.im2col_s": "s",
    "backends.conv2d_flops": "flop",
    "backends.gemm_flops": "flop",
    "backends.bytes": "B",
    "faults.classify_s": "s",
    "faults.classify_calls": "count",
    "faults.classified": "count",
    "faults.masked_ratio": "ratio",
    "faults.lookup_s": "s",
    "sfi.sample_s": "s",
    "sfi.sample_calls": "count",
    "sfi.run_s": "s",
    "sfi.validate_s": "s",
    "setup.import_s": "s",
    "models.load_s": "s",
    "data.eval_set_s": "s",
    "runtime.engine_init_s": "s",
    "runtime.capture_s": "s",
    "check.verify_s": "s",
    "runtime.golden_s": "s",
    "store.load_s": "s",
    "store.bytes_read": "B",
    "sfi.plan_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


class _Ledger:
    """Sums over the spans of one phase."""

    def __init__(self, spans: list[Span], selfs: list[float]) -> None:
        self.by_name: dict[str, list[tuple[Span, float]]] = {}
        for span, own in zip(spans, selfs):
            self.by_name.setdefault(span.name, []).append((span, own))

    def select(self, name: str, **attrs):
        for span, own in self.by_name.get(name, ()):
            if all(span.attrs.get(k) == v for k, v in attrs.items()):
                yield span, own

    def total(self, name: str, **attrs) -> float:
        return sum(span.duration for span, _ in self.select(name, **attrs))

    def own(self, name: str) -> float:
        return sum(own for _, own in self.select(name))

    def calls(self, name: str, **attrs) -> int:
        return sum(1 for _ in self.select(name, **attrs))

    def attr(self, name: str, key: str, **attrs) -> int:
        return sum(span.attrs.get(key, 0) for span, _ in self.select(name, **attrs))


def per_layer(spans: list[Span], wall: float, counters: dict) -> dict:
    """Every per-layer metric except ``trace.untraced_wall_s`` and
    ``trace.overhead_ratio``, which need the untraced run."""
    selfs = self_times(spans)
    setup = _Ledger(
        [s for s in spans if s.trace == "setup"],
        [t for s, t in zip(spans, selfs) if s.trace == "setup"],
    )
    timed = _Ledger(
        [s for s in spans if s.trace != "setup"],
        [t for s, t in zip(spans, selfs) if s.trace != "setup"],
    )
    m: dict = {}
    predict_calls = timed.calls("runtime.predict")
    m["runtime.predict_s"] = timed.own("runtime.predict")
    m["runtime.predict_calls"] = predict_calls
    m["runtime.faults_per_call"] = _ratio(timed.attr("runtime.predict", "faults"), predict_calls)
    for layer in range(MAX_LAYERS):
        m[f"runtime.layer_s.{layer:02d}"] = timed.total("runtime.predict", layer=layer)
    for name in ENGINE_COUNTERS.values():
        m[name] = counters.get(name, 0)
    classified = timed.attr("faults.classify", "faults")
    masked = timed.attr("faults.classify", "masked")
    nonmasked = classified - masked
    m["runtime.vectorized.nonmasked_faults"] = nonmasked
    m["runtime.vectorized.precertified_ratio"] = _ratio(
        m["runtime.vectorized.precertified"], nonmasked
    )
    m["runtime.vectorized.dense_fallback_ratio"] = _ratio(
        m["runtime.vectorized.dense_fallback_faults"], nonmasked
    )
    for kind in OP_KINDS:
        m[f"backends.op_s.{kind}"] = timed.total("backends.op", kind=kind)
        m[f"backends.op_calls.{kind}"] = timed.calls("backends.op", kind=kind)
    m["backends.gemm_s"] = timed.total("backends.gemm")
    m["backends.gemm_calls"] = timed.calls("backends.gemm")
    m["backends.im2col_s"] = timed.total("backends.im2col")
    m["backends.conv2d_flops"] = timed.attr("backends.op", "flops", kind="conv2d") + timed.attr(
        "backends.op", "flops", kind="conv2d_grouped"
    )
    m["backends.gemm_flops"] = timed.attr("backends.gemm", "flops") + timed.attr(
        "backends.op", "flops", kind="linear"
    )
    m["backends.bytes"] = sum(
        timed.attr(name, "bytes") for name in ("backends.op", "backends.gemm", "backends.im2col")
    )
    m["faults.classify_s"] = timed.own("faults.classify")
    m["faults.classify_calls"] = timed.calls("faults.classify")
    m["faults.classified"] = classified
    m["faults.masked_ratio"] = _ratio(masked, classified)
    m["faults.lookup_s"] = timed.total("faults.lookup")
    m["sfi.sample_s"] = timed.total("sfi.sample")
    m["sfi.sample_calls"] = timed.calls("sfi.sample")
    m["sfi.run_s"] = timed.own("sfi.run")
    m["sfi.validate_s"] = timed.total("sfi.validate")
    m["setup.import_s"] = setup.total("setup.import")
    m["models.load_s"] = setup.total("models.load")
    m["data.eval_set_s"] = setup.total("data.eval_set")
    m["runtime.engine_init_s"] = setup.own("runtime.engine_init")
    m["runtime.capture_s"] = setup.total("runtime.capture")
    m["check.verify_s"] = setup.total("check.verify")
    m["runtime.golden_s"] = setup.total("runtime.golden")
    m["store.load_s"] = setup.total("store.load")
    m["store.bytes_read"] = setup.attr("store.load", "bytes")
    m["sfi.plan_s"] = setup.total("sfi.plan")
    _, unattributed = reconcile(spans, wall)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = unattributed
    return m
