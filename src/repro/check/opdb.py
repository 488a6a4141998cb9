"""op_db: per-op sample-input generators for kernel conformance.

The registry pairs every plan op kind (plus the ``gemm``/``im2col``
primitives the engines call directly) with deterministic sample
generators sweeping the axes that historically break kernels: layer
shapes across the dispatch paths (pointwise / padded 3x3 / strided /
depthwise / grouped convolutions), degenerate single-channel tensors,
denormal-heavy inputs (where flushed-to-zero arithmetic diverges), and
non-contiguous views (where layout-sensitive kernels misread strides).

:func:`repro.check.conformance.run_op_conformance` drives four checks
over every (kind, sample, backend) triple:

1. **cross-backend agreement** — the backend's output against the numpy
   reference, judged by the backend's *declared* tolerance class;
2. **batch-invariance falsification** — a claimed-invariant kernel must
   produce bitwise-equal rows whether samples run stacked or separately
   (``"never"`` claims are unfalsifiable and skipped — claiming
   non-invariance is always safe, it only costs chunked execution);
3. **channel-slice falsification** — an op the kernel table claims
   channel-separable must give, run on one channel alone, exactly that
   channel of the full output, and changing one input channel must
   leave the other output channels unchanged (reference backend;
   unclaimed ops are skipped for the same reason as in 2);
4. **plan-vs-module equivalence** — the reference backend's op-level
   kernel against the owning module's ``forward_fast``, bitwise.

Every kind in ``OP_KINDS`` must have at least one sample here —
registry-completeness is asserted by tier-1 tests, so a new op kind
cannot land without a kernel-table row, a backend kernel, *and* an
op_db generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.check.kernels import KERNEL_TABLE
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    ReLU6,
)
from repro.runtime.plan import OpSpec

#: float32 denormal scale: |values| land well below ~1.18e-38.
_DENORMAL_SCALE = np.float32(1e-41)


@dataclass
class BuiltSample:
    """One concrete op instance plus the arrays to feed it.

    ``op`` is None for the ``gemm``/``im2col`` primitives, which the
    runner calls through the backend's array-level methods with
    ``inputs`` (+ ``args``) directly.  ``module``, when set, is the
    live module whose ``forward_fast`` the reference output must match
    bitwise.
    """

    kind: str
    op: OpSpec | None
    inputs: list[np.ndarray]
    args: tuple = ()
    module: object | None = None


@dataclass(frozen=True)
class OpSample:
    """A named, deterministic sample generator for one op kind."""

    kind: str
    name: str
    build: Callable[[np.random.Generator], BuiltSample] = field(repr=False)


def _tensor(
    rng: np.random.Generator,
    shape: tuple[int, ...],
    *,
    denormal: bool = False,
    noncontig: bool = False,
) -> np.ndarray:
    """A float32 sample tensor; optionally denormal-heavy or strided."""
    if noncontig:
        wide = rng.standard_normal(
            shape[:-1] + (2 * shape[-1],)
        ).astype(np.float32)
        x = wide[..., ::2]
    else:
        x = rng.standard_normal(shape).astype(np.float32)
    if denormal:
        # Half the elements become denormals, half stay normal — the mix
        # is what exposes flush-to-zero differences mid-reduction.
        mask = rng.random(x.shape) < 0.5
        x = np.where(mask, x * _DENORMAL_SCALE, x).astype(np.float32)
    return x


def _op(kind: str, *, module: Any = None, nin: int = 1, **params: Any) -> OpSpec:
    """A standalone OpSpec with the table-derived invariance flag."""
    op = OpSpec(
        index=0,
        kind=kind,
        inputs=tuple(range(nin)),
        output=nin,
        module=module,
        params=params,
    )
    op.batch_invariant = bool(KERNEL_TABLE[kind].batch_invariant(op))
    return op


def _randomized_bn(rng: np.random.Generator, features: int) -> BatchNorm2d:
    """BN with non-trivial affine + running statistics."""
    bn = BatchNorm2d(features)
    bn.weight.data[:] = rng.uniform(0.5, 1.5, features).astype(np.float32)
    bn.bias.data[:] = rng.standard_normal(features).astype(np.float32)
    bn.running_mean[:] = rng.standard_normal(features).astype(np.float32)
    bn.running_var[:] = rng.uniform(0.2, 2.0, features).astype(np.float32)
    return bn


def _conv_sample(
    name: str,
    in_channels: int,
    out_channels: int,
    kernel: int,
    input_hw: int,
    *,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
    bias: bool = False,
    batch: int = 2,
    denormal: bool = False,
    noncontig: bool = False,
) -> OpSample:
    def build(rng: np.random.Generator) -> BuiltSample:
        conv = Conv2d(
            in_channels,
            out_channels,
            kernel,
            stride=stride,
            padding=padding,
            groups=groups,
            bias=bias,
            rng=rng,
        )
        if bias:
            conv.bias.data[:] = rng.standard_normal(out_channels).astype(
                np.float32
            )
        x = _tensor(
            rng,
            (batch, in_channels, input_hw, input_hw),
            denormal=denormal,
            noncontig=noncontig,
        )
        return BuiltSample(
            kind="conv2d", op=_op("conv2d", module=conv), inputs=[x],
            module=conv,
        )

    return OpSample("conv2d", name, build)


def _bn_sample(
    name: str, features: int, hw: int, *, denormal: bool = False
) -> OpSample:
    def build(rng: np.random.Generator) -> BuiltSample:
        bn = _randomized_bn(rng, features)
        x = _tensor(rng, (2, features, hw, hw), denormal=denormal)
        return BuiltSample(
            kind="batchnorm2d", op=_op("batchnorm2d", module=bn), inputs=[x],
            module=bn,
        )

    return OpSample("batchnorm2d", name, build)


def _linear_sample(
    name: str, in_features: int, out_features: int, *,
    bias: bool = True, denormal: bool = False, batch: int = 4,
) -> OpSample:
    def build(rng: np.random.Generator) -> BuiltSample:
        lin = Linear(in_features, out_features, bias=bias, rng=rng)
        if bias:
            lin.bias.data[:] = rng.standard_normal(out_features).astype(
                np.float32
            )
        x = _tensor(rng, (batch, in_features), denormal=denormal)
        return BuiltSample(
            kind="linear", op=_op("linear", module=lin), inputs=[x],
            module=lin,
        )

    return OpSample("linear", name, build)


def _unary_sample(
    kind: str,
    name: str,
    shape: tuple[int, ...],
    module_factory: Callable[[], Any] | None = None,
    *,
    denormal: bool = False,
    noncontig: bool = False,
    **params: Any,
) -> OpSample:
    def build(rng: np.random.Generator) -> BuiltSample:
        module = module_factory() if module_factory is not None else None
        x = _tensor(rng, shape, denormal=denormal, noncontig=noncontig)
        return BuiltSample(
            kind=kind, op=_op(kind, module=module, **params), inputs=[x],
            module=module,
        )

    return OpSample(kind, name, build)


def _add_sample(
    name: str, shape: tuple[int, ...], *, denormal: bool = False
) -> OpSample:
    def build(rng: np.random.Generator) -> BuiltSample:
        a = _tensor(rng, shape, denormal=denormal)
        b = _tensor(rng, shape, denormal=denormal)
        return BuiltSample(kind="add", op=_op("add", nin=2), inputs=[a, b])

    return OpSample("add", name, build)


def _gemm_sample(
    name: str, a_shape: tuple[int, ...], b_shape: tuple[int, ...], *,
    denormal: bool = False,
) -> OpSample:
    def build(rng: np.random.Generator) -> BuiltSample:
        a = _tensor(rng, a_shape, denormal=denormal)
        b = _tensor(rng, b_shape, denormal=denormal)
        return BuiltSample(kind="gemm", op=None, inputs=[a, b])

    return OpSample("gemm", name, build)


def _im2col_sample(
    name: str,
    shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    *,
    noncontig: bool = False,
) -> OpSample:
    def build(rng: np.random.Generator) -> BuiltSample:
        x = _tensor(rng, shape, noncontig=noncontig)
        return BuiltSample(
            kind="im2col",
            op=None,
            inputs=[x],
            args=(kernel, kernel, stride, padding),
        )

    return OpSample("im2col", name, build)


#: The registry: every op kind (and engine primitive) → its samples.
OP_SAMPLES: dict[str, tuple[OpSample, ...]] = {
    "conv2d": (
        _conv_sample("pointwise", 8, 4, 1, 6),
        _conv_sample("k3_pad1_bias", 3, 5, 3, 8, padding=1, bias=True),
        _conv_sample("k3_stride2", 4, 6, 3, 9, stride=2, padding=1),
        _conv_sample("depthwise", 6, 6, 3, 8, padding=1, groups=6),
        _conv_sample(
            "depthwise_stride2_batch7", 8, 8, 3, 9, stride=2, padding=1,
            groups=8, bias=True, batch=7,
        ),
        _conv_sample(
            "depthwise_denormal", 5, 5, 3, 8, padding=1, groups=5,
            denormal=True,
        ),
        _conv_sample(
            "depthwise_noncontig", 4, 4, 3, 8, stride=2, padding=1,
            groups=4, noncontig=True,
        ),
        _conv_sample("grouped", 8, 8, 3, 8, padding=1, groups=2),
        _conv_sample("degenerate_c1", 1, 2, 3, 8, padding=1, batch=1),
        _conv_sample("denormal_heavy", 3, 4, 3, 8, padding=1, denormal=True),
        _conv_sample("noncontig_input", 3, 4, 3, 8, padding=1, noncontig=True),
    ),
    "batchnorm2d": (
        _bn_sample("standard", 5, 7),
        _bn_sample("degenerate_c1", 1, 8),
        _bn_sample("denormal_heavy", 4, 6, denormal=True),
    ),
    "linear": (
        _linear_sample("with_bias", 32, 10),
        _linear_sample("no_bias_batch1", 16, 4, bias=False, batch=1),
        _linear_sample("denormal_heavy", 24, 6, denormal=True),
    ),
    "relu": (
        _unary_sample("relu", "standard", (2, 4, 6, 6), ReLU),
        _unary_sample("relu", "denormal_heavy", (2, 3, 5, 5), ReLU,
                      denormal=True),
        _unary_sample("relu", "noncontig", (2, 3, 6, 6), ReLU,
                      noncontig=True),
    ),
    "relu6": (
        _unary_sample("relu6", "standard", (2, 4, 6, 6), ReLU6),
        _unary_sample("relu6", "denormal_heavy", (2, 3, 5, 5), ReLU6,
                      denormal=True),
    ),
    "avg_pool2d": (
        _unary_sample(
            "avg_pool2d", "k2", (2, 3, 8, 8), lambda: AvgPool2d(2)
        ),
        _unary_sample(
            "avg_pool2d", "k4_denormal", (2, 2, 8, 8), lambda: AvgPool2d(4),
            denormal=True,
        ),
    ),
    "global_avg_pool2d": (
        _unary_sample("global_avg_pool2d", "standard", (2, 5, 7, 7),
                      GlobalAvgPool2d),
        _unary_sample(
            "global_avg_pool2d", "denormal_heavy", (2, 4, 6, 6),
            GlobalAvgPool2d, denormal=True,
        ),
    ),
    "flatten": (
        _unary_sample("flatten", "rank4", (2, 3, 4, 4), Flatten),
        _unary_sample("flatten", "noncontig", (2, 3, 4, 4), Flatten,
                      noncontig=True),
    ),
    "add": (
        _add_sample("standard", (2, 4, 6, 6)),
        _add_sample("denormal_heavy", (2, 3, 5, 5), denormal=True),
    ),
    "subsample2d": (
        _unary_sample("subsample2d", "stride2", (2, 3, 9, 9), stride=2),
        _unary_sample("subsample2d", "stride3", (2, 2, 10, 10), stride=3),
    ),
    "pad_channels": (
        _unary_sample("pad_channels", "before1_after2", (2, 3, 5, 5),
                      before=1, after=2),
        _unary_sample("pad_channels", "after_only", (2, 2, 4, 4),
                      before=0, after=3),
    ),
    "gemm": (
        _gemm_sample("matrix_2d", (8, 16), (16, 5)),
        _gemm_sample("batched_3d", (2, 5, 7), (2, 7, 3)),
        _gemm_sample("denormal_heavy", (6, 12), (12, 4), denormal=True),
    ),
    "im2col": (
        _im2col_sample("k3_pad1", (2, 3, 8, 8), 3, 1, 1),
        _im2col_sample("k3_stride2", (2, 4, 9, 9), 3, 2, 1),
        _im2col_sample("k1", (2, 3, 6, 6), 1, 1, 0),
        _im2col_sample("noncontig", (2, 3, 8, 8), 3, 1, 1, noncontig=True),
    ),
}


def opdb_kinds() -> frozenset:
    """All kinds with at least one registered sample."""
    return frozenset(OP_SAMPLES)


def samples_for(kind: str) -> tuple[OpSample, ...]:
    """Registered samples for *kind* (empty tuple when none)."""
    return OP_SAMPLES.get(kind, ())
