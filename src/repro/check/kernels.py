"""Central static classification table for plan op kinds.

This is the vetting register the plan verifier audits against: every op
kind an :class:`~repro.runtime.plan.ExecutionPlan` may contain must have
a row here describing

- whether the op needs a live ``Module`` (its kernel reads parameters),
- its *batch-invariance* class (may K fault variants be stacked along
  the batch axis without changing a bit?),
- its *channel separability* (may one channel be run alone, bitwise
  equal to that channel of the full op?), and
- its abstract shape rule (per-sample shapes, no batch dimension).

The batch-invariance classification encodes the kernel dispatch rules
of :func:`repro.nn.functional.conv2d` and is the **single source of
truth** for the reference backend: plan capture
(:func:`repro.runtime.plan._batch_invariant`) and the ``"kernel"``-class
entries of :meth:`repro.backends.Backend.batch_invariant` both read
their verdicts from this table, and the verifier's ``P120`` audit
re-checks every recorded flag against it — catching post-capture drift
in hand-built plans rather than divergence between two
hand-maintained copies of the predicate.  The table's claims themselves
are kept honest *empirically*: the op_db conformance suite
(:mod:`repro.check.opdb`) stacks variant batches through every kernel,
runs every claimed channel-separable op on one channel slice through
:func:`run_channel` (the engines' own single-channel path), and fails
if a claim does not hold bit-for-bit.  A kind
with no row here fails ``P121``: new kernels must be vetted before they
can be captured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

if TYPE_CHECKING:
    from repro.backends import Backend
    from repro.nn import Conv2d
    from repro.runtime.plan import OpSpec

Shape = tuple[int, ...]


class ShapeError(ValueError):
    """Abstract shape propagation cannot execute the op (rule P104)."""


def _conv_out(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ShapeError(
            f"non-positive conv output extent ({out}) for size={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def _want_rank(shapes: list[Shape], rank: int, kind: str) -> None:
    for shape in shapes:
        if len(shape) != rank:
            raise ShapeError(
                f"{kind} expects rank-{rank} per-sample input, got {shape}"
            )


def _conv_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    _want_rank(shapes, 3, op.kind)
    c, h, w = shapes[0]
    m = op.module
    if m.in_channels != c:
        raise ShapeError(
            f"conv expects {m.in_channels} input channels, got {c}"
        )
    k = m.kernel_size
    expect = (m.out_channels, m.in_channels // m.groups, k, k)
    if tuple(m.weight.data.shape) != expect:
        raise ShapeError(
            f"conv weight shape {tuple(m.weight.data.shape)} != {expect}"
        )
    return (
        m.out_channels,
        _conv_out(h, k, m.stride, m.padding),
        _conv_out(w, k, m.stride, m.padding),
    )


def _bn_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    _want_rank(shapes, 3, op.kind)
    c, h, w = shapes[0]
    m = op.module
    if m.num_features != c:
        raise ShapeError(
            f"batchnorm over {m.num_features} features applied to {c} channels"
        )
    for name in ("running_mean", "running_var"):
        if getattr(m, name).shape != (c,):
            raise ShapeError(f"batchnorm {name} shape != ({c},)")
    return (c, h, w)


def _linear_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    _want_rank(shapes, 1, op.kind)
    (f,) = shapes[0]
    m = op.module
    if m.in_features != f:
        raise ShapeError(f"linear expects {m.in_features} features, got {f}")
    if tuple(m.weight.data.shape) != (m.out_features, m.in_features):
        raise ShapeError(
            f"linear weight shape {tuple(m.weight.data.shape)} != "
            f"({m.out_features}, {m.in_features})"
        )
    return (m.out_features,)


def _avg_pool_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    _want_rank(shapes, 3, op.kind)
    c, h, w = shapes[0]
    k = op.module.kernel
    if h % k or w % k:
        raise ShapeError(f"avg_pool2d kernel {k} must divide {h}x{w}")
    return (c, h // k, w // k)


def _same_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    return shapes[0]


def _global_pool_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    _want_rank(shapes, 3, op.kind)
    return (shapes[0][0],)


def _flatten_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    total = 1
    for extent in shapes[0]:
        total *= extent
    return (total,)


def _add_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    if len(shapes) != 2 or shapes[0] != shapes[1]:
        raise ShapeError(f"add expects two equal shapes, got {shapes}")
    return shapes[0]


def _subsample_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    _want_rank(shapes, 3, op.kind)
    c, h, w = shapes[0]
    stride = op.params.get("stride")
    if not isinstance(stride, int) or stride < 1:
        raise ShapeError(f"subsample2d stride must be a positive int, got {stride!r}")
    return (c, -(-h // stride), -(-w // stride))


def _pad_channels_shape(op: OpSpec, shapes: list[Shape]) -> Shape:
    _want_rank(shapes, 3, op.kind)
    c, h, w = shapes[0]
    before, after = op.params.get("before"), op.params.get("after")
    for value in (before, after):
        if not isinstance(value, int) or value < 0:
            raise ShapeError(
                f"pad_channels padding must be non-negative ints, got "
                f"before={before!r} after={after!r}"
            )
    return (c + before + after, h, w)


def is_depthwise(conv: Conv2d) -> bool:
    """Whether *conv* is depthwise: output channel c reads input channel
    c alone, through its own 1 x k x k kernel."""
    return conv.groups == conv.in_channels == conv.out_channels


def _conv_batch_invariant(op: OpSpec) -> bool:
    # Mirrors the dispatch in F.conv2d: pointwise and groups==1 im2col
    # reduce to a per-sample 3-D matmul (batch-stable); depthwise and
    # grouped convs go through einsum(optimize=True), whose contraction
    # order may change with the batch extent.
    m = op.module
    if m.kernel_size == 1 and m.padding == 0 and m.groups == 1:
        return True
    if is_depthwise(m):
        return False
    return m.groups == 1


def _never_batch_invariant(op: OpSpec) -> bool:
    return False  # 2-D GEMM: BLAS blocking depends on the batch extent


def _always_batch_invariant(op: OpSpec) -> bool:
    return True  # elementwise / reduction over fixed axes / reshape


def _conv_channel_separable(op: OpSpec) -> bool:
    # That the depthwise einsum sums each channel the same way whatever
    # the channel count is empirical, not structural (the same einsum
    # is not batch-invariant); op_db's channel_slice check falsifies it.
    return is_depthwise(op.module)


def _always_channel_separable(op: OpSpec) -> bool:
    return True  # per-channel affine, elementwise clamp or reindexing


def _never_channel_separable(op: OpSpec) -> bool:
    return False  # not claimed: no engine replays one channel through it


def run_channel(
    backend: Backend, op: OpSpec, val: np.ndarray, c: int
) -> tuple[np.ndarray, int]:
    """Run channel-separable *op* on channel *c*'s values alone.

    *val* is channel *c* of the op's input with the channel axis
    dropped, ``(N, ...)``.  Per-channel parameters are sliced to *c*: a
    depthwise conv's kernel and bias, bn's affine and running
    statistics.  Returns the output values and their channel in the
    full output (``pad_channels`` renumbers).  The engines replay a
    fault's dirty channel through this function, and op_db's
    ``channel_slice`` check holds it bitwise to the full op.
    """
    m = op.module
    x, s = val[:, None], slice(c, c + 1)
    if op.kind == "conv2d" and is_depthwise(m):
        bias = None if m.bias is None else m.bias.data[s]
        out = backend.conv2d(
            x, m.weight.data[s], bias, stride=m.stride, padding=m.padding
        )
    elif op.kind == "batchnorm2d":
        out = backend.batchnorm2d(
            x, m.weight.data[s], m.bias.data[s], m.running_mean[s],
            m.running_var[s], eps=m.eps,
        )
    elif op.kind in ("relu", "relu6", "subsample2d"):
        out = backend.run_op(op, [x])
    elif op.kind == "pad_channels":
        return val, c + op.params["before"]
    else:
        raise ValueError(f"a {op.kind} op has no single-channel kernel")
    return out[:, 0], c


@dataclass(frozen=True)
class KernelSpec:
    """Static traits of one op kind."""

    kind: str
    requires_module: bool
    batch_invariant: Callable[[object], bool]
    #: Whether one channel can be run alone, bitwise equal to that
    #: channel of the full op; the engines replay a fault's one dirty
    #: channel through chains of such ops.
    channel_separable: Callable[[object], bool]
    infer_shape: Callable[[object, list], Shape]


KERNEL_TABLE: dict[str, KernelSpec] = {
    spec.kind: spec
    for spec in (
        KernelSpec(
            "conv2d", True, _conv_batch_invariant, _conv_channel_separable,
            _conv_shape,
        ),
        KernelSpec(
            "batchnorm2d", True, _always_batch_invariant,
            _always_channel_separable, _bn_shape,
        ),
        KernelSpec(
            "linear", True, _never_batch_invariant,
            _never_channel_separable, _linear_shape,
        ),
        KernelSpec(
            "relu", False, _always_batch_invariant,
            _always_channel_separable, _same_shape,
        ),
        KernelSpec(
            "relu6", False, _always_batch_invariant,
            _always_channel_separable, _same_shape,
        ),
        KernelSpec(
            "avg_pool2d", True, _always_batch_invariant,
            _never_channel_separable, _avg_pool_shape,
        ),
        KernelSpec(
            "global_avg_pool2d", False, _always_batch_invariant,
            _never_channel_separable, _global_pool_shape,
        ),
        KernelSpec(
            "flatten", False, _always_batch_invariant,
            _never_channel_separable, _flatten_shape,
        ),
        KernelSpec(
            "add", False, _always_batch_invariant,
            _never_channel_separable, _add_shape,
        ),
        KernelSpec(
            "subsample2d", False, _always_batch_invariant,
            _always_channel_separable, _subsample_shape,
        ),
        KernelSpec(
            "pad_channels", False, _always_batch_invariant,
            _always_channel_separable, _pad_channels_shape,
        ),
    )
}


#: Op kinds carrying an absorption row in :func:`absorption_spec` — the
#: vetting register for the *vectorized* execution mode: rows reaching an
#: op without one can never be certified and fall through to exact
#: execution (rule ``P123``).
ABSORPTION_KINDS = frozenset(
    {
        "conv2d",
        "batchnorm2d",
        "linear",
        "relu",
        "relu6",
        "avg_pool2d",
        "global_avg_pool2d",
        "flatten",
        "add",
        "subsample2d",
        "pad_channels",
    }
)


def absorption_spec(
    op: OpSpec,
    *,
    mean: bool,
    in_positions: int = 1,
    out_positions: int = 1,
    input_rank: int = 3,
) -> tuple[Any, ...] | None:
    """Sound channelwise delta-bound transfer for one op kind.

    This is the vectorized engine's certification calculus, kept here —
    next to the batch-invariance register — as the verifier-owned
    encoding of each kernel's analytic behaviour.  For a per-sample,
    per-channel bound ``b[c]`` on the magnitude of an activation delta,
    the returned spec describes a bound on the op output's delta:

    - ``("id",)``      — ``b`` carries through unchanged (contractions:
      relu/relu6 clip, pooling averages, channel subsampling),
    - ``("scale", s)`` — ``b * s``,
    - ``("diag", v)``  — ``b * v`` channelwise (batchnorm affine),
    - ``("mat", A)``   — ``A @ b`` (conv absorbed over the kernel
      window, linear absorbed over ``|W|``),
    - ``("pad", before, after)`` — channels pass through at an offset,
    - ``None``         — no sound row (the certifier must treat the op
      as absorbing nothing, i.e. an infinite bound).

    Two chains are maintained: with ``mean=False`` the bound is the
    per-channel *max* of ``|delta|`` over spatial positions; with
    ``mean=True`` it is the per-channel *mean*.  The mean chain needs
    the spatial position counts: an op that maps ``in_positions`` input
    positions onto ``out_positions`` output positions concentrates the
    summed delta by at most ``in_positions / out_positions`` (strided
    convs and subsampling), while ``global_avg_pool2d`` maps the mean
    bound straight onto its single output position — which is what makes
    the dual-chain bound sharp after relu gating spikes the max.
    """
    kind = op.kind
    if kind == "conv2d":
        weight = np.abs(op.module.weight.data).sum(axis=(2, 3))
        matrix = weight.astype(np.float64)
        if op.module.groups != 1:
            # Grouped/depthwise kernels: expand the (out_c, in_c/groups)
            # block-diagonal structure to a dense (out_c, in_c) matrix.
            out_c, in_pg = matrix.shape
            in_c = in_pg * op.module.groups
            dense = np.zeros((out_c, in_c), dtype=np.float64)
            out_pg = out_c // op.module.groups
            for g in range(op.module.groups):
                dense[
                    g * out_pg : (g + 1) * out_pg,
                    g * in_pg : (g + 1) * in_pg,
                ] = matrix[g * out_pg : (g + 1) * out_pg]
            matrix = dense
        if mean and out_positions:
            matrix = matrix * (in_positions / out_positions)
        return ("mat", matrix)
    if kind == "batchnorm2d":
        m = op.module
        scale = np.abs(
            m.weight.data / np.sqrt(m.running_var + m.eps)
        ).astype(np.float64)
        return ("diag", scale)
    if kind == "linear":
        return ("mat", np.abs(op.module.weight.data).astype(np.float64))
    if kind == "subsample2d":
        if mean and out_positions:
            return ("scale", in_positions / out_positions)
        return ("id",)
    if kind == "flatten":
        # Only the trivial rank-1 flatten (post-GAP) preserves the
        # per-channel bound; flattening spatial extents would need a
        # channel-grouped expansion nothing in the zoo requires.
        return ("id",) if input_rank <= 1 else None
    if kind in ("relu", "relu6", "avg_pool2d", "global_avg_pool2d", "add"):
        return ("id",)
    if kind == "pad_channels":
        return ("pad", op.params["before"], op.params["after"])
    return None


def param_dtype_issues(op: OpSpec) -> list[str]:
    """Non-float32 parameter arrays reachable by *op*'s kernel (P105)."""
    issues: list[str] = []
    modules = [op.module] if op.module is not None else []
    bn = op.params.get("bn")
    if bn is not None:
        modules.append(bn)
    for module in modules:
        for name in ("weight", "bias"):
            param = getattr(module, name, None)
            if param is not None and param.data.dtype != np.float32:
                issues.append(f"{type(module).__name__}.{name} is {param.data.dtype}")
        for name in ("running_mean", "running_var"):
            buf = getattr(module, name, None)
            if buf is not None and buf.dtype != np.float32:
                issues.append(f"{type(module).__name__}.{name} is {buf.dtype}")
    return issues
