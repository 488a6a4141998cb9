"""Graph-free numpy inference kernels.

These mirror the autograd ops in :mod:`repro.tensor.ops` but skip tape
construction entirely — the fault-injection engine calls them millions of
times, so they must be as lean as a numpy implementation can be.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.im2col import conv_output_size, im2col, zero_pad2d


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray | None = None,
    *,
    stride: int = 1,
    padding: int = 0,
    groups: int = 1,
) -> np.ndarray:
    """Grouped 2-D convolution (inference only).

    Specialised fast paths handle the two layer shapes MobileNetV2 leans
    on — pointwise (1x1) and depthwise (groups == channels) convolutions —
    without materialising im2col columns.
    """
    n, c, h, w = x.shape
    oc, cg, kh, kw = weight.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    p = out_h * out_w

    if kh == 1 and kw == 1 and padding == 0 and groups == 1:
        # Pointwise: a plain channel-mixing matmul.
        if stride != 1:
            x = x[:, :, ::stride, ::stride]
        out = np.matmul(weight.reshape(oc, c), x.reshape(n, c, p))
    elif groups == c and oc == c and cg == 1:
        # Depthwise: one kernel per channel over shifted windows.
        windows = np.lib.stride_tricks.sliding_window_view(
            zero_pad2d(x, padding), (kh, kw), axis=(2, 3)
        )[:, :, ::stride, ::stride]
        out = np.einsum(
            "nchwij,cij->nchw", windows, weight.reshape(c, kh, kw), optimize=True
        )
    else:
        cols = im2col(x, kh, kw, stride, padding)
        if groups == 1:
            out = np.matmul(weight.reshape(oc, cg * kh * kw), cols)
        else:
            k = cg * kh * kw
            ocg = oc // groups
            cols_g = cols.reshape(n, groups, k, p)
            w_g = weight.reshape(groups, ocg, k)
            out = np.einsum("gok,ngkp->ngop", w_g, cols_g, optimize=True)
    out = out.reshape(n, oc, out_h, out_w)
    if bias is not None:
        out = out + bias.reshape(1, oc, 1, 1)
    return np.ascontiguousarray(out, dtype=np.float32)


def batchnorm2d(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    *,
    eps: float = 1e-5,
) -> np.ndarray:
    """Inference batch norm using the running statistics."""
    c = x.shape[1]
    scale = (gamma / np.sqrt(running_var + eps)).astype(np.float32)
    shift = (beta - running_mean * scale).astype(np.float32)
    return x * scale.reshape(1, c, 1, 1) + shift.reshape(1, c, 1, 1)


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def relu6(x: np.ndarray) -> np.ndarray:
    """ReLU clipped at 6."""
    return np.clip(x, 0.0, 6.0)


def linear(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
) -> np.ndarray:
    """Affine map ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def avg_pool2d(x: np.ndarray, kernel: int) -> np.ndarray:
    """Non-overlapping average pooling with stride == kernel."""
    n, c, h, w = x.shape
    if h % kernel or w % kernel:
        raise ValueError(
            f"avg_pool2d kernel {kernel} must divide spatial dims ({h}x{w})"
        )
    view = x.reshape(n, c, h // kernel, kernel, w // kernel, kernel)
    return view.mean(axis=(3, 5), dtype=np.float32)


def global_avg_pool2d(x: np.ndarray) -> np.ndarray:
    """Average over the full spatial extent, returning (N, C)."""
    return x.mean(axis=(2, 3), dtype=np.float32)


def subsample2d(x: np.ndarray, stride: int) -> np.ndarray:
    """Spatial subsampling ``x[:, :, ::stride, ::stride]``."""
    return np.ascontiguousarray(x[:, :, ::stride, ::stride])


def pad_channels(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """Zero-pad the channel dimension."""
    return np.pad(x, ((0, 0), (before, after), (0, 0), (0, 0)), mode="constant")


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of logits (N, K)."""
    z = x - x.max(axis=1, keepdims=True)
    exp = np.exp(z)
    return exp / exp.sum(axis=1, keepdims=True)


def channel_abs_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample, per-channel ``(max, mean)`` of ``|x|``, in float64.

    The basis vectors of the vectorized engine's dual delta-bound
    chains (see :func:`repro.check.kernels.absorption_spec`): spatial
    axes are reduced away, rank-2 inputs (post-GAP activations, logits)
    pass through with max == mean.  float64 keeps the certification
    arithmetic's own rounding far below the margins it compares against.
    """
    a = np.abs(x)
    if a.ndim <= 2:
        a = a.astype(np.float64)
        return a, a
    axes = tuple(range(2, a.ndim))
    # max of float32 values is exact; mean accumulates in float64 — no
    # full-array float64 cast needed for a sound bound.
    return a.max(axis=axes).astype(np.float64), a.mean(axis=axes, dtype=np.float64)
