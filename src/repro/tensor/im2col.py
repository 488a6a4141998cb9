"""im2col / col2im: the workhorses of the numpy convolutions.

``im2col`` lowers a batched image tensor into a matrix of receptive-field
columns so convolution becomes a single matrix product; ``col2im`` scatters
column gradients back into image space (the adjoint).  Both are shared by
the autograd convolution and the fast inference path.
"""

from __future__ import annotations

import numpy as np


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Output spatial extent of a convolution along one axis."""
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"non-positive conv output ({out}) for size={size}, "
            f"kernel={kernel}, stride={stride}, padding={padding}"
        )
    return out


def zero_pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing spatial axes of ``x`` by *padding*.

    Zero-fill + interior copy: element-for-element what ``np.pad``
    (``mode="constant"``) produces, without its per-call Python
    machinery — this runs once per conv in the fault-injection hot
    loop, so every spatial-padding site (im2col lowering and the
    depthwise convolution path alike) shares this one kernel.
    """
    if padding <= 0:
        return x
    n, c, h, w = x.shape
    padded = np.zeros(
        (n, c, h + 2 * padding, w + 2 * padding), dtype=x.dtype
    )
    padded[:, :, padding : padding + h, padding : padding + w] = x
    return padded


def im2col(
    x: np.ndarray,
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Lower ``x`` of shape (N, C, H, W) to columns.

    Returns an array of shape ``(N, C * kh * kw, out_h * out_w)`` where each
    column is the flattened receptive field of one output position.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    x = zero_pad2d(x, padding)
    # windows: (N, C, out_h, out_w, kh, kw) view via stride tricks.
    windows = np.lib.stride_tricks.sliding_window_view(x, (kh, kw), axis=(2, 3))
    windows = windows[:, :, ::stride, ::stride, :, :]
    # -> (N, C, kh, kw, out_h, out_w) -> (N, C*kh*kw, out_h*out_w)
    view = windows.transpose(0, 1, 4, 5, 2, 3)
    cols = view.reshape(n, c * kh * kw, out_h * out_w)
    return np.ascontiguousarray(cols)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add columns back to image shape.

    ``cols`` has shape ``(N, C * kh * kw, out_h * out_w)``; the return value
    has shape *x_shape* = (N, C, H, W).
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    padded = np.zeros(
        (n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype
    )
    cols = cols.reshape(n, c, kh, kw, out_h, out_w)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded
