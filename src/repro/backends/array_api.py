"""Generic Array-API backend: portable kernels over any conforming library.

Written against the Array API standard namespace (``matmul``,
``permute_dims``, ``concat``, ...), not numpy: any library exposing the
standard — ``array_api_strict``, CuPy, a torch compat layer — can slot
in.  Discovery prefers ``array_api_strict`` when installed, then falls
back to numpy's own Array-API namespace (numpy ≥ 2 advertises
``__array_api_version__``), and raises
:class:`~repro.backends.base.BackendUnavailableError` when neither
exists — callers degrade gracefully (``available_backends`` simply omits
it).

These kernels avoid stride tricks and in-place workspace writes, so
their numerics differ from the reference: matmul-family ops are declared
``"relative"`` tolerance and ``"never"`` batch-invariant (claiming
non-invariance is always safe — only a claimed invariance is
falsifiable, and the op_db suite attacks exactly those claims).
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, BackendUnavailableError
from repro.tensor.im2col import conv_output_size

#: Names the kernels below require from the namespace; probed at init so
#: a partially conforming library fails loudly instead of mid-campaign.
_REQUIRED_NAMES = (
    "asarray",
    "clip",
    "concat",
    "matmul",
    "maximum",
    "mean",
    "permute_dims",
    "reshape",
    "stack",
    "zeros",
)


def _discover_namespace():
    """Locate an Array-API namespace, preferring a dedicated library."""
    try:
        import array_api_strict
    except ImportError:
        pass
    else:
        return array_api_strict, "array_api_strict " + getattr(
            array_api_strict, "__version__", "0"
        )
    if getattr(np, "__array_api_version__", None):
        return np, "numpy " + np.__version__
    raise BackendUnavailableError(
        "no Array-API-compatible library available: install "
        "array_api_strict or numpy >= 2"
    )


class ArrayApiBackend(Backend):
    """Portable kernels over a discovered Array-API namespace."""

    name = "array_api"
    OP_TOLERANCE = {
        "conv2d": "relative",
        "batchnorm2d": "relative",
        "linear": "relative",
        "relu": "bitexact",
        "relu6": "bitexact",
        "avg_pool2d": "relative",
        "global_avg_pool2d": "relative",
        "flatten": "bitexact",
        "add": "bitexact",
        "subsample2d": "bitexact",
        "pad_channels": "bitexact",
        "gemm": "relative",
        "im2col": "bitexact",
    }
    OP_INVARIANCE = {
        "conv2d": "never",
        "batchnorm2d": "always",
        "linear": "never",
        "relu": "always",
        "relu6": "always",
        "avg_pool2d": "always",
        "global_avg_pool2d": "always",
        "flatten": "always",
        "add": "always",
        "subsample2d": "always",
        "pad_channels": "always",
        "gemm": "never",
        "im2col": "always",
    }

    def __init__(self) -> None:
        xp, version = _discover_namespace()
        missing = sorted(
            name for name in _REQUIRED_NAMES if not hasattr(xp, name)
        )
        if missing:
            raise BackendUnavailableError(
                f"Array-API namespace {version} lacks required name(s): "
                + ", ".join(missing)
            )
        self.xp = xp
        self.version = version
        super().__init__()

    # -- array plumbing ----------------------------------------------------

    def _from_numpy(self, a: np.ndarray):
        return self.xp.asarray(np.ascontiguousarray(a, dtype=np.float32))

    def _to_numpy(self, a) -> np.ndarray:
        try:
            out = np.asarray(a)
        except TypeError:
            out = np.from_dlpack(a)
        return np.ascontiguousarray(out, dtype=np.float32)

    def _pad2d(self, x, padding: int):
        """Zero-pad trailing spatial axes via concat (no pad() in the API)."""
        if padding <= 0:
            return x
        xp = self.xp
        n, c, h, w = x.shape
        wide = xp.zeros((n, c, h, padding), dtype=x.dtype)
        x = xp.concat((wide, x, wide), axis=3)
        tall = xp.zeros((n, c, padding, w + 2 * padding), dtype=x.dtype)
        return xp.concat((tall, x, tall), axis=2)

    def _im2col_xp(self, x, kh, kw, stride, padding):
        """Namespace-native im2col via stacked strided slices.

        kh*kw slices instead of a sliding-window view: the Array API has
        no stride tricks, and kernel windows are tiny (≤ 9 here).
        """
        xp = self.xp
        n, c, h, w = x.shape
        out_h = conv_output_size(h, kh, stride, padding)
        out_w = conv_output_size(w, kw, stride, padding)
        x = self._pad2d(x, padding)
        patches = [
            x[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]
            for i in range(kh)
            for j in range(kw)
        ]
        # (N, C, kh*kw, out_h, out_w) -> (N, C*kh*kw, out_h*out_w)
        cols = xp.stack(patches, axis=2)
        return xp.reshape(cols, (n, c * kh * kw, out_h * out_w))

    # -- kernels -----------------------------------------------------------

    def conv2d(self, x, weight, bias=None, *, stride=1, padding=0, groups=1):
        xp = self.xp
        n, c, h, w = x.shape
        oc, cg, kh, kw = weight.shape
        out_h = conv_output_size(h, kh, stride, padding)
        out_w = conv_output_size(w, kw, stride, padding)
        p = out_h * out_w
        xa = self._from_numpy(x)
        cols = self._im2col_xp(xa, kh, kw, stride, padding)
        wa = self._from_numpy(weight.reshape(oc, cg * kh * kw))
        if groups == 1:
            out = xp.matmul(wa, cols)
        else:
            k = cg * kh * kw
            ocg = oc // groups
            cols_g = xp.reshape(cols, (n, groups, k, p))
            parts = [
                xp.matmul(wa[g * ocg : (g + 1) * ocg, :], cols_g[:, g, :, :])
                for g in range(groups)
            ]
            out = xp.concat(parts, axis=1)
        out = xp.reshape(out, (n, oc, out_h, out_w))
        if bias is not None:
            out = out + xp.reshape(self._from_numpy(bias), (1, oc, 1, 1))
        return self._to_numpy(out)

    def batchnorm2d(self, x, gamma, beta, running_mean, running_var, *,
                    eps=1e-5):
        xp = self.xp
        c = x.shape[1]
        scale = (gamma / np.sqrt(running_var + eps)).astype(np.float32)
        shift = (beta - running_mean * scale).astype(np.float32)
        out = self._from_numpy(x) * xp.reshape(
            self._from_numpy(scale), (1, c, 1, 1)
        ) + xp.reshape(self._from_numpy(shift), (1, c, 1, 1))
        return self._to_numpy(out)

    def linear(self, x, weight, bias=None):
        xp = self.xp
        out = xp.matmul(
            self._from_numpy(x),
            xp.permute_dims(self._from_numpy(weight), (1, 0)),
        )
        if bias is not None:
            out = out + self._from_numpy(bias)
        return self._to_numpy(out)

    def relu(self, x):
        xp = self.xp
        xa = self._from_numpy(x)
        return self._to_numpy(xp.maximum(xa, xp.asarray(0.0, dtype=xa.dtype)))

    def relu6(self, x):
        xp = self.xp
        return self._to_numpy(xp.clip(self._from_numpy(x), 0.0, 6.0))

    def avg_pool2d(self, x, kernel):
        xp = self.xp
        n, c, h, w = x.shape
        if h % kernel or w % kernel:
            raise ValueError(
                f"avg_pool2d kernel {kernel} must divide spatial dims ({h}x{w})"
            )
        view = xp.reshape(
            self._from_numpy(x),
            (n, c, h // kernel, kernel, w // kernel, kernel),
        )
        return self._to_numpy(xp.mean(view, axis=(3, 5)))

    def global_avg_pool2d(self, x):
        return self._to_numpy(self.xp.mean(self._from_numpy(x), axis=(2, 3)))

    def flatten(self, x):
        xa = self._from_numpy(x)
        return self._to_numpy(self.xp.reshape(xa, (xa.shape[0], -1)))

    def add(self, a, b):
        return self._to_numpy(self._from_numpy(a) + self._from_numpy(b))

    def subsample2d(self, x, stride):
        return self._to_numpy(self._from_numpy(x)[:, :, ::stride, ::stride])

    def pad_channels(self, x, before, after):
        xp = self.xp
        xa = self._from_numpy(x)
        n, c, h, w = xa.shape
        parts = []
        if before:
            parts.append(xp.zeros((n, before, h, w), dtype=xa.dtype))
        parts.append(xa)
        if after:
            parts.append(xp.zeros((n, after, h, w), dtype=xa.dtype))
        return self._to_numpy(xp.concat(parts, axis=1))

    def gemm(self, a, b):
        return self._to_numpy(
            self.xp.matmul(self._from_numpy(a), self._from_numpy(b))
        )

    def im2col(self, x, kh, kw, stride, padding):
        return self._to_numpy(
            self._im2col_xp(self._from_numpy(x), kh, kw, stride, padding)
        )
