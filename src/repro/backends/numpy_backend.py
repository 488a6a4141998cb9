"""The numpy reference backend — the repo's bit-exactness anchor.

Every kernel here *is* the :mod:`repro.nn.functional` routine that the
module engine's ``forward_fast`` executes (same function objects, same
argument order), so a plan replayed through this backend is
bitwise identical to the module tree by construction.  All other
backends are measured against this one by the op_db conformance suite.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend
from repro.nn import functional as F
from repro.tensor.im2col import im2col as _im2col


class NumpyBackend(Backend):
    """Reference kernels: direct delegation to ``repro.nn.functional``."""

    name = "numpy"
    version = np.__version__
    is_reference = True
    # Tolerance is declared vs the reference — trivially bitexact here.
    OP_TOLERANCE = {
        "conv2d": "bitexact",
        "batchnorm2d": "bitexact",
        "linear": "bitexact",
        "relu": "bitexact",
        "relu6": "bitexact",
        "avg_pool2d": "bitexact",
        "global_avg_pool2d": "bitexact",
        "flatten": "bitexact",
        "add": "bitexact",
        "subsample2d": "bitexact",
        "pad_channels": "bitexact",
        "gemm": "bitexact",
        "im2col": "bitexact",
    }
    # Elementwise ops, pooling reductions and the 3-D matmul convolution
    # paths are bit-stable under batch stacking; the 2-D GEMM behind
    # F.linear and the einsum depthwise/grouped convolution paths are
    # not (BLAS blocking / contraction strategy change with the batch
    # extent).  Convolutions dispatch per op shape, so they defer to the
    # KERNEL_TABLE predicate.
    OP_INVARIANCE = {
        "conv2d": "kernel",
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

    def conv2d(self, x, weight, bias=None, *, stride=1, padding=0, groups=1):
        return F.conv2d(
            x, weight, bias, stride=stride, padding=padding, groups=groups
        )

    def batchnorm2d(self, x, gamma, beta, running_mean, running_var, *,
                    eps=1e-5):
        return F.batchnorm2d(x, gamma, beta, running_mean, running_var, eps=eps)

    def linear(self, x, weight, bias=None):
        return F.linear(x, weight, bias)

    def relu(self, x):
        return F.relu(x)

    def relu6(self, x):
        return F.relu6(x)

    def avg_pool2d(self, x, kernel):
        return F.avg_pool2d(x, kernel)

    def global_avg_pool2d(self, x):
        return F.global_avg_pool2d(x)

    def flatten(self, x):
        return x.reshape(x.shape[0], -1)

    def add(self, a, b):
        return a + b

    def subsample2d(self, x, stride):
        return F.subsample2d(x, stride)

    def pad_channels(self, x, before, after):
        return F.pad_channels(x, before, after)

    def gemm(self, a, b):
        return a @ b

    def im2col(self, x, kh, kw, stride, padding):
        return _im2col(x, kh, kw, stride, padding)
