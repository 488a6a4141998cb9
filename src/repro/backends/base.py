"""The backend kernel interface: "how to compute" behind the plan IR.

An :class:`~repro.runtime.plan.ExecutionPlan` records *what* to compute
(ops over buffer slots); a :class:`Backend` supplies *how* — one kernel
per op kind, plus the ``gemm``/``im2col`` primitives the engines call
directly.  The reference :class:`~repro.backends.numpy_backend.NumpyBackend`
delegates to the exact :mod:`repro.nn.functional` routines the module
engine's ``forward_fast`` executes, so every engine shares one set of
kernels.  A different :class:`Backend` instance handed to an engine
implements the same interface with its own numerics.

Because the paper's statistical-FI methodology depends on knowing when
outcomes are bit-identical, a backend must *declare* two per-op traits,
and the op_db conformance suite (:mod:`repro.check.opdb`) empirically
attacks both declarations:

- **tolerance class** — ``"bitexact"`` (bitwise equal to the reference
  kernel) or ``"relative"`` (floating-point close, not bitwise);
- **batch-invariance class** — ``"always"`` (bit-stable under stacking
  variants along the batch axis), ``"never"`` (evaluated per variant),
  or ``"kernel"`` (resolved per op from the
  :data:`~repro.check.kernels.KERNEL_TABLE` dispatch predicate, as the
  reference convolution paths require).

:meth:`Backend.attestation` serialises these traits with the backend
name and version; :func:`repro.check.plan.plan_fingerprint` folds the
attestation into the plan fingerprint of any non-reference plan, which
is how ``repro.dist`` merges refuse cross-backend mixing unless a
verification pass declared the fingerprints compatible.
"""

from __future__ import annotations

import numpy as np

#: Op kinds every backend must dispatch (the kernel-table kinds).
BACKEND_OP_KINDS = (
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
)

#: Array-level primitives the engines call outside plan dispatch.
BACKEND_PRIMITIVES = ("gemm", "im2col")


class Backend:
    """Abstract kernel backend: array-level kernels + op-level dispatch.

    Subclasses implement the array-level kernels (:meth:`conv2d`,
    :meth:`linear`, ...) and declare ``OP_TOLERANCE`` / ``OP_INVARIANCE``
    for every kind in :data:`BACKEND_OP_KINDS` and
    :data:`BACKEND_PRIMITIVES`.  The op-level runners (unpacking an
    :class:`~repro.runtime.plan.OpSpec`'s module and params) are shared
    here so all backends interpret the plan IR identically.
    """

    name: str = "abstract"
    version: str = "0"
    #: True only for the numpy reference backend whose kernels are the
    #: very functions ``forward_fast`` executes (the bit-exactness
    #: anchor); reference-only machinery (channel-sparse evaluation,
    #: vectorized certification, the module engine) gates on this.
    is_reference: bool = False
    OP_TOLERANCE: dict[str, str] = {}
    OP_INVARIANCE: dict[str, str] = {}

    def __init__(self) -> None:
        missing = [
            kind
            for kind in (*BACKEND_OP_KINDS, *BACKEND_PRIMITIVES)
            if kind not in self.OP_TOLERANCE or kind not in self.OP_INVARIANCE
        ]
        if missing:
            raise TypeError(
                f"backend {self.name!r} declares no tolerance/invariance "
                f"for op kind(s) {missing}"
            )
        self._dispatch = {
            "conv2d": self._run_conv2d,
            "batchnorm2d": self._run_batchnorm2d,
            "linear": self._run_linear,
            "relu": self._run_relu,
            "relu6": self._run_relu6,
            "avg_pool2d": self._run_avg_pool2d,
            "global_avg_pool2d": self._run_global_avg_pool2d,
            "flatten": self._run_flatten,
            "add": self._run_add,
            "subsample2d": self._run_subsample2d,
            "pad_channels": self._run_pad_channels,
        }

    # -- op-level dispatch (shared IR interpretation) ----------------------

    def run_op(self, op, inputs):
        """Execute one plan op on concrete input arrays."""
        return self._dispatch[op.kind](op, *inputs)

    def op_kinds(self) -> frozenset:
        """Op kinds this backend can dispatch."""
        return frozenset(self._dispatch)

    def _run_conv2d(self, op, x):
        m = op.module
        return self.conv2d(
            x,
            m.weight.data,
            None if m.bias is None else m.bias.data,
            stride=m.stride,
            padding=m.padding,
            groups=m.groups,
        )

    def _run_batchnorm2d(self, op, x):
        m = op.module
        return self.batchnorm2d(
            x, m.weight.data, m.bias.data, m.running_mean, m.running_var,
            eps=m.eps,
        )

    def _run_linear(self, op, x):
        m = op.module
        return self.linear(
            x, m.weight.data, None if m.bias is None else m.bias.data
        )

    def _run_relu(self, op, x):
        return self.relu(x)

    def _run_relu6(self, op, x):
        return self.relu6(x)

    def _run_avg_pool2d(self, op, x):
        return self.avg_pool2d(x, op.module.kernel)

    def _run_global_avg_pool2d(self, op, x):
        return self.global_avg_pool2d(x)

    def _run_flatten(self, op, x):
        return self.flatten(x)

    def _run_add(self, op, a, b):
        return self.add(a, b)

    def _run_subsample2d(self, op, x):
        return self.subsample2d(x, op.params["stride"])

    def _run_pad_channels(self, op, x):
        return self.pad_channels(x, op.params["before"], op.params["after"])

    # -- array-level kernels (backend-specific numerics) -------------------

    def conv2d(
        self,
        x: np.ndarray,
        weight: np.ndarray,
        bias: np.ndarray | None = None,
        *,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
    ) -> np.ndarray:
        raise NotImplementedError

    def batchnorm2d(
        self,
        x: np.ndarray,
        gamma: np.ndarray,
        beta: np.ndarray,
        running_mean: np.ndarray,
        running_var: np.ndarray,
        *,
        eps: float = 1e-5,
    ) -> np.ndarray:
        raise NotImplementedError

    def linear(
        self, x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None
    ) -> np.ndarray:
        raise NotImplementedError

    def relu(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def relu6(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def avg_pool2d(self, x: np.ndarray, kernel: int) -> np.ndarray:
        raise NotImplementedError

    def global_avg_pool2d(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def flatten(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def subsample2d(self, x: np.ndarray, stride: int) -> np.ndarray:
        raise NotImplementedError

    def pad_channels(self, x: np.ndarray, before: int, after: int) -> np.ndarray:
        raise NotImplementedError

    def gemm(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Matrix product ``a @ b`` (batched when either operand is 3-D)."""
        raise NotImplementedError

    def im2col(
        self,
        x: np.ndarray,
        kh: int,
        kw: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        raise NotImplementedError

    # -- declared traits ---------------------------------------------------

    def batch_invariant(self, op) -> bool:
        """Whether this backend's kernel for *op* is batch-invariant.

        ``"kernel"``-class kinds resolve through the central
        :data:`~repro.check.kernels.KERNEL_TABLE` predicate (the single
        source of truth for the reference dispatch rules).
        """
        invariance = self.OP_INVARIANCE[op.kind]
        if invariance == "always":
            return True
        if invariance == "never":
            return False
        # Lazy import: repro.check reasons about the runtime stack and
        # must stay importable without this module being loaded first.
        from repro.check.kernels import KERNEL_TABLE

        return bool(KERNEL_TABLE[op.kind].batch_invariant(op))

    def tolerance(self, kind: str) -> str:
        """Declared tolerance class vs the reference backend for *kind*."""
        return self.OP_TOLERANCE[kind]

    def attestation(self) -> dict:
        """Deterministic identity record folded into plan fingerprints.

        Name, version, and the per-op trait declarations — exactly the
        facts a distributed merge must agree on before mixing shards, so
        two backends differing in any of them fingerprint differently.
        """
        return {
            "name": self.name,
            "version": self.version,
            "ops": {
                kind: {
                    "invariance": self.OP_INVARIANCE[kind],
                    "tolerance": self.OP_TOLERANCE[kind],
                }
                for kind in sorted(self.OP_INVARIANCE)
            },
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} {self.version}>"
