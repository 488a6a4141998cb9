"""Kernel backends: the :class:`Backend` interface and its numpy reference.

Every plan and engine runs the numpy reference kernels unless it is
handed another :class:`Backend` instance.  Backends are stateless
kernel tables, so one shared :data:`REFERENCE_BACKEND` serves every
plan in the process.
"""

from __future__ import annotations

from repro.backends.base import BACKEND_OP_KINDS, BACKEND_PRIMITIVES, Backend
from repro.backends.numpy_backend import NumpyBackend

#: The numpy reference backend every plan and engine defaults to.
REFERENCE_BACKEND = NumpyBackend()


def resolve_backend(backend: Backend | None = None) -> Backend:
    """*backend* itself, or the shared numpy reference when ``None``."""
    if backend is None:
        return REFERENCE_BACKEND
    if not isinstance(backend, Backend):
        raise TypeError(
            f"backend must be a Backend instance or None, got {backend!r}"
        )
    return backend


__all__ = [
    "BACKEND_OP_KINDS",
    "BACKEND_PRIMITIVES",
    "Backend",
    "NumpyBackend",
    "REFERENCE_BACKEND",
    "resolve_backend",
]
