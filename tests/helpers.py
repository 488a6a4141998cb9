"""Test helpers: numeric gradient checking, campaign progress hooks and
a non-reference kernel backend."""

from __future__ import annotations

import numpy as np

from repro.backends import NumpyBackend
from repro.telemetry import Telemetry
from repro.tensor import Tensor


class ForeignBackend(NumpyBackend):
    """Reference numerics under a non-reference identity.

    Numerically identical to numpy, so real classification works, but
    ``is_reference=False`` folds its attestation into plan fingerprints,
    campaign configs and shard stamps, and sends the plan engine down
    the forced-dense, per-variant path: no ``conv2d`` or ``linear`` op
    is ever stacked under it.
    """

    name = "foreign"
    is_reference = False
    OP_INVARIANCE = {
        **NumpyBackend.OP_INVARIANCE,
        "conv2d": "never",
        "linear": "never",
        "gemm": "never",
    }


def progress_telemetry(callback) -> Telemetry:
    """Telemetry calling ``callback(done, total)`` on each ``progress`` event.

    The hook runs inside the emitting ``emit`` call, so an exception it
    raises (e.g. a simulated kill) propagates out of the campaign.
    """

    def on_event(event) -> None:
        if event.type == "progress":
            callback(event.fields["done"], event.fields["total"])

    return Telemetry(on_event=on_event)


def numeric_gradient(fn, value: np.ndarray, epsilon: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar-valued *fn* at *value*.

    ``fn`` receives an ndarray and returns a Python float.
    """
    value = value.astype(np.float64)
    grad = np.zeros_like(value)
    it = np.nditer(value, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = value[idx]
        value[idx] = original + epsilon
        plus = fn(value.astype(np.float32))
        value[idx] = original - epsilon
        minus = fn(value.astype(np.float32))
        value[idx] = original
        grad[idx] = (plus - minus) / (2 * epsilon)
        it.iternext()
    return grad


def check_gradient(
    build_loss,
    arrays: dict[str, np.ndarray],
    *,
    epsilon: float = 1e-3,
    atol: float = 2e-2,
    rtol: float = 5e-2,
) -> None:
    """Compare autograd gradients against numeric ones.

    ``build_loss`` maps a dict of :class:`Tensor` (same keys as *arrays*)
    to a scalar Tensor.  Each array's autograd gradient is checked against
    the central-difference estimate.
    """
    tensors = {
        name: Tensor(value.copy(), requires_grad=True)
        for name, value in arrays.items()
    }
    loss = build_loss(tensors)
    loss.backward()
    for name, value in arrays.items():
        def scalar_fn(perturbed, _name=name):
            local = {
                k: Tensor(perturbed if k == _name else arrays[k].copy())
                for k in arrays
            }
            return float(build_loss(local).data)

        expected = numeric_gradient(scalar_fn, value, epsilon=epsilon)
        actual = tensors[name].grad
        assert actual is not None, f"no gradient for {name}"
        np.testing.assert_allclose(
            actual,
            expected,
            atol=atol,
            rtol=rtol,
            err_msg=f"gradient mismatch for {name}",
        )
