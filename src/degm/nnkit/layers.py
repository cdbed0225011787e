"""Dense layers with fixed activations, on plain arrays.

Each weight and bias is a ``Param``: a named array that is a view into its
model's one ``ParamVector``. ``DenseLayer.apply`` is the forward pass;
``activation_grad`` and ``accumulate_grads`` are its vector-Jacobian
products, in the order that the tape reference in ``tests/tape.py`` takes
them, so that every gradient is the tape's bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, DimensionError, TrainingError
from .rng import Rng

ACTIVATIONS = ("identity", "leaky-relu", "sigmoid")
LEAKY_SLOPE = 0.01


class Param:
    """A named parameter array."""

    __slots__ = ("name", "data")

    def __init__(self, name: str | None, data: np.ndarray):
        self.name = name
        self.data = data


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), step for step in one buffer."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return out


def leaky_relu_values(x: np.ndarray, slope: float) -> np.ndarray:
    """x * (1 if x > 0 else slope), for a slope in [0, 1]."""
    if not 0.0 <= slope <= 1.0:
        raise ContractError(f"leaky_relu slope must lie in [0, 1], got {slope!r}")
    if slope == 0.0:
        return x * (x > 0.0)  # max(x, x * 0) would turn +inf into NaN
    out = x * slope
    return np.maximum(x, out, out=out)


# activation -> its array formula; identity is absent
_ACTIVATE = {
    "leaky-relu": lambda y: leaky_relu_values(y, LEAKY_SLOPE),
    "sigmoid": sigmoid_values,
}


class DenseLayer:
    """Affine map plus activation; weights [out, in], bias [out].

    Initialisation is uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)] with zero
    bias, drawn from the supplied stream.
    """

    def __init__(self, in_dim: int, out_dim: int, activation: str = "identity",
                 rng: Rng | None = None, name: str = "dense"):
        if activation not in ACTIVATIONS:
            raise ContractError(f"unknown activation {activation!r}")
        self.in_dim = int(in_dim)
        self.out_dim = int(out_dim)
        self.activation = activation
        self.name = name
        bound = 1.0 / np.sqrt(in_dim)
        if rng is None:
            w = np.zeros((out_dim, in_dim))
        else:
            w = rng.uniform(-bound, bound, (out_dim, in_dim))
        self.weight = Param(f"{name}.W", w)
        self.bias = Param(f"{name}.b", np.zeros(out_dim))

    def params(self) -> list[Param]:
        return [self.weight, self.bias]

    def apply(self, x: np.ndarray) -> np.ndarray:
        """act(x @ W.T + b) of a C-contiguous float64 [batch, in] array."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"layer {self.name!r} expects [batch, {self.in_dim}], "
                                 f"got {x.shape}")
        y = x @ self.weight.data.T
        y += self.bias.data
        if self.activation in _ACTIVATE:
            y = _ACTIVATE[self.activation](y)
        if not np.isfinite(y).all():  # an empty y passes
            raise TrainingError(f"non-finite activation out of layer {self.name!r}")
        return y

    def activation_grad(self, y: np.ndarray, g: np.ndarray) -> np.ndarray:
        """The gradient at the affine output of ``apply``, from the gradient
        ``g`` at its output ``y``: the tape's VJP of the activation, bit for bit.

        The leaky-relu mask is the tape's, ``(a > 0) * (1 - slope) + slope``
        for the affine output ``a``; with a positive slope ``y > 0`` exactly
        where ``a > 0``.
        """
        if self.activation == "sigmoid":
            return g * y * (1.0 - y)
        if self.activation == "leaky-relu":
            mask = (y > 0.0).astype(np.float64)
            mask *= 1.0 - LEAKY_SLOPE
            mask += LEAKY_SLOPE
            mask *= g
            return mask
        return g

    def accumulate_grads(self, grads: dict[str, np.ndarray], x: np.ndarray, g: np.ndarray,
                         first: bool = True) -> None:
        """Write (``first``) or add this layer's weight and bias gradients, from
        its input ``x`` and the gradient ``g`` at its affine output, into ``grads``
        by name: the tape's VJPs of ``affine``, summed in call order."""
        w, b = grads[self.weight.name], grads[self.bias.name]
        if first:
            np.matmul(g.T, x, out=w)
            g.sum(axis=0, out=b)
        else:
            w += g.T @ x
            b += g.sum(axis=0)
