"""Dense layers with fixed activations.

A layer runs on the tape (``affine_forward``, while training) or on plain
arrays (``DenseLayer.apply``, for every no-grad pass). Both make the same
numpy calls in the same order, so their outputs are the same bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, DimensionError, TrainingError
from .autodiff import Tensor, affine, leaky_relu_values, parameter, sigmoid_values
from .rng import Rng

ACTIVATIONS = ("identity", "leaky-relu", "tanh", "sigmoid")
LEAKY_SLOPE = 0.01

# activation -> (the Tensor method, its array formula); identity is absent
_ACTIVATE = {
    "leaky-relu": (lambda y: y.leaky_relu(LEAKY_SLOPE),
                   lambda y: leaky_relu_values(y, LEAKY_SLOPE)),
    "tanh": (lambda y: y.tanh(), np.tanh),
    "sigmoid": (lambda y: y.sigmoid(), sigmoid_values),
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
        self.weight = parameter(w, f"{name}.W")
        self.bias = parameter(np.zeros(out_dim), f"{name}.b")

    def params(self) -> list[Tensor]:
        return [self.weight, self.bias]

    def __call__(self, x, frozen: bool = False) -> Tensor:
        return affine_forward(self, x, frozen=frozen)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """act(x @ W.T + b) of a C-contiguous float64 [batch, in] array,
        recording nothing."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise DimensionError(f"layer {self.name!r} expects [batch, {self.in_dim}], "
                                 f"got {x.shape}")
        y = x @ self.weight.data.T
        y += self.bias.data
        if self.activation in _ACTIVATE:
            y = _ACTIVATE[self.activation][1](y)
        return _finite(self, y)


def affine_forward(layer: DenseLayer, x, frozen: bool = False) -> Tensor:
    """act(x @ W.T + b), recorded on the tape.

    With ``frozen=True`` the parameters enter as constants, so no gradient
    reaches them even though they normally require one (used by shared
    sub-modules of the graph model).
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if frozen:
        w, b = Tensor(layer.weight.data), Tensor(layer.bias.data)
    else:
        w, b = layer.weight, layer.bias
    y = affine(x, w, b)
    if layer.activation in _ACTIVATE:
        y = _ACTIVATE[layer.activation][0](y)
    _finite(layer, y.data)
    return y


def _finite(layer: DenseLayer, y: np.ndarray) -> np.ndarray:
    if not np.isfinite(y).all():
        raise TrainingError(f"non-finite activation out of layer {layer.name!r}")
    return y
