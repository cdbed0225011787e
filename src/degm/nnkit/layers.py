"""Dense layers with fixed activations."""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, TrainingError
from .autodiff import Tensor, affine, parameter
from .rng import Rng

ACTIVATIONS = ("identity", "leaky-relu", "tanh", "sigmoid")
LEAKY_SLOPE = 0.01


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
    if layer.activation == "leaky-relu":
        y = y.leaky_relu(LEAKY_SLOPE)
    elif layer.activation == "tanh":
        y = y.tanh()
    elif layer.activation == "sigmoid":
        y = y.sigmoid()
    if not np.isfinite(y.data).all():
        raise TrainingError(f"non-finite activation out of layer {layer.name!r}")
    return y
