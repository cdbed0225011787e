"""Reverse-mode automatic differentiation over float64 arrays.

A :class:`Tensor` wraps a C-contiguous float64 ndarray and, while gradient
recording is enabled, remembers how it was produced. The graph hanging off a
scalar loss is the gradient tape for one minibatch: :func:`backprop` walks it
once, accumulates vector-Jacobian products into the reachable parameters, and
frees the graph. There is no persistent graph between minibatches.

Only what the dense VAE stack needs is implemented: 2-D matmul inside the
fused affine op, elementwise arithmetic with numpy-style broadcasting, a few
pointwise nonlinearities, clipping, and axis/full reductions. The array
formulas of the nonlinearities (``sigmoid_values``, ``leaky_relu_values``)
are also what :meth:`DenseLayer.apply` runs on plain arrays.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Union

import numpy as np

from ..errors import ContractError, DimensionError

ArrayLike = Union["Tensor", np.ndarray, float, int]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (evaluation paths)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def grad_enabled() -> bool:
    return _GRAD_ENABLED


class Tensor:
    """Node in the per-minibatch computation graph.

    ``data`` is always a C-contiguous float64 array, so shape plus the
    row-major buffer fully describe the value. Parameters carry
    ``requires_grad=True`` and a unique name; intermediate nodes are unnamed.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_consumed")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # keeps 0-d losses 0-d
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        # tuple of (parent Tensor, vjp: grad_out -> grad_parent)
        self._parents: tuple = ()
        self._consumed = False

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{tag})"

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _lift(value: ArrayLike) -> "Tensor":
        if isinstance(value, Tensor):
            return value
        return Tensor(value)

    @staticmethod
    def _make(data: np.ndarray, parents: tuple) -> "Tensor":
        out = Tensor(data)
        if _GRAD_ENABLED:
            kept = tuple((p, vjp) for p, vjp in parents if p.requires_grad or p._parents)
            if kept:
                out._parents = kept
                out.requires_grad = True
        return out

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        o = self._lift(other)
        data = self.data + o.data
        return self._make(data, (
            (self, lambda g: _unbroadcast(g, self.shape)),
            (o, lambda g: _unbroadcast(g, o.shape)),
        ))

    __radd__ = __add__

    def __sub__(self, other: ArrayLike) -> "Tensor":
        o = self._lift(other)
        data = self.data - o.data
        return self._make(data, (
            (self, lambda g: _unbroadcast(g, self.shape)),
            (o, lambda g: _unbroadcast(-g, o.shape)),
        ))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other).__sub__(self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        o = self._lift(other)
        data = self.data * o.data
        return self._make(data, (
            (self, lambda g: _unbroadcast(g * o.data, self.shape)),
            (o, lambda g: _unbroadcast(g * self.data, o.shape)),
        ))

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self._make(-self.data, ((self, lambda g: -g),))

    def __truediv__(self, scalar: float) -> "Tensor":
        return self * (1.0 / float(scalar))

    def square(self) -> "Tensor":
        return self._make(self.data ** 2, ((self, lambda g: g * (2.0 * self.data)),))

    # -- pointwise nonlinearities ---------------------------------------------

    def exp(self) -> "Tensor":
        out = np.exp(self.data)
        return self._make(out, ((self, lambda g: g * out),))

    def log(self) -> "Tensor":
        return self._make(np.log(self.data), ((self, lambda g: g / self.data),))

    def tanh(self) -> "Tensor":
        out = np.tanh(self.data)
        return self._make(out, ((self, lambda g: g * (1.0 - out ** 2)),))

    def sigmoid(self) -> "Tensor":
        out = sigmoid_values(self.data)
        return self._make(out, ((self, lambda g: g * out * (1.0 - out)),))

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        """x * (1 if x > 0 else slope), for a slope in [0, 1]."""
        x = self.data
        out = leaky_relu_values(x, slope)
        if not (_GRAD_ENABLED and self.requires_grad):
            return Tensor(out)  # not recorded, so no gradient mask
        # (1 - slope) + slope rounds to exactly 1.0 for every slope in [0, 1]
        mask = (x > 0.0) * (1.0 - slope)
        mask += slope
        return self._make(out, ((self, lambda g: g * mask),))

    def clip(self, lo: float, hi: float) -> "Tensor":
        # gradient passes only where the value is strictly inside the band
        inside = ((self.data > lo) & (self.data < hi)).astype(np.float64)
        return self._make(np.clip(self.data, lo, hi), ((self, lambda g: g * inside),))

    # -- reductions ------------------------------------------------------------

    def sum(self, axis: int | None = None) -> "Tensor":
        if axis is None:
            data = np.asarray(self.data.sum())
            return self._make(data, ((self, lambda g: np.broadcast_to(g, self.shape).copy()),))
        data = self.data.sum(axis=axis)
        shape = self.shape

        def vjp(g: np.ndarray, axis=axis, shape=shape) -> np.ndarray:
            return np.broadcast_to(np.expand_dims(g, axis), shape).copy()

        return self._make(data, ((self, vjp),))

    def mean(self) -> "Tensor":
        return self.sum() / float(self.data.size)


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


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Fused ``x @ W.T + b`` for 2-D ``x`` with ``W`` stored as [out, in]."""
    if x.ndim != 2 or weight.ndim != 2:
        raise DimensionError(f"affine expects 2-D operands, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[1]:
        raise DimensionError(
            f"input width {x.shape[1]} does not match layer input width {weight.shape[1]}"
        )
    if bias.shape != (weight.shape[0],):
        raise DimensionError(f"bias shape {bias.shape} does not match output width {weight.shape[0]}")
    data = x.data @ weight.data.T
    data += bias.data
    return Tensor._make(data, (
        (x, lambda g: g @ weight.data),
        (weight, lambda g: g.T @ x.data),
        (bias, lambda g: g.sum(axis=0)),
    ))


def parameter(data: ArrayLike, name: str) -> Tensor:
    """A named leaf that collects gradients."""
    return Tensor(data, requires_grad=True, name=name)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    grad = np.asarray(grad, dtype=np.float64)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def backprop(loss: Tensor) -> dict[str, np.ndarray]:
    """Accumulate dLoss/dParam for every named parameter on the tape.

    ``loss`` must be scalar. The tape is consumed: a second backward pass
    through the same graph raises.
    """
    if loss.shape != ():
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise ContractError("tape already consumed by a previous backprop")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    # No step writes into a gradient in place, so the first gradient that
    # reaches a node is stored as is, even where an identity VJP hands the
    # same array to two parents.
    grads: dict[int, np.ndarray] = {id(loss): np.asarray(1.0)}
    result: dict[str, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            name = node.name if node.name is not None else f"unnamed@{id(node):x}"
            total = np.asarray(result[name] + g if name in result else g, dtype=np.float64)
            total.flags.writeable = False  # it may be shared with another leaf
            result[name] = node.grad = total
        for parent, vjp in node._parents:
            pg = vjp(g)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg
        node._parents = ()
        node._consumed = True
    return result
