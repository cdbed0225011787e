"""The reverse-mode tape: the reference that the closed-form gradients of
``degm`` are compared against, bit for bit.

A :class:`Tensor` wraps a C-contiguous float64 ndarray and, while gradient
recording is enabled, remembers how it was produced. The graph hanging off a
scalar loss is the gradient tape for one minibatch: :func:`backprop` walks it
once, accumulates vector-Jacobian products into the reachable parameters, and
frees the graph. There is no persistent graph between minibatches.

Only what the dense VAE stack needs is implemented: 2-D matmul inside the
fused affine op, elementwise arithmetic with numpy-style broadcasting, a few
pointwise nonlinearities, clipping, and axis/full reductions. The pointwise
nonlinearities use the array formulas that ``DenseLayer.apply`` runs
(``sigmoid_values``, ``leaky_relu_values``). Below the tape sit a dense
layer on it (``affine_forward``) and the Tensor forms of the likelihoods,
the KL, the log-density, sampling and log-mean-exp, each making the numpy
calls of its array counterpart in ``degm.nnkit.losses`` in the same order.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Union

import numpy as np

from degm.errors import ContractError, DimensionError, TrainingError
from degm.nnkit import DEFAULT_SIGMA, LEAKY_SLOPE, LOGVAR_HI, LOGVAR_LO, PROB_EPS, DenseLayer, Rng
from degm.nnkit.layers import leaky_relu_values, sigmoid_values
from degm.nnkit.losses import LOG_2PI

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
    _LEAVES.clear()
    return result


# -- dense layers on the tape -----------------------------------------------------------

_LEAVES: dict[int, Tensor] = {}  # id of a parameter's array -> its leaf


def leaf(param) -> Tensor:
    """The tape's leaf for a named parameter array (``degm.nnkit.Param``): one
    Tensor per array until the next ``backprop``, so that every use of a
    parameter on one tape meets at one node, and ``backprop`` sums its
    gradients there in the tape's order."""
    t = _LEAVES.get(id(param.data))
    if t is None or t.data is not param.data:
        t = _LEAVES[id(param.data)] = parameter(param.data, param.name)
    return t


def affine_forward(layer: DenseLayer, x, frozen: bool = False) -> Tensor:
    """act(x @ W.T + b), recorded on the tape.

    With ``frozen=True`` the parameters enter as constants, so no gradient
    reaches them (used by the borrowed sub-modules of a specific node).
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if frozen:
        w, b = Tensor(layer.weight.data), Tensor(layer.bias.data)
    else:
        w, b = leaf(layer.weight), leaf(layer.bias)
    y = affine(x, w, b)
    if layer.activation == "leaky-relu":
        y = y.leaky_relu(LEAKY_SLOPE)
    elif layer.activation == "sigmoid":
        y = y.sigmoid()
    if not np.isfinite(y.data).all():  # an empty y passes
        raise TrainingError(f"non-finite activation out of layer {layer.name!r}")
    return y


# -- likelihoods, KL, log-density, sampling and log-mean-exp on the tape ----------------

def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def reparameterize(mu: Tensor, logvar: Tensor, rng: Rng | None = None,
                   eps: np.ndarray | None = None) -> Tensor:
    """z = mu + exp(logvar / 2) * eps with eps ~ N(0, I).

    Differentiable in mu and logvar; pass ``eps`` explicitly to share
    randomness across estimators.
    """
    mu, logvar = _as_tensor(mu), _as_tensor(logvar)
    if mu.shape != logvar.shape:
        raise DimensionError(f"mu shape {mu.shape} != logvar shape {logvar.shape}")
    if eps is None:
        if rng is None:
            raise ContractError("reparameterize needs an rng or an explicit eps")
        eps = rng.normal(mu.shape)
    std = (logvar.clip(LOGVAR_LO, LOGVAR_HI) * 0.5).exp()
    return mu + std * np.asarray(eps, dtype=np.float64)


def kl_diag_gaussian_to_standard(mu: Tensor, logvar: Tensor) -> Tensor:
    """KL(N(mu, diag exp(logvar)) || N(0, I)) per sample; always >= 0.

    The closed form can dip an ulp below zero when exp(logvar) rounds to 1
    for denormal-scale logvar, so the per-sample value is floored at 0 (the
    gradient there is the exact one: the KL minimum sits at that point).
    """
    mu, logvar = _as_tensor(mu), _as_tensor(logvar)
    if mu.shape != logvar.shape:
        raise DimensionError(f"mu shape {mu.shape} != logvar shape {logvar.shape}")
    lv = logvar.clip(LOGVAR_LO, LOGVAR_HI)
    inner = lv.exp() + mu.square() - 1.0 - lv
    return (inner.sum(axis=1) * 0.5).clip(0.0, np.inf)


def gaussian_log_likelihood(x, mu: Tensor, sigma: float = DEFAULT_SIGMA) -> Tensor:
    """log N(x; mu, sigma^2 I) per sample, sigma fixed."""
    if sigma <= 0.0:
        raise ContractError(f"sigma must be positive, got {sigma}")
    mu = _as_tensor(mu)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != mu.shape:
        raise DimensionError(f"x shape {x.shape} != mu shape {mu.shape}")
    d = x.shape[1]
    sq = (mu - x).square().sum(axis=1)
    const = 0.5 * d * float(np.log(2.0 * np.pi * sigma * sigma))
    return sq * (-0.5 / (sigma * sigma)) - const


def bernoulli_log_likelihood(x, probs: Tensor) -> Tensor:
    """Binary cross-entropy per sample, negated; always <= 0."""
    probs = _as_tensor(probs)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != probs.shape:
        raise DimensionError(f"x shape {x.shape} != probs shape {probs.shape}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ContractError("targets must lie in [0, 1]")
    if probs.data.min() < 0.0 or probs.data.max() > 1.0:
        raise ContractError("probabilities must lie in [0, 1]")
    p = probs.clip(PROB_EPS, 1.0 - PROB_EPS)
    ll = p.log() * x + (1.0 - p).log() * (1.0 - x)
    return ll.sum(axis=1)


def diag_gaussian_logpdf(z: Tensor, mu: Tensor, logvar: Tensor) -> Tensor:
    """log N(z; mu, diag exp(logvar)) per sample, differentiable in all three."""
    z, mu, logvar = _as_tensor(z), _as_tensor(mu), _as_tensor(logvar)
    lv = logvar.clip(LOGVAR_LO, LOGVAR_HI)
    diff_sq = (z - mu).square() * (-lv).exp()
    inner = diff_sq + lv + LOG_2PI
    return inner.sum(axis=1) * (-0.5)


def logmeanexp(values: list[Tensor]) -> Tensor:
    """log((1/K) sum exp(v_i)) over a list of same-shape per-sample tensors.

    Max-shifted for stability; the shift is treated as constant, which leaves
    the gradient (softmax-weighted) exact.
    """
    if not values:
        raise ContractError("logmeanexp needs at least one value")
    if len(values) == 1:
        return values[0]
    m = np.maximum.reduce([v.data for v in values])
    acc = (values[0] - m).exp()
    for v in values[1:]:
        acc = acc + (v - m).exp()
    return acc.log() + (m - float(np.log(len(values))))
