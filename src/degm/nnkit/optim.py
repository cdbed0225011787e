"""One flat parameter vector per model, and Adam over it with bias correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ContractError, TrainingError
from .layers import Param


class ParamVector(list):
    """Uniquely named parameters whose ``data`` are bound, in order, to
    reshaped views of the one C-contiguous float64 vector ``flat``: a copy of
    their arrays unless ``flat`` is given. ``len`` is the parameter count."""

    def __init__(self, params: list[Param], flat: np.ndarray | None = None):
        super().__init__(params)
        names = [p.name for p in params]
        if None in names or len(set(names)) != len(names):
            raise TrainingError("optimiser parameters must be named, each name once")
        self.ends = np.cumsum([p.data.size for p in params], dtype=np.intp)
        if flat is None:
            flat = np.concatenate([p.data.reshape(-1) for p in params] + [np.zeros(0)])
        for p, view in zip(self, self.slices(flat)):
            p.data = view
        self.flat = flat

    def __reduce__(self):
        # pickle copies each view on its own; unpickling binds them to a new vector
        return ParamVector, (list(self),)

    def slices(self, flat: np.ndarray) -> list[np.ndarray]:
        """Each parameter's slice of a vector laid out as ``flat``, reshaped, in order."""
        return [flat[e - t.data.size:e].reshape(t.data.shape) for t, e in zip(self, self.ends)]

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """``slices(flat)`` by parameter name."""
        return {t.name: view for t, view in zip(self, self.slices(flat))}


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    # the moments and two work vectors, each shaped as the parameter vector
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    buffers: tuple[np.ndarray, np.ndarray] | None = None


def adam_step(state: AdamState, params: ParamVector, g: np.ndarray) -> AdamState:
    """One Adam update of the vector ``params``, in place, from its gradient
    vector ``g``: ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, each step
    written into the work vectors in the formula's order. A NaN or inf
    gradient aborts with the offending parameter's name."""
    if not (isinstance(params, ParamVector) and isinstance(g, np.ndarray)
            and g.shape == params.flat.shape):
        raise ContractError("adam_step takes a ParamVector and a gradient vector laid out as it")
    p = params.flat
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        state.buffers = (np.empty_like(p), np.empty_like(p))
    m, v = state.m, state.v
    a, b = state.buffers
    # a NaN or inf in g makes the same entry of the update NaN (quietly:
    # inf / inf is the only invalid step), so the gradient is checked only
    # when the parameters are no longer finite
    with np.errstate(invalid="ignore"):
        m *= state.beta1
        np.multiply(g, 1.0 - state.beta1, out=a)
        m += a
        v *= state.beta2
        np.multiply(g, 1.0 - state.beta2, out=a)
        a *= g
        v += a
        np.divide(v, c2, out=a)
        np.sqrt(a, out=a)
        a += state.eps
        np.divide(m, c1, out=b)
        b *= state.lr
        b /= a
        p -= b
    if not np.isfinite(p).all():  # the first parameter holding a non-finite value is named
        name = params[int(np.searchsorted(params.ends, np.argmin(np.isfinite(p)), "right"))].name
        if not np.isfinite(params.views(g)[name]).all():
            raise TrainingError(f"NaN or inf gradient for parameter {name!r}")
        raise TrainingError(f"non-finite value in parameter {name!r} after update")
    return state
