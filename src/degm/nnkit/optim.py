"""Adam with bias correction."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import TrainingError
from .autodiff import Tensor


@dataclass
class AdamState:
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    # two buffers per parameter for the update's intermediates
    buffers: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


def adam_step(state: AdamState, params: list[Tensor], grads: dict[str, np.ndarray]) -> AdamState:
    """One Adam update in place; params missing from ``grads`` count as zero gradient.

    A NaN or inf gradient aborts with the offending parameter's name. The
    update is ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)``, each step written
    into the parameter's two work buffers in the formula's order, so the
    bits are those of the formula and the update allocates no array.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1 ** t
    c2 = 1.0 - state.beta2 ** t
    for p in params:
        if p.name is None:
            raise TrainingError("optimiser parameters must be named")
        g = grads.get(p.name)
        if g is None:
            g = np.zeros_like(p.data)
        m = state.m.get(p.name)
        if m is None:
            m = np.zeros_like(p.data)
            state.m[p.name] = m
            state.v[p.name] = np.zeros_like(p.data)
            state.buffers[p.name] = (np.empty_like(p.data), np.empty_like(p.data))
        v = state.v[p.name]
        a, b = state.buffers[p.name]
        # a NaN or inf in g makes the same entry of the update NaN (quietly:
        # inf / inf is the only invalid step), so the gradient is checked only
        # when the parameter is no longer finite
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
            p.data -= b
        if not np.isfinite(p.data).all():
            if not np.isfinite(g).all():
                raise TrainingError(f"NaN or inf gradient for parameter {p.name!r}")
            raise TrainingError(f"non-finite value in parameter {p.name!r} after update")
    return state
