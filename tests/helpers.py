"""Shared test utilities: the central-finite-difference gradient oracle, and
views of models and graphs that only tests need."""

from __future__ import annotations

import numpy as np

from degm.errors import ContractError
from degm.nnkit import Tensor, backprop
from degm.vae import VaeComponent


def finite_difference_grads(build_loss, params: list[Tensor], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences of a scalar loss wrt each named parameter.

    ``build_loss`` must rebuild the whole forward pass from current parameter
    values (the tape is per-evaluation). Deliberately independent of the tape:
    it only perturbs raw buffers and re-reads the loss value.
    """
    grads = {}
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(build_loss().data)
            flat[i] = orig - h
            lo = float(build_loss().data)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads[p.name] = g
    return grads


def analytic_grads(build_loss, params: list[Tensor]) -> dict[str, np.ndarray]:
    loss = build_loss()
    grads = backprop(loss)
    return {p.name: grads.get(p.name, np.zeros_like(p.data)) for p in params}


def train_elbo_steps(component, data: np.ndarray, steps: int, lr: float, seed: int,
                     batch: int = 32) -> list[float]:
    """Plain Adam/ELBO loop for toy fixtures; returns the per-step batch ELBO means."""
    from degm.nnkit import AdamState, Rng, adam_step

    rng = Rng(seed)
    state = AdamState(lr=lr)
    history = []
    n = data.shape[0]
    for step in range(steps):
        idx = rng.integers(0, n, size=min(batch, n))
        x = data[idx]
        values = component.elbo(x, rng=rng)
        history.append(float(values.data.mean()))
        loss = -values.mean()
        adam_step(state, component.params(), backprop(loss))
    return history


def max_rel_err(analytic: dict[str, np.ndarray], numeric: dict[str, np.ndarray]) -> float:
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        denom = np.maximum(np.abs(a), np.abs(n))
        denom = np.maximum(denom, 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def parameter_bytes(obj) -> bytes:
    """Concatenated raw parameter buffers; equality means bit-identical weights."""
    return b"".join(t.data.tobytes() for t in obj.params())


def owner_entry(graph, task_id: int):
    """The node of ``graph`` that learned task ``task_id``."""
    for e in graph.entries:
        if e.task_id == task_id:
            return e
    raise ContractError(f"no node owns task id {task_id}")


def specific_encode(graph, s, x, rng=None, eps=None):
    """Blend the per-basic posteriors of specific node ``s``: z = sum_j pi_j z_j.
    Gradients reach only the node's new lower encoder; basic sub-modules stay
    frozen. Returns z and the per-basic (mu, logvar)."""
    _, stats = graph._basic_stats(s, x)
    return graph._mix_latent(s, stats, rng=rng, eps=eps), stats


def composite_component(graph, s, basic_index: int) -> VaeComponent:
    """The plain component a one-hot specific node ``s`` degenerates to."""
    b = graph.basics[basic_index].vae
    return VaeComponent.from_layers(s.enc_lower_new, b.enc_mu, b.enc_logvar,
                                    b.dec_lower, s.dec_upper_new,
                                    graph.likelihood, graph.sigma,
                                    name=f"{s.name}+b{basic_index}")
