"""Shared test utilities: the central-finite-difference gradient oracle,
views of models and graphs that only tests need, a tape reference for node
passes, written from the nnkit primitives alone, that ``NodePass`` must
equal bit for bit on the tape and on arrays, and a per-tensor Adam that the
fused ``adam_step`` must equal bit for bit."""

from __future__ import annotations

import numpy as np

from degm.errors import ContractError
from degm.nnkit import (
    Tensor,
    affine_forward,
    backprop,
    bernoulli_log_likelihood,
    gaussian_log_likelihood,
    kl_diag_gaussian_to_standard,
    logmeanexp,
    no_grad,
    reparameterize,
)
from degm.vae import VaeComponent


def finite_difference_grads(build_loss, params: list[Tensor], h: float = 1e-5) -> dict[str, np.ndarray]:
    """Central differences of a scalar loss wrt each named parameter.

    ``build_loss`` must rebuild the whole forward pass from current parameter
    values (the tape is per-evaluation). Deliberately independent of the tape:
    it only perturbs raw buffers and re-reads the loss value, a Tensor or an
    array.
    """
    def value() -> float:
        loss = build_loss()
        return float(loss.data if isinstance(loss, Tensor) else loss)

    grads = {}
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = value()
            flat[i] = orig - h
            lo = value()
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
        values = drawn_bound(component.node_pass(Tensor(x)), rng)
        history.append(float(values.data.mean()))
        loss = -values.mean()
        adam_step(state, component.params(), component.params().gradient(backprop(loss)))
    return history


def reference_adam_step(state: dict, params: list[Tensor], grads: dict[str, np.ndarray],
                        lr: float, beta1: float = 0.9, beta2: float = 0.999,
                        eps: float = 1e-8) -> None:
    """Adam tensor by tensor, in the formula's order, with the moments kept
    by name in ``state``; params missing from ``grads`` count as zero."""
    state["step"] = t = state.get("step", 0) + 1
    c1, c2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
    for p in params:
        g = grads.get(p.name, np.zeros_like(p.data))
        m = state.setdefault(("m", p.name), np.zeros_like(p.data))
        v = state.setdefault(("v", p.name), np.zeros_like(p.data))
        m *= beta1
        m += g * (1.0 - beta1)
        v *= beta2
        v += g * (1.0 - beta2) * g
        p.data -= m / c1 * lr / (np.sqrt(v / c2) + eps)


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


def vector_views(owner) -> bool:
    """Every tensor of ``owner`` is its slice, in order, of the owner's one
    C-contiguous float64 parameter vector."""
    params = owner.params()
    flat = params.flat
    return (flat.flags["C_CONTIGUOUS"] and flat.dtype == np.float64
            and all(np.shares_memory(t.data, flat) for t in params)
            and b"".join(t.data.tobytes() for t in params) == flat.tobytes()
            and sum(t.data.size for t in params) == flat.size)


def owner_entry(graph, task_id: int):
    """The node of ``graph`` that learned task ``task_id``."""
    for e in graph.entries:
        if e.task_id == task_id:
            return e
    raise ContractError(f"no node owns task id {task_id}")


def drawn_bound(node_pass, rng, k: int = 1):
    """The pass's bound over ``k`` draws taken from ``rng``, as training takes them."""
    return node_pass.bound(node_pass.draws(rng, k))


def single_draw_elbo(node_pass, eps):
    """The ELBO written out: the reconstruction term at the draw ``eps`` minus the KL."""
    return node_pass.recon_term(node_pass.decode(node_pass.sample(eps))) - node_pass.kl()


def specific_encode(graph, s, x, eps):
    """Blend the per-basic posteriors of specific node ``s`` on the tape:
    z = sum_j pi_j z_j. Gradients reach only the node's new lower encoder;
    basic sub-modules stay frozen. Returns z and the per-basic posteriors."""
    node_pass = graph.node_pass(s, Tensor(x))
    return node_pass.sample(eps), node_pass.posteriors


def composite_component(graph, s, basic_index: int) -> VaeComponent:
    """The plain component a one-hot specific node ``s`` degenerates to."""
    b = graph.basics[basic_index].vae
    return VaeComponent.from_layers(s.enc_lower_new, b.enc_mu, b.enc_logvar,
                                    b.dec_lower, s.dec_upper_new,
                                    graph.likelihood, graph.sigma,
                                    name=f"{s.name}+b{basic_index}")


def _blend(weights, parts):
    if weights is None:
        return parts[0]
    total = None
    for pi, part in zip(weights, parts):
        total = part * pi if total is None else total + part * pi
    return total


def _node_layers(graph, entry) -> tuple:
    """A node's layers as a ``NodePass`` takes them: its lower encoder, one
    (mu, logvar) head pair per latent source, the weights that blend them
    (None for a basic node), the lower decoders, the output layer, the
    likelihood and sigma."""
    if entry.kind == "basic":
        vae = entry.vae
        return (vae.enc_lower, [(vae.enc_mu, vae.enc_logvar)], None, [vae.dec_lower],
                vae.dec_upper, vae.likelihood, vae.sigma)
    basics = [b.vae for b in graph.basics[:entry.weights.size]]
    return (entry.enc_lower_new, [(v.enc_mu, v.enc_logvar) for v in basics], entry.weights,
            [v.dec_lower for v in basics], entry.dec_upper_new, basics[0].likelihood,
            basics[0].sigma)


def _tape_node(layers: tuple, x):
    """A node's encoder on the tape: its (mu, logvar) per latent source, the
    weights that blend them (None for a plain component, which trains its
    heads and lower decoder; a blend borrows them, frozen), its decode and
    its likelihood of ``x``."""
    enc_lower, heads, weights, lowers, upper, likelihood, sigma = layers
    frozen = weights is not None
    h = affine_forward(enc_lower, x)
    stats = [(affine_forward(mu, h, frozen=frozen), affine_forward(logvar, h, frozen=frozen))
             for mu, logvar in heads]

    def decode(z):
        return affine_forward(upper, _blend(weights, [affine_forward(layer, z, frozen=frozen)
                                                      for layer in lowers]))

    def log_likelihood(decoded):
        if likelihood == "bernoulli":
            return bernoulli_log_likelihood(x, decoded)
        return gaussian_log_likelihood(x, decoded, sigma)

    return stats, weights, decode, log_likelihood


def _layers_objective(layers: tuple, x, eps_list: list[np.ndarray]) -> Tensor:
    stats, weights, decode, log_likelihood = _tape_node(layers, x)
    kl = _blend(weights, [kl_diag_gaussian_to_standard(mu, lv) for mu, lv in stats])
    recons = [log_likelihood(decode(_blend(weights, [reparameterize(mu, lv, eps=eps)
                                                     for mu, lv in stats])))
              for eps in eps_list]
    return logmeanexp(recons) - kl


def tape_objective(graph, entry, x, eps_list: list[np.ndarray]) -> Tensor:
    """A node's bound over the draws ``eps_list``, recorded on the tape:
    the ELBO or K'-draw bound of a basic node, the mixture bound of a
    specific node."""
    return _layers_objective(_node_layers(graph, entry), x, eps_list)


def tape_bound_and_grads(node_pass, eps_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """What ``NodePass.bound_and_grads`` gives, from the tape reference over
    the pass's own layers: the bound's values and ``backprop`` of minus its
    mean, scattered into a vector laid out as the pass's parameters."""
    layers = (node_pass.enc_lower, node_pass.heads, node_pass.weights, node_pass.lowers,
              node_pass.upper, node_pass.likelihood, node_pass.sigma)
    objective = _layers_objective(layers, node_pass.x, eps_list)
    return objective.data, node_pass.params.gradient(backprop(-objective.mean()))


def tape_bound(graph, entry, x, eps_list: list[np.ndarray]) -> np.ndarray:
    """The values of ``tape_objective``, recording nothing."""
    with no_grad():
        return tape_objective(graph, entry, x, eps_list).data


def tape_reconstruction(graph, entry, x) -> np.ndarray:
    """A node's decode of its (blended) posterior mean on the tape."""
    with no_grad():
        stats, weights, decode, _ = _tape_node(_node_layers(graph, entry), x)
        return decode(_blend(weights, [mu for mu, _ in stats])).data
