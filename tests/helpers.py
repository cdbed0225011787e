"""Shared test utilities: the central-finite-difference gradient oracle,
views of models and graphs that only tests need, a tape reference for node
passes and for the two-layer bound, written from the tape primitives of
``tape`` alone, that ``NodePass`` and ``HierPass`` must equal bit for bit, a
per-tensor Adam that the fused ``adam_step`` must equal bit for bit, and
integer draws from an ``Rng``, which no command makes."""

from __future__ import annotations

from collections import Counter

import numpy as np

from degm.errors import ContractError
from degm.nnkit import AdamState, Rng, adam_step
from degm.vae import HierVae, VaeComponent

from tape import (
    Tensor,
    affine_forward,
    backprop,
    bernoulli_log_likelihood,
    diag_gaussian_logpdf,
    gaussian_log_likelihood,
    kl_diag_gaussian_to_standard,
    logmeanexp,
    no_grad,
    reparameterize,
)


def finite_difference_grads(build_loss, params, h: float = 1e-5) -> dict[str, np.ndarray]:
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


def analytic_grads(build_loss, params) -> dict[str, np.ndarray]:
    loss = build_loss()
    grads = backprop(loss)
    return {p.name: grads.get(p.name, np.zeros_like(p.data)) for p in params}


def integers(rng: Rng, low: int, high: int, size) -> np.ndarray:
    """Integers in [low, high) drawn from ``rng``'s own stream, so that they
    interleave with its other draws."""
    return rng._gen.integers(low, high, size=size)


def train_elbo_steps(component, data: np.ndarray, steps: int, lr: float, seed: int,
                     batch: int = 32) -> list[float]:
    """Plain Adam/ELBO loop for toy fixtures; returns the per-step batch ELBO means."""
    rng = Rng(seed)
    state = AdamState(lr=lr)
    history = []
    n = data.shape[0]
    for step in range(steps):
        idx = integers(rng, 0, n, min(batch, n))
        node_pass = component.node_pass(data[idx], train=True)
        values, grads = node_pass.bound_and_grads(node_pass.draws(rng))
        history.append(float(values.mean()))
        adam_step(state, component.params(), grads)
    return history


def gradient_vector(params, grads: dict[str, np.ndarray]) -> np.ndarray:
    """A new zero gradient vector laid out as the ``ParamVector`` ``params``,
    ``grads`` copied in by name."""
    flat = np.zeros_like(params.flat)
    for p, view in zip(params, params.slices(flat)):
        if p.name in grads:
            view[...] = grads[p.name]
    return flat


def reference_adam_step(state: dict, params: list, grads: dict[str, np.ndarray],
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


def counted_eval_passes(monkeypatch) -> Counter:
    """Count every evaluation pass of a ``VaeComponent`` or ``HierVae`` from
    here on (a training pass is not counted), keyed by the bytes of its rows."""
    counts = Counter()

    def counting(node_pass):
        def counted(self, x, train=False):
            if not train:
                counts[rows_key(x)] += 1
            return node_pass(self, x, train)
        return counted

    for cls in (VaeComponent, HierVae):  # neither calls the other's
        monkeypatch.setattr(cls, "node_pass", counting(cls.__dict__["node_pass"]))
    return counts


def rows_key(x) -> bytes:
    return np.ascontiguousarray(x, dtype=np.float64).tobytes()


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


def composite_component(graph, s, basic_index: int) -> VaeComponent:
    """The plain component a one-hot specific node ``s`` degenerates to,
    assembled from the node's and the basic's layers, sharing their arrays.
    It is not trained: its parameters are a list, not a vector."""
    b = graph.basics[basic_index].vae
    c = VaeComponent.__new__(VaeComponent)
    c.input_dim, c.latent_dim, c.hidden_dim = b.input_dim, b.latent_dim, s.enc_lower_new.out_dim
    c.likelihood, c.name = graph.likelihood, f"{s.name}+b{basic_index}"
    c.enc_lower, c.enc_mu, c.enc_logvar = s.enc_lower_new, b.enc_mu, b.enc_logvar
    c.dec_lower, c.dec_upper = b.dec_lower, s.dec_upper_new
    c._params = c.layer_params()
    return c


def _blend(weights, parts):
    if weights is None:
        return parts[0]
    total = None
    for pi, part in zip(weights, parts):
        total = part * pi if total is None else total + part * pi
    return total


def component_layers(vae) -> tuple:
    """A plain component's layers as a ``NodePass`` takes them: its lower
    encoder, its (mu, logvar) head pair, no weights, its lower decoder, its
    output layer and the likelihood."""
    return (vae.enc_lower, [(vae.enc_mu, vae.enc_logvar)], None, [vae.dec_lower],
            vae.dec_upper, vae.likelihood)


def _node_layers(graph, entry) -> tuple:
    """A node's layers as a ``NodePass`` takes them: a basic node's
    component's, or a specific node's lower encoder, one (mu, logvar) head
    pair per basic node it blends, the weights that blend them, the lower
    decoders, the output layer and the likelihood."""
    if entry.kind == "basic":
        return component_layers(entry.vae)
    basics = [b.vae for b in graph.basics[:entry.weights.size]]
    return (entry.enc_lower_new, [(v.enc_mu, v.enc_logvar) for v in basics], entry.weights,
            [v.dec_lower for v in basics], entry.dec_upper_new, graph.likelihood)


def pass_layers(node_pass) -> tuple:
    """The layers a ``NodePass`` runs, as ``_node_layers`` gives them."""
    return (node_pass.enc_lower, node_pass.heads, node_pass.weights, node_pass.lowers,
            node_pass.upper, node_pass.likelihood)


def _tape_node(layers: tuple, x):
    """A node's encoder on the tape: its (mu, logvar) per latent source, the
    weights that blend them (None for a plain component, which trains its
    heads and lower decoder; a blend borrows them, frozen), its decode and
    its likelihood of ``x``."""
    enc_lower, heads, weights, lowers, upper, likelihood = layers
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
        return gaussian_log_likelihood(x, decoded)

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


def tape_node(node_pass):
    """The encoder of a pass's layers on the tape over the pass's rows, as
    ``_tape_node`` gives it: the (mu, logvar) per latent source, the weights,
    the decode and the likelihood."""
    return _tape_node(pass_layers(node_pass), node_pass.x)


def tape_pass_objective(node_pass, eps_list: list[np.ndarray]) -> Tensor:
    """The bound of a pass's layers over its rows and the draws ``eps_list``,
    recorded on the tape."""
    return _layers_objective(pass_layers(node_pass), node_pass.x, eps_list)


def tape_bound_and_grads(node_pass, eps_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """What ``NodePass.bound_and_grads`` gives, from the tape reference over
    the pass's own layers: the bound's values and ``backprop`` of minus its
    mean, scattered into a vector laid out as the pass's parameters."""
    objective = tape_pass_objective(node_pass, eps_list)
    return objective.data, gradient_vector(node_pass.params, backprop(-objective.mean()))


def specific_encode(graph, s, x, eps):
    """Blend the per-basic posteriors of specific node ``s`` on the tape:
    z = sum_j pi_j z_j. Gradients reach only the node's new lower encoder;
    basic sub-modules stay frozen. Returns z and the per-basic (mu, logvar)."""
    stats, weights, _, _ = _tape_node(_node_layers(graph, s), x)
    return _blend(weights, [reparameterize(mu, lv, eps=eps) for mu, lv in stats]), stats


def tape_hier_objective(model, x, eps: np.ndarray, eps2: np.ndarray | None = None) -> Tensor:
    """``HierVae``'s bound at the draws ``eps`` and ``eps2`` (zero when None),
    recorded on the tape: reconstruction minus both layer penalties, the
    second layer's closed-form, the first layer's a density ratio at the
    sampled point."""
    layers = component_layers(model)
    if eps2 is None:
        eps2 = np.zeros((1, model.latent_dims[1]))
    [(mu1, lv1)], _, decode, log_likelihood = _tape_node(layers, x)
    z1 = reparameterize(mu1, lv1, eps=eps)
    h2 = affine_forward(model.enc2_lower, z1)
    mu2, lv2 = affine_forward(model.enc2_mu, h2), affine_forward(model.enc2_logvar, h2)
    z2 = reparameterize(mu2, lv2, eps=eps2)
    hp = affine_forward(model.prior_lower, z2)
    mup, lvp = affine_forward(model.prior_mu, hp), affine_forward(model.prior_logvar, hp)
    recon = log_likelihood(decode(z1))
    kl2 = kl_diag_gaussian_to_standard(mu2, lv2)
    ratio1 = diag_gaussian_logpdf(z1, mu1, lv1) - diag_gaussian_logpdf(z1, mup, lvp)
    return recon - ratio1 - kl2


def tape_hier_bound_and_grads(hier_pass, draws: list) -> tuple[np.ndarray, np.ndarray]:
    """What ``HierPass.bound_and_grads`` gives at its one draw, ``(eps, eps2)``
    or a bare ``eps``, from the tape reference: the bound's values and
    ``backprop`` of minus its mean, as one vector laid out as the model's
    parameters."""
    [draw] = draws
    eps, eps2 = draw if isinstance(draw, tuple) else (draw, None)
    objective = tape_hier_objective(hier_pass.model, hier_pass.x, eps, eps2)
    return objective.data, gradient_vector(hier_pass.params, backprop(-objective.mean()))


def tape_bound(graph, entry, x, eps_list: list[np.ndarray]) -> np.ndarray:
    """The values of ``tape_objective``, recording nothing."""
    with no_grad():
        return tape_objective(graph, entry, x, eps_list).data


def tape_reconstruction(graph, entry, x) -> np.ndarray:
    """A node's decode of its (blended) posterior mean on the tape."""
    with no_grad():
        stats, weights, decode, _ = _tape_node(_node_layers(graph, entry), x)
        return decode(_blend(weights, [mu for mu, _ in stats])).data
