"""VAE components built from four single-layer sub-modules.

The encoder splits into a lower layer (input -> hidden) and an upper pair of
heads (hidden -> mu, hidden -> logvar); the decoder splits into a lower layer
(latent -> hidden) and an upper output layer. Keeping the four parts separate
is what lets the graph model recombine them across components.

A node's one forward pass is a ``NodePass`` over its rows, on plain arrays.
A training pass also gives the gradients, its backward written out VJP by
VJP in the order of the tape reference (``tests/tape.py``), so that they
equal the tape's bit for bit; ``HierVae`` writes out its two-layer bound's
backward the same way. Bounds return one value per sample, shape [B]. The
weighted K'-draw bound is log-mean-exp of the per-draw reconstruction terms
minus the closed-form KL, so the single-draw case *is* the ELBO estimate on
the same noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nnkit import (
    DEFAULT_SIGMA,
    DenseLayer,
    DiagGaussian,
    Param,
    ParamVector,
    Rng,
    diag_gaussian_logpdf,
    diag_gaussian_logpdf_grads,
    likelihood_kernel,
    logmeanexp_grads,
    logmeanexp_values,
)

DEFAULT_HIDDEN = 200
LIKELIHOODS = ("bernoulli", "gaussian")


class VaeComponent:
    def __init__(self, input_dim: int, latent_dim: int, hidden_dim: int = DEFAULT_HIDDEN,
                 likelihood: str = "bernoulli", sigma: float = DEFAULT_SIGMA,
                 rng: Rng | None = None, name: str = "vae"):
        if latent_dim <= 0:
            raise ContractError("latent_dim must be positive")
        if likelihood not in LIKELIHOODS:
            raise ContractError(f"unknown likelihood {likelihood!r}")
        self.input_dim = int(input_dim)
        self.latent_dim = int(latent_dim)
        self.hidden_dim = int(hidden_dim)
        self.likelihood = likelihood
        self.sigma = float(sigma)
        self.name = name
        out_act = "sigmoid" if likelihood == "bernoulli" else "identity"
        self.enc_lower = DenseLayer(input_dim, hidden_dim, "leaky-relu", rng, f"{name}.enc_lower")
        self.enc_mu = DenseLayer(hidden_dim, latent_dim, "identity", rng, f"{name}.enc_mu")
        self.enc_logvar = DenseLayer(hidden_dim, latent_dim, "identity", rng, f"{name}.enc_logvar")
        self.dec_lower = DenseLayer(latent_dim, hidden_dim, "leaky-relu", rng, f"{name}.dec_lower")
        self.dec_upper = DenseLayer(hidden_dim, input_dim, out_act, rng, f"{name}.dec_upper")
        self._params = ParamVector(self.layer_params())

    def layer_params(self) -> list[Param]:
        layers = (self.enc_lower, self.enc_mu, self.enc_logvar, self.dec_lower, self.dec_upper)
        return [t for layer in layers for t in layer.params()]

    def params(self) -> ParamVector:
        return self._params

    def node_pass(self, x, train: bool = False) -> "NodePass":
        """This component's forward pass over the rows ``x``, its encoder run
        here; with ``train``, one that gives gradients."""
        return NodePass(x, self.enc_lower, [(self.enc_mu, self.enc_logvar)], None,
                        [self.dec_lower], self.dec_upper, self.likelihood, self.sigma,
                        self._params if train else None)

    def generate(self, n: int, rng: Rng) -> np.ndarray:
        """Ancestral samples; Bernoulli outputs are pixel-sampled to {0,1}."""
        if n == 0:
            return np.zeros((0, self.input_dim))
        return self.emit(rng.normal((n, self.latent_dim)), rng)

    def emit(self, z: np.ndarray, rng: Rng) -> np.ndarray:
        """The decoder output at the latents ``z``, pixel-sampled to {0,1}
        from ``rng`` under a Bernoulli likelihood."""
        out = self.dec_upper.apply(self.dec_lower.apply(z))
        if self.likelihood == "bernoulli":
            return rng.bernoulli(out)
        return out

    def reconstruct(self, x) -> np.ndarray:
        """Deterministic encode-decode through the posterior mean."""
        return self.node_pass(x).reconstruction()


class NodePass:
    """One node's forward pass over the rows ``x``, its encoder run here.

    ``heads`` holds one (mu, logvar) layer pair per latent source, blended by
    ``weights`` (None for a plain component, whose one source is used as is).
    ``lowers`` are the lower decoders, blended the same way, and ``upper``
    the output layer. The heads and lower decoders of a blended pass are
    borrowed from frozen basic nodes. ``bound`` is the ELBO (one draw) or the
    K'-draw bound of a basic node, and the mixture bound of a specific one;
    ``kl`` is its KL term, computed once per pass since no draw changes it,
    and ``reconstruction`` the decode of the (blended) posterior mean. A
    training pass, given the ``params`` vector of its own layers, keeps the
    encoder output, so that ``bound_and_grads`` can give their gradients.
    """

    def __init__(self, x, enc_lower: DenseLayer, heads: list[tuple[DenseLayer, DenseLayer]],
                 weights: np.ndarray | None, lowers: list[DenseLayer], upper: DenseLayer,
                 likelihood: str, sigma: float, params: ParamVector | None = None):
        self.x = x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != enc_lower.in_dim:
            raise DimensionError(f"expected [batch, {enc_lower.in_dim}], got {x.shape}")
        h = enc_lower.apply(x)
        self.posteriors = [DiagGaussian(mu.apply(h), logvar.apply(h)) for mu, logvar in heads]
        self._h = h if params is not None else None
        self.params = params
        self.enc_lower = enc_lower
        self.heads = heads
        self.weights = weights
        self.lowers = lowers
        self.upper = upper
        self.likelihood = likelihood
        self.sigma = sigma
        self._kernel = None  # made on first use: reconstructions check no x
        self._kls = self._kl = None

    def _blend(self, parts):
        if self.weights is None:
            return next(iter(parts))
        total = None
        for pi, part in zip(self.weights, parts):
            total = part * pi if total is None else total + part * pi
        return total

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.upper.apply(self._blend(layer.apply(z) for layer in self.lowers))

    def recon_term(self, decoded: np.ndarray) -> np.ndarray:
        """log p(x | decoded) per sample: the reconstruction term of a bound."""
        if self._kernel is None:
            self._kernel = likelihood_kernel(self.likelihood, self.x, self.sigma)
        return self._kernel(decoded)

    def kl(self) -> np.ndarray:
        if self._kl is None:
            self._kls = [p.kl() for p in self.posteriors]
            self._kl = self._blend(self._kls)
        return self._kl

    def reconstruction(self) -> np.ndarray:
        return self.decode(self._blend(p.mu for p in self.posteriors))

    def sample(self, eps: np.ndarray) -> np.ndarray:
        """The (blended) latent at the draw ``eps``, shared by every source."""
        return self._blend(p.sample(eps) for p in self.posteriors)

    def draws(self, rng: Rng, k: int = 1) -> list[np.ndarray]:
        """``k`` draws of the noise from ``rng``, one row per sample, taken as
        ``reparameterize`` takes them."""
        return [rng.normal(self.posteriors[0].mu.shape) for _ in range(k)]

    def bound(self, eps_list: list[np.ndarray]) -> np.ndarray:
        """The per-sample bound over one draw per entry of ``eps_list``, each
        shared by every row (or one row per sample) and by every source."""
        recons = [self.recon_term(self.decode(self.sample(np.asarray(eps, dtype=np.float64))))
                  for eps in eps_list]
        return logmeanexp_values(recons) - self.kl()

    def bound_and_grads(self, eps_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """``bound(eps_list)`` and the gradient of ``-bound.mean()``, of a
        training pass: one vector laid out as ``params``, each layer's part
        written into its views by name. The backward is written out: each
        step is the tape's VJP, and where gradients meet they are summed in the
        tape's order (draw by draw, then the KL; each source's mu then logvar
        head; each lower decoder), so every view equals ``backprop``'s array
        bit for bit. The borrowed heads and lower decoders of a blended pass
        get none.
        """
        if self._h is None:
            raise ContractError("gradients need a pass made with train=True")
        eps_list = [np.asarray(eps, dtype=np.float64) for eps in eps_list]
        draws = []  # per draw: z, the lower decoder outputs, their blend, the output
        for eps in eps_list:
            z = self.sample(eps)
            lows = [layer.apply(z) for layer in self.lowers]
            hidden = self._blend(lows)
            draws.append((z, lows, hidden, self.upper.apply(hidden)))
        recons = [self.recon_term(out) for *_, out in draws]
        values = logmeanexp_values(recons) - self.kl()

        n = values.shape[0]
        g_values = np.full(n, -(1.0 / float(n)))  # d(-values.mean()) / d values
        own = self.weights is None  # else the heads and lower decoders are borrowed
        pis = [None] if own else self.weights

        def scaled(g, pi):
            return g if pi is None else g * pi

        flat = np.empty_like(self.params.flat)
        grads = self.params.views(flat)  # every view is written below
        g_samples = [[] for _ in self.posteriors]
        for d, ((z, lows, hidden, out), g_recon) in enumerate(
                zip(draws, logmeanexp_grads(recons, g_values))):
            g_out = self.upper.activation_grad(out, self._kernel.grad(out, g_recon))
            self.upper.accumulate_grads(grads, hidden, g_out, d == 0)
            g_hidden = g_out @ self.upper.weight.data
            g_z = None
            for layer, low, pi in zip(self.lowers, lows, pis):
                g_low = layer.activation_grad(low, scaled(g_hidden, pi))
                if own:
                    layer.accumulate_grads(grads, z, g_low, d == 0)
                g_part = g_low @ layer.weight.data
                g_z = g_part if g_z is None else g_z + g_part
            for g_sample, pi in zip(g_samples, pis):
                g_sample.append(scaled(g_z, pi))

        g_h = None
        g_kl = -g_values
        for p, heads, kl, g_sample, pi in zip(self.posteriors, self.heads, self._kls, g_samples,
                                              pis):
            for layer, g in zip(heads, p.grads(g_sample, eps_list, kl, scaled(g_kl, pi))):
                if own:
                    layer.accumulate_grads(grads, self._h, g)
                g_part = g @ layer.weight.data
                g_h = g_part if g_h is None else g_h + g_part
        self.enc_lower.accumulate_grads(grads, self.x,
                                        self.enc_lower.activation_grad(self._h, g_h))
        return values, flat


def _stage_grads(grads: dict[str, np.ndarray], lower: DenseLayer,
                 heads: tuple[DenseLayer, DenseLayer], x: np.ndarray, h: np.ndarray,
                 g_heads) -> np.ndarray:
    """Write the gradients of a stage, a lower layer and its two identity heads
    (``h = lower(x)``), from the gradients ``g_heads`` at the heads' outputs,
    into ``grads`` by name; return the gradient at the lower layer's affine
    output."""
    g_h = None
    for layer, g in zip(heads, g_heads):
        layer.accumulate_grads(grads, h, g)
        g_part = g @ layer.weight.data
        g_h = g_part if g_h is None else g_h + g_part
    g_a = lower.activation_grad(h, g_h)
    lower.accumulate_grads(grads, x, g_a)
    return g_a


@dataclass
class BasicNode:
    """A full VAE component frozen after its task, plus its reference bound."""

    vae: VaeComponent
    task_id: int
    reference_elbo: float | None = None
    kind = "basic"

    def params(self) -> ParamVector:
        return self.vae.params()


class HierVae:
    """Two stochastic layers: q(z1|x) q(z2|z1) against prior p(z2) p(z1|z2).

    Exists as the deeper single-model baseline; with ``two_layers=False`` it
    degenerates exactly to the plain component it wraps.
    """

    def __init__(self, input_dim: int, latent_dims: tuple[int, int] = (100, 50),
                 hidden_dim: int = DEFAULT_HIDDEN, likelihood: str = "bernoulli",
                 sigma: float = DEFAULT_SIGMA, two_layers: bool = True,
                 rng: Rng | None = None, name: str = "hier"):
        l1, l2 = latent_dims
        self.base = VaeComponent(input_dim, l1, hidden_dim, likelihood, sigma, rng, name)
        base = self.base.params()
        self.latent_dims = (int(l1), int(l2))
        self.two_layers = bool(two_layers)
        self.name = name
        self.enc2_lower = DenseLayer(l1, hidden_dim, "leaky-relu", rng, f"{name}.enc2_lower")
        self.enc2_mu = DenseLayer(hidden_dim, l2, "identity", rng, f"{name}.enc2_mu")
        self.enc2_logvar = DenseLayer(hidden_dim, l2, "identity", rng, f"{name}.enc2_logvar")
        self.prior_lower = DenseLayer(l2, hidden_dim, "leaky-relu", rng, f"{name}.prior_lower")
        self.prior_mu = DenseLayer(hidden_dim, l1, "identity", rng, f"{name}.prior_mu")
        self.prior_logvar = DenseLayer(hidden_dim, l1, "identity", rng, f"{name}.prior_logvar")
        extra = (self.enc2_lower, self.enc2_mu, self.enc2_logvar,
                 self.prior_lower, self.prior_mu, self.prior_logvar)
        self._params = ParamVector(base + [t for layer in extra for t in layer.params()])
        self.base._params = ParamVector(base, self._params.flat[:base.flat.size])  # its prefix

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)  # unpickled, the base's vector is a copy: bind its prefix
        base = self.base._params
        self.base._params = ParamVector(base, self._params.flat[:base.flat.size])

    @property
    def input_dim(self) -> int:
        return self.base.input_dim

    @property
    def likelihood(self) -> str:
        return self.base.likelihood

    def params(self) -> ParamVector:
        return self._params

    def draws(self, rng: Rng, n: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The noise of one training step over ``n`` rows, drawn from ``rng``:
        ``eps`` for z1, then ``eps2`` for z2 (None with one layer)."""
        eps = rng.normal((n, self.latent_dims[0]))
        return eps, rng.normal((n, self.latent_dims[1])) if self.two_layers else None

    def bound(self, x, eps: np.ndarray, eps2: np.ndarray | None = None) -> np.ndarray:
        """The per-sample bound at the draws ``eps`` and ``eps2`` (zero when
        None): reconstruction minus both layer penalties, the second layer's
        closed-form, the first layer's a density ratio at the sampled point;
        with one layer, the base's ELBO."""
        node_pass = self.base.node_pass(x)
        if not self.two_layers:
            return node_pass.bound([eps])
        return self._forward(node_pass, eps, eps2)[0]

    def _forward(self, node_pass: NodePass, eps: np.ndarray, eps2: np.ndarray | None):
        """The two-layer bound over the base pass's rows, and what its backward reads."""
        if eps2 is None:
            eps2 = np.zeros((1, self.latent_dims[1]))
        q1 = node_pass.posteriors[0]
        z1 = q1.sample(eps)
        h2 = self.enc2_lower.apply(z1)
        q2 = DiagGaussian(self.enc2_mu.apply(h2), self.enc2_logvar.apply(h2))
        z2 = q2.sample(eps2)
        hp = self.prior_lower.apply(z2)
        prior = (self.prior_mu.apply(hp), self.prior_logvar.apply(hp))
        low = self.base.dec_lower.apply(z1)
        out = self.base.dec_upper.apply(low)
        recon = node_pass.recon_term(out)
        kl2 = q2.kl()
        ratio1 = (diag_gaussian_logpdf(z1, q1.mu, q1.logvar)
                  - diag_gaussian_logpdf(z1, *prior))
        return recon - ratio1 - kl2, (z1, h2, q2, eps2, z2, hp, prior, low, out, kl2)

    def bound_and_grads(self, x, eps: np.ndarray,
                        eps2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """``bound(x, eps, eps2)`` and the gradient of ``-bound.mean()``, as
        one vector laid out as ``params()``. With one layer it is the base
        pass's, the extra layers' part zero. With two, the backward is written
        out as ``NodePass.bound_and_grads``'s is: each step is the tape's VJP,
        and where gradients meet they are summed in the tape's order, so every
        gradient equals the tape's bit for bit."""
        node_pass = self.base.node_pass(x, train=True)
        if not self.two_layers:
            values, base_flat = node_pass.bound_and_grads([eps])
            flat = np.zeros_like(self._params.flat)
            flat[:base_flat.size] = base_flat
            return values, flat
        values, (z1, h2, q2, eps2, z2, hp, prior, low, out, kl2) = self._forward(
            node_pass, eps, eps2)
        base, q1 = self.base, node_pass.posteriors[0]
        flat = np.empty_like(self._params.flat)
        grads = self._params.views(flat)  # every view is written below
        n = values.shape[0]
        g_values = np.full(n, -(1.0 / float(n)))  # d(-values.mean()) / d values
        # values = recon - (log q(z1) - log p(z1)) - kl2
        g_minus = -g_values

        g_out = base.dec_upper.activation_grad(out, node_pass._kernel.grad(out, g_values))
        base.dec_upper.accumulate_grads(grads, low, g_out)
        g_low = base.dec_lower.activation_grad(low, g_out @ base.dec_upper.weight.data)
        base.dec_lower.accumulate_grads(grads, z1, g_low)
        g_z1_dec = g_low @ base.dec_lower.weight.data

        g_z1_prior, *g_prior = diag_gaussian_logpdf_grads(z1, *prior, g_values)
        g_z2 = _stage_grads(grads, self.prior_lower, (self.prior_mu, self.prior_logvar), z2, hp,
                            g_prior) @ self.prior_lower.weight.data
        g_q2 = q2.grads([g_z2], [eps2], kl2, g_minus)
        g_z1_enc2 = _stage_grads(grads, self.enc2_lower, (self.enc2_mu, self.enc2_logvar), z1,
                                 h2, g_q2) @ self.enc2_lower.weight.data
        g_z1_q, g_mu1, g_lv1 = diag_gaussian_logpdf_grads(z1, q1.mu, q1.logvar, g_minus)

        # the four gradients at z1, summed in the tape's order
        g_z1 = g_z1_dec + g_z1_q + g_z1_prior + g_z1_enc2
        g_mu, g_lv = q1.sample_grads([g_z1], [eps])
        _stage_grads(grads, base.enc_lower, (base.enc_mu, base.enc_logvar), node_pass.x,
                     node_pass._h, (g_mu + g_mu1, g_lv + g_lv1))
        return values, flat

    def generate(self, n: int, rng: Rng) -> np.ndarray:
        if not self.two_layers:
            return self.base.generate(n, rng)
        if n == 0:
            return np.zeros((0, self.input_dim))
        hp = self.prior_lower.apply(rng.normal((n, self.latent_dims[1])))
        prior = DiagGaussian(self.prior_mu.apply(hp), self.prior_logvar.apply(hp))
        return self.base.emit(prior.sample(rng.normal(prior.mu.shape)), rng)

    def reconstruct(self, x) -> np.ndarray:
        return self.base.reconstruct(x)


def copy_model(model):
    """An independent model of the same shape and name with bit-identical
    parameters; works for VaeComponent and HierVae."""
    if isinstance(model, HierVae):
        dup = HierVae(model.input_dim, model.latent_dims, model.base.hidden_dim,
                      model.base.likelihood, model.base.sigma, model.two_layers,
                      rng=None, name=model.name)
    else:
        dup = VaeComponent(model.input_dim, model.latent_dim, model.hidden_dim,
                           model.likelihood, model.sigma, rng=None, name=model.name)
    dup.params().flat[...] = model.params().flat
    return dup
