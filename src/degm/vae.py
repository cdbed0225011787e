"""VAE components built from four single-layer sub-modules.

The encoder splits into a lower layer (input -> hidden) and an upper pair of
heads (hidden -> mu, hidden -> logvar); the decoder splits into a lower layer
(latent -> hidden) and an upper output layer. Keeping the four parts separate
is what lets the graph model recombine them across components.

A node's one forward pass is a ``NodePass`` over its rows: on the tape when
the rows are a ``Tensor`` (the two-layer model's training), on plain arrays
otherwise. Both make the same numpy calls in the same order, so their values
are the same bit for bit. A training pass on arrays also gives the
gradients, its backward written out VJP by VJP in the tape's order. Bounds
return one value per sample, shape [B]. The weighted K'-draw bound is
log-mean-exp of the per-draw reconstruction terms minus the closed-form KL,
so the single-draw case *is* the ELBO estimate on the same noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ContractError, DimensionError
from .nnkit import (
    DEFAULT_SIGMA,
    DenseLayer,
    DiagGaussian,
    Rng,
    TapeGaussian,
    Tensor,
    affine_forward,
    diag_gaussian_logpdf,
    kl_diag_gaussian_to_standard,
    likelihood_kernel,
    logmeanexp,
    logmeanexp_grads,
    logmeanexp_values,
    reparameterize,
    tape_likelihood,
)
from .nnkit.optim import ParamVector

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

    @classmethod
    def from_layers(cls, enc_lower: DenseLayer, enc_mu: DenseLayer, enc_logvar: DenseLayer,
                    dec_lower: DenseLayer, dec_upper: DenseLayer, likelihood: str,
                    sigma: float = DEFAULT_SIGMA, name: str = "composite") -> "VaeComponent":
        """Assemble a component from existing layers, sharing their tensors; it is not trained."""
        obj = cls.__new__(cls)
        obj.input_dim = enc_lower.in_dim
        obj.latent_dim = enc_mu.out_dim
        obj.hidden_dim = enc_lower.out_dim
        obj.likelihood = likelihood
        obj.sigma = float(sigma)
        obj.name = name
        obj.enc_lower, obj.enc_mu, obj.enc_logvar = enc_lower, enc_mu, enc_logvar
        obj.dec_lower, obj.dec_upper = dec_lower, dec_upper
        obj._params = obj.layer_params()
        return obj

    def layer_params(self) -> list[Tensor]:
        layers = (self.enc_lower, self.enc_mu, self.enc_logvar, self.dec_lower, self.dec_upper)
        return [t for layer in layers for t in layer.params()]

    def params(self) -> ParamVector:
        return self._params

    def node_pass(self, x, train: bool = False) -> "NodePass":
        """This component's forward pass over the rows ``x``, its encoder run
        here: on the tape for a Tensor ``x``, on plain arrays otherwise; with
        ``train``, one that gives gradients."""
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

    A Tensor ``x`` runs the pass on the tape, a plain array on arrays; the
    constructor picks the layer calls, the posterior, the likelihood and the
    log-mean-exp once, from that type. ``heads`` holds one (mu, logvar) layer
    pair per latent source, blended by ``weights`` (None for a plain
    component, whose one source is used as is). ``lowers`` are the lower
    decoders, blended the same way, and ``upper`` the output layer. The heads
    and lower decoders of a blended pass are borrowed from frozen basic
    nodes, so on the tape they enter as constants. ``bound`` is the ELBO (one
    draw) or the K'-draw bound of a basic node, and the mixture bound of a
    specific one; ``kl`` is its KL term and ``reconstruction`` the decode of
    the (blended) posterior mean. A training pass, given the ``params``
    vector of its own layers, runs on arrays and keeps the encoder output, so
    that ``bound_and_grads`` can give their gradients without the tape.
    """

    def __init__(self, x, enc_lower: DenseLayer, heads: list[tuple[DenseLayer, DenseLayer]],
                 weights: np.ndarray | None, lowers: list[DenseLayer], upper: DenseLayer,
                 likelihood: str, sigma: float, params: ParamVector | None = None):
        if isinstance(x, Tensor):
            if params is not None:
                raise ContractError("a training pass runs on arrays")
            self.x = x.data
            own, posterior = affine_forward, TapeGaussian
            borrowed = own if weights is None else partial(affine_forward, frozen=True)
            self._kernel_of, self._logmeanexp = tape_likelihood, logmeanexp
        else:
            self.x = x = np.ascontiguousarray(x, dtype=np.float64)
            own = borrowed = DenseLayer.apply
            posterior = DiagGaussian
            self._kernel_of, self._logmeanexp = likelihood_kernel, logmeanexp_values
        if self.x.ndim != 2 or self.x.shape[1] != enc_lower.in_dim:
            raise DimensionError(f"expected [batch, {enc_lower.in_dim}], got {self.x.shape}")
        self._own, self._borrowed = own, borrowed
        h = own(enc_lower, x)
        self.posteriors = [posterior(borrowed(mu, h), borrowed(logvar, h)) for mu, logvar in heads]
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

    def _blend(self, parts):
        if self.weights is None:
            return next(iter(parts))
        total = None
        for pi, part in zip(self.weights, parts):
            total = part * pi if total is None else total + part * pi
        return total

    def decode(self, z):
        return self._own(self.upper, self._blend(self._borrowed(layer, z) for layer in self.lowers))

    def recon_term(self, decoded):
        """log p(x | decoded) per sample: the reconstruction term of a bound."""
        if self._kernel is None:
            self._kernel = self._kernel_of(self.likelihood, self.x, self.sigma)
        return self._kernel(decoded)

    def kl(self):
        return self._blend(p.kl() for p in self.posteriors)

    def reconstruction(self):
        return self.decode(self._blend(p.mu for p in self.posteriors))

    def sample(self, eps):
        """The (blended) latent at the draw ``eps``, shared by every source."""
        return self._blend(p.sample(eps) for p in self.posteriors)

    def draws(self, rng: Rng, k: int = 1) -> list[np.ndarray]:
        """``k`` draws of the noise from ``rng``, one row per sample, taken as
        ``reparameterize`` takes them."""
        return [rng.normal(self.posteriors[0].mu.shape) for _ in range(k)]

    def bound(self, eps_list: list[np.ndarray]):
        """The per-sample bound over one draw per entry of ``eps_list``, each
        shared by every row (or one row per sample) and by every source."""
        recons = [self.recon_term(self.decode(self.sample(np.asarray(eps, dtype=np.float64))))
                  for eps in eps_list]
        return self._logmeanexp(recons) - self.kl()

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
        kls = [p.kl() for p in self.posteriors]
        values = logmeanexp_values(recons) - self._blend(kls)

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
        for p, heads, kl, g_sample, pi in zip(self.posteriors, self.heads, kls, g_samples, pis):
            for layer, g in zip(heads, p.grads(g_sample, eps_list, kl, scaled(g_kl, pi))):
                if own:
                    layer.accumulate_grads(grads, self._h, g)
                g_part = g @ layer.weight.data
                g_h = g_part if g_h is None else g_h + g_part
        self.enc_lower.accumulate_grads(grads, self.x,
                                        self.enc_lower.activation_grad(self._h, g_h))
        return values, flat


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

    def hier_elbo(self, x, rng: Rng | None = None, eps: np.ndarray | None = None,
                  eps2: np.ndarray | None = None) -> Tensor:
        """Reconstruction minus both layer penalties (second layer closed-form,
        first layer a density ratio at the sampled point), on the tape."""
        first = self.base.node_pass(Tensor(x))
        if eps is None:
            eps = first.draws(rng)[0]
        if not self.two_layers:
            return first.bound([eps])
        q1 = first.posteriors[0]
        z1 = first.sample(eps)
        h2 = self.enc2_lower(z1)
        mu2, lv2 = self.enc2_mu(h2), self.enc2_logvar(h2)
        z2 = reparameterize(mu2, lv2, rng=rng, eps=eps2)
        hp = self.prior_lower(z2)
        mup, lvp = self.prior_mu(hp), self.prior_logvar(hp)
        recon = first.recon_term(first.decode(z1))
        kl2 = kl_diag_gaussian_to_standard(mu2, lv2)
        ratio1 = diag_gaussian_logpdf(z1, q1.mu, q1.logvar) - diag_gaussian_logpdf(z1, mup, lvp)
        return recon - ratio1 - kl2

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
