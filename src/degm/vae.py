"""VAE components built from four single-layer sub-modules.

The encoder splits into a lower layer (input -> hidden) and an upper pair of
heads (hidden -> mu, hidden -> logvar); the decoder splits into a lower layer
(latent -> hidden) and an upper output layer. Keeping the four parts separate
is what lets the graph model recombine them across components.

Objectives return one value per sample, shape [B]. The weighted K'-draw bound
is log-mean-exp of the per-draw reconstruction terms minus the closed-form KL,
so the single-draw case *is* the ELBO estimate on the same noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nnkit import (
    DEFAULT_SIGMA,
    DenseLayer,
    Rng,
    Tensor,
    bernoulli_log_likelihood,
    diag_gaussian_logpdf,
    gaussian_log_likelihood,
    kl_diag_gaussian_to_standard,
    logmeanexp,
    no_grad,
    reparameterize,
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

    @classmethod
    def from_layers(cls, enc_lower: DenseLayer, enc_mu: DenseLayer, enc_logvar: DenseLayer,
                    dec_lower: DenseLayer, dec_upper: DenseLayer, likelihood: str,
                    sigma: float = DEFAULT_SIGMA, name: str = "composite") -> "VaeComponent":
        """Assemble a component from existing layers; the layer tensors are shared."""
        obj = cls.__new__(cls)
        obj.input_dim = enc_lower.in_dim
        obj.latent_dim = enc_mu.out_dim
        obj.hidden_dim = enc_lower.out_dim
        obj.likelihood = likelihood
        obj.sigma = float(sigma)
        obj.name = name
        obj.enc_lower, obj.enc_mu, obj.enc_logvar = enc_lower, enc_mu, enc_logvar
        obj.dec_lower, obj.dec_upper = dec_lower, dec_upper
        return obj

    def params(self) -> list[Tensor]:
        layers = (self.enc_lower, self.enc_mu, self.enc_logvar, self.dec_lower, self.dec_upper)
        return [t for layer in layers for t in layer.params()]

    def encode(self, x) -> tuple[Tensor, Tensor]:
        x = x if isinstance(x, Tensor) else Tensor(x)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(f"expected [batch, {self.input_dim}], got {x.shape}")
        h = self.enc_lower(x)
        return self.enc_mu(h), self.enc_logvar(h)

    def decode(self, z) -> Tensor:
        z = z if isinstance(z, Tensor) else Tensor(z)
        if z.ndim != 2 or z.shape[1] != self.latent_dim:
            raise DimensionError(f"expected [batch, {self.latent_dim}], got {z.shape}")
        return self.dec_upper(self.dec_lower(z))

    def log_likelihood(self, x, decoded: Tensor) -> Tensor:
        if self.likelihood == "bernoulli":
            return bernoulli_log_likelihood(x, decoded)
        return gaussian_log_likelihood(x, decoded, self.sigma)

    def elbo(self, x, rng: Rng | None = None, eps: np.ndarray | None = None,
             encoded: tuple[Tensor, Tensor] | None = None) -> Tensor:
        """Single-draw estimate: reconstruction term minus closed-form KL.
        ``encoded``, when given, is ``encode(x)``, computed once by the caller."""
        mu, logvar = self.encode(x) if encoded is None else encoded
        z = reparameterize(mu, logvar, rng=rng, eps=eps)
        recon = self.log_likelihood(x, self.decode(z))
        return recon - kl_diag_gaussian_to_standard(mu, logvar)

    def iwelbo(self, x, kprime: int, rng: Rng | None = None,
               eps_list: list[np.ndarray] | None = None) -> Tensor:
        """K'-draw weighted bound; K'=1 coincides with elbo on the same draw.

        Expectation is non-decreasing in K' (log-mean-exp of i.i.d. draws), so
        larger K' gives the tighter likelihood estimate.
        """
        if kprime < 1:
            raise ContractError(f"kprime must be >= 1, got {kprime}")
        mu, logvar = self.encode(x)
        kl = kl_diag_gaussian_to_standard(mu, logvar)
        recons = []
        for i in range(kprime):
            eps = eps_list[i] if eps_list is not None else None
            z = reparameterize(mu, logvar, rng=rng, eps=eps)
            recons.append(self.log_likelihood(x, self.decode(z)))
        return logmeanexp(recons) - kl

    def generate(self, n: int, rng: Rng) -> np.ndarray:
        """Ancestral samples; Bernoulli outputs are pixel-sampled to {0,1}."""
        if n == 0:
            return np.zeros((0, self.input_dim))
        with no_grad():
            z = rng.normal((n, self.latent_dim))
            out = self.decode(z).data
        if self.likelihood == "bernoulli":
            return rng.bernoulli(out)
        return out

    def reconstruct(self, x) -> np.ndarray:
        """Deterministic encode-decode through the posterior mean."""
        with no_grad():
            mu, _ = self.encode(x)
            return self.decode(mu).data

    def evaluate(self, x, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``elbo`` on the draw ``eps`` and ``reconstruct``, bit for bit, from
        one encoder pass."""
        with no_grad():
            encoded = self.encode(x)
            return self.elbo(x, eps=eps, encoded=encoded).data, self.decode(encoded[0]).data


@dataclass
class BasicNode:
    """A full VAE component frozen after its task, plus its reference bound."""

    vae: VaeComponent
    task_id: int
    reference_elbo: float | None = None
    kind = "basic"

    def params(self) -> list[Tensor]:
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
        self.latent_dims = (int(l1), int(l2))
        self.two_layers = bool(two_layers)
        self.name = name
        self.enc2_lower = DenseLayer(l1, hidden_dim, "leaky-relu", rng, f"{name}.enc2_lower")
        self.enc2_mu = DenseLayer(hidden_dim, l2, "identity", rng, f"{name}.enc2_mu")
        self.enc2_logvar = DenseLayer(hidden_dim, l2, "identity", rng, f"{name}.enc2_logvar")
        self.prior_lower = DenseLayer(l2, hidden_dim, "leaky-relu", rng, f"{name}.prior_lower")
        self.prior_mu = DenseLayer(hidden_dim, l1, "identity", rng, f"{name}.prior_mu")
        self.prior_logvar = DenseLayer(hidden_dim, l1, "identity", rng, f"{name}.prior_logvar")

    @property
    def input_dim(self) -> int:
        return self.base.input_dim

    @property
    def likelihood(self) -> str:
        return self.base.likelihood

    def params(self) -> list[Tensor]:
        extra = (self.enc2_lower, self.enc2_mu, self.enc2_logvar,
                 self.prior_lower, self.prior_mu, self.prior_logvar)
        return self.base.params() + [t for layer in extra for t in layer.params()]

    def hier_elbo(self, x, rng: Rng | None = None, eps: np.ndarray | None = None,
                  eps2: np.ndarray | None = None) -> Tensor:
        """Reconstruction minus both layer penalties (second layer closed-form,
        first layer a density ratio at the sampled point)."""
        if not self.two_layers:
            return self.base.elbo(x, rng=rng, eps=eps)
        mu1, lv1 = self.base.encode(x)
        z1 = reparameterize(mu1, lv1, rng=rng, eps=eps)
        h2 = self.enc2_lower(z1)
        mu2, lv2 = self.enc2_mu(h2), self.enc2_logvar(h2)
        z2 = reparameterize(mu2, lv2, rng=rng, eps=eps2)
        hp = self.prior_lower(z2)
        mup, lvp = self.prior_mu(hp), self.prior_logvar(hp)
        recon = self.base.log_likelihood(x, self.base.decode(z1))
        kl2 = kl_diag_gaussian_to_standard(mu2, lv2)
        ratio1 = diag_gaussian_logpdf(z1, mu1, lv1) - diag_gaussian_logpdf(z1, mup, lvp)
        return recon - ratio1 - kl2

    def generate(self, n: int, rng: Rng) -> np.ndarray:
        if not self.two_layers:
            return self.base.generate(n, rng)
        if n == 0:
            return np.zeros((0, self.input_dim))
        with no_grad():
            z2 = rng.normal((n, self.latent_dims[1]))
            hp = self.prior_lower(Tensor(z2))
            mup, lvp = self.prior_mu(hp), self.prior_logvar(hp)
            z1 = reparameterize(mup, lvp, rng=rng)
            out = self.base.decode(z1).data
        if self.base.likelihood == "bernoulli":
            return rng.bernoulli(out)
        return out

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
    for mine, theirs in zip(dup.params(), model.params()):
        mine.data[:] = theirs.data
    return dup
