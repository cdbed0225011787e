"""Gaussian/Bernoulli likelihoods, the diagonal-Gaussian KL, and reparameterised sampling.

Conventions: batches are [B, d]; every function here returns one value per
sample, shape [B]. ``logvar`` is clamped to [-10, 10] before exponentiation
and Bernoulli probabilities to [1e-6, 1 - 1e-6]; both clamps are numeric
guards, nothing more.

The Tensor functions build the tape. ``DiagGaussian``,
``likelihood_kernel`` and ``logmeanexp_values`` are their plain-array
counterparts: the same numpy calls in the same order, so the same values bit
for bit, with what does not change between draws computed once.
``DiagGaussian.grads``, ``likelihood_grad`` and ``logmeanexp_grads`` are the
tape's VJPs of the same functions on arrays, step for step. ``TapeGaussian``
and ``tape_likelihood`` give the Tensor functions the array counterparts'
shape, so that one node pass (``degm.vae.NodePass``) picks either set once
and runs the same code.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, DimensionError
from .autodiff import Tensor
from .rng import Rng

LOGVAR_LO, LOGVAR_HI = -10.0, 10.0
PROB_EPS = 1e-6

# fixed decoder standard deviation; 2 pi sigma^2 collapses to pi
DEFAULT_SIGMA = 1.0 / np.sqrt(2.0)

LOG_2PI = float(np.log(2.0 * np.pi))


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


class TapeGaussian:
    """``DiagGaussian`` on the tape: ``sample`` is ``reparameterize`` and ``kl``
    is ``kl_diag_gaussian_to_standard``. ``logvar`` is kept unclipped; both
    clip it where they use it."""

    __slots__ = ("mu", "logvar")

    def __init__(self, mu: Tensor, logvar: Tensor):
        self.mu = mu
        self.logvar = logvar

    def sample(self, eps: np.ndarray) -> Tensor:
        return reparameterize(self.mu, self.logvar, eps=eps)

    def kl(self) -> Tensor:
        return kl_diag_gaussian_to_standard(self.mu, self.logvar)


def tape_likelihood(likelihood: str, x: np.ndarray, sigma: float = DEFAULT_SIGMA):
    """``likelihood_kernel`` on the tape: the per-sample log-likelihood of the
    fixed targets ``x`` as a function of the decoder output Tensor."""
    if likelihood == "bernoulli":
        return lambda probs: bernoulli_log_likelihood(x, probs)
    return lambda mu: gaussian_log_likelihood(x, mu, sigma)


# -- the same quantities on plain arrays -------------------------------------------------

class DiagGaussian:
    """A diagonal-Gaussian posterior on plain arrays. The clipped logvar and
    the std are computed once; ``sample`` is ``reparameterize`` and ``kl`` is
    ``kl_diag_gaussian_to_standard``, bit for bit."""

    __slots__ = ("mu", "logvar", "std", "var")

    def __init__(self, mu: np.ndarray, logvar: np.ndarray):
        if mu.shape != logvar.shape:
            raise DimensionError(f"mu shape {mu.shape} != logvar shape {logvar.shape}")
        self.mu = mu
        self.logvar = np.clip(logvar, LOGVAR_LO, LOGVAR_HI)
        self.std = np.exp(self.logvar * 0.5)

    def sample(self, eps: np.ndarray) -> np.ndarray:
        return self.mu + self.std * eps

    def kl(self) -> np.ndarray:
        self.var = np.exp(self.logvar)  # kept for ``grads``
        inner = self.var + self.mu ** 2 - 1.0 - self.logvar
        return np.clip(inner.sum(axis=1) * 0.5, 0.0, np.inf)

    def grads(self, g_samples: list[np.ndarray], eps_list: list[np.ndarray], kl: np.ndarray,
              g_kl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The gradients at mu and at the unclipped logvar, from the gradient at
        ``sample(eps)`` for each draw of ``eps_list`` and ``g_kl`` at ``kl``
        (the value ``kl()`` gave; so ``kl`` runs first): the tape's VJPs of
        ``reparameterize`` and ``kl_diag_gaussian_to_standard``, summed as the
        tape sums them, draw by draw and then the KL."""
        inside = (self.logvar > LOGVAR_LO) & (self.logvar < LOGVAR_HI)
        g_mu = g_lv = None
        for g, eps in zip(g_samples, eps_list):
            lv = g * eps * self.std * 0.5 * inside
            g_mu = g if g_mu is None else g_mu + g
            g_lv = lv if g_lv is None else g_lv + lv
        g_inner = (g_kl * ((kl > 0.0) & (kl < np.inf)) * 0.5)[:, None]
        g_mu = g_mu + g_inner * (2.0 * self.mu)
        g_clipped = g_inner * self.var
        g_clipped -= g_inner
        g_clipped *= inside
        return g_mu, g_lv + g_clipped


def likelihood_kernel(likelihood: str, x: np.ndarray, sigma: float = DEFAULT_SIGMA):
    """The per-sample log-likelihood of the fixed targets ``x`` as a function
    of the decoder output: ``bernoulli_log_likelihood`` or
    ``gaussian_log_likelihood``, bit for bit. Its ``grad(out, g)`` is the
    gradient at the output ``out`` from the gradient ``g`` at the values:
    their tape VJPs, step for step. ``1 - x`` and the checks on ``x`` are
    computed here, once; a failed check is raised by each call, where the
    Tensor function raises it."""
    if likelihood == "bernoulli":
        targets_ok = not (x.min() < 0.0 or x.max() > 1.0)
        one_minus_x = 1.0 - x

        def bernoulli(probs: np.ndarray) -> np.ndarray:
            if x.shape != probs.shape:
                raise DimensionError(f"x shape {x.shape} != probs shape {probs.shape}")
            if not targets_ok:
                raise ContractError("targets must lie in [0, 1]")
            if probs.min() < 0.0 or probs.max() > 1.0:
                raise ContractError("probabilities must lie in [0, 1]")
            p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
            ll = np.log(p)
            ll *= x
            np.subtract(1.0, p, out=p)
            np.log(p, out=p)
            p *= one_minus_x
            ll += p
            return ll.sum(axis=1)

        def bernoulli_grad(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
            col = g[:, None]
            p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
            g_probs = col * x
            g_probs /= p
            np.subtract(1.0, p, out=p)
            g_rest = col * one_minus_x
            g_rest /= p
            g_probs -= g_rest
            g_probs *= (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
            return g_probs

        bernoulli.grad = bernoulli_grad
        return bernoulli
    if sigma <= 0.0:
        def invalid(mu: np.ndarray) -> np.ndarray:
            raise ContractError(f"sigma must be positive, got {sigma}")

        return invalid
    scale = -0.5 / (sigma * sigma)
    const = 0.5 * x.shape[1] * float(np.log(2.0 * np.pi * sigma * sigma))

    def gaussian(mu: np.ndarray) -> np.ndarray:
        if x.shape != mu.shape:
            raise DimensionError(f"x shape {x.shape} != mu shape {mu.shape}")
        return ((mu - x) ** 2).sum(axis=1) * scale - const

    def gaussian_grad(mu: np.ndarray, g: np.ndarray) -> np.ndarray:
        diff = mu - x
        diff *= 2.0
        diff *= (g * scale)[:, None]
        return diff

    gaussian.grad = gaussian_grad
    return gaussian


def logmeanexp_values(values: list[np.ndarray]) -> np.ndarray:
    """``logmeanexp`` of plain per-sample arrays, bit for bit."""
    if not values:
        raise ContractError("logmeanexp needs at least one value")
    if len(values) == 1:
        return values[0]
    m = np.maximum.reduce(values)
    acc = np.exp(values[0] - m)
    for v in values[1:]:
        acc += np.exp(v - m)
    return np.log(acc) + (m - float(np.log(len(values))))


def logmeanexp_grads(values: list[np.ndarray], g: np.ndarray) -> list[np.ndarray]:
    """The gradient at each of ``values`` of ``logmeanexp_values(values)``,
    from the gradient ``g`` at it: the tape's VJPs of ``logmeanexp``."""
    if len(values) == 1:
        return [g]
    m = np.maximum.reduce(values)
    exps = [np.exp(v - m) for v in values]
    acc = exps[0] + exps[1]
    for e in exps[2:]:
        acc += e
    g_acc = g / acc
    return [g_acc * e for e in exps]
