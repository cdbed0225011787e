"""Gaussian/Bernoulli likelihoods, the diagonal-Gaussian KL and log-density,
and reparameterised sampling, on plain arrays.

Conventions: batches are [B, d]; every function here returns one value per
sample, shape [B]. ``logvar`` is clamped to [-10, 10] before exponentiation
and Bernoulli probabilities to [1e-6, 1 - 1e-6]; both clamps are numeric
guards, nothing more.

Each function makes the numpy calls of its Tensor counterpart in the tape
reference (``tests/tape.py``) in the same order, so its values are the
tape's bit for bit, with what does not change between draws computed once.
``DiagGaussian.grads``, ``likelihood_kernel``'s ``grad``,
``diag_gaussian_logpdf_grads`` and ``logmeanexp_grads`` are the tape's VJPs
of the same functions, step for step.
"""

from __future__ import annotations

import numpy as np

from ..errors import ContractError, DimensionError

LOGVAR_LO, LOGVAR_HI = -10.0, 10.0
PROB_EPS = 1e-6

# the decoder standard deviation of every Gaussian model, which no config
# sets; 2 pi sigma^2 collapses to pi
DEFAULT_SIGMA = 1.0 / np.sqrt(2.0)

LOG_2PI = float(np.log(2.0 * np.pi))


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

    def sample_grads(self, g_samples: list[np.ndarray],
                     eps_list: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """The gradients at mu and at the unclipped logvar, from the gradient at
        ``sample(eps)`` for each draw of ``eps_list``: the tape's VJPs of
        ``reparameterize``, summed as the tape sums them, draw by draw."""
        inside = (self.logvar > LOGVAR_LO) & (self.logvar < LOGVAR_HI)
        g_mu = g_lv = None
        for g, eps in zip(g_samples, eps_list):
            lv = g * eps * self.std * 0.5 * inside
            g_mu = g if g_mu is None else g_mu + g
            g_lv = lv if g_lv is None else g_lv + lv
        return g_mu, g_lv

    def grads(self, g_samples: list[np.ndarray], eps_list: list[np.ndarray], kl: np.ndarray,
              g_kl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``sample_grads`` and then the KL's, from ``g_kl`` at ``kl`` (the
        value ``kl()`` gave; so ``kl`` runs first): the tape's VJPs of
        ``kl_diag_gaussian_to_standard``, added after the draws' as the tape
        adds them."""
        g_mu, g_lv = self.sample_grads(g_samples, eps_list)
        g_inner = (g_kl * ((kl > 0.0) & (kl < np.inf)) * 0.5)[:, None]
        g_mu = g_mu + g_inner * (2.0 * self.mu)
        g_clipped = g_inner * self.var
        g_clipped -= g_inner
        g_clipped *= (self.logvar > LOGVAR_LO) & (self.logvar < LOGVAR_HI)
        return g_mu, g_lv + g_clipped


def likelihood_kernel(likelihood: str, x: np.ndarray):
    """The per-sample log-likelihood of the fixed targets ``x`` as a function
    of the decoder output: ``bernoulli_log_likelihood`` or
    ``gaussian_log_likelihood`` at ``DEFAULT_SIGMA``, bit for bit. Its
    ``grad(out, g)`` is the gradient at the output ``out`` from the gradient
    ``g`` at the values: their tape VJPs, step for step. ``1 - x`` and the
    checks on ``x`` are computed here, once; a failed check is raised by each
    call, where the tape's function raises it."""
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
    scale = -0.5 / (DEFAULT_SIGMA * DEFAULT_SIGMA)
    const = 0.5 * x.shape[1] * float(np.log(2.0 * np.pi * DEFAULT_SIGMA * DEFAULT_SIGMA))

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


def diag_gaussian_logpdf(z: np.ndarray, mu: np.ndarray, logvar: np.ndarray) -> np.ndarray:
    """log N(z; mu, diag exp(logvar)) per sample."""
    lv = np.clip(logvar, LOGVAR_LO, LOGVAR_HI)
    inner = (z - mu) ** 2 * np.exp(-lv)
    inner += lv
    inner += LOG_2PI
    return inner.sum(axis=1) * -0.5


def diag_gaussian_logpdf_grads(z: np.ndarray, mu: np.ndarray, logvar: np.ndarray,
                               g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradients at ``z``, ``mu`` and ``logvar`` of
    ``diag_gaussian_logpdf(z, mu, logvar)``, from the gradient ``g`` at its
    values. Only the band of ``logvar`` strictly inside the clip passes a
    gradient, so a ``logvar`` clipped already gives the mask of its unclipped
    values."""
    lv = np.clip(logvar, LOGVAR_LO, LOGVAR_HI)
    diff = z - mu
    scale = np.exp(-lv)
    g_inner = np.broadcast_to((g * -0.5)[:, None], diff.shape)
    g_diff = g_inner * scale
    g_diff *= 2.0 * diff
    g_lv = g_inner - g_inner * diff ** 2 * scale
    g_lv *= (logvar > LOGVAR_LO) & (logvar < LOGVAR_HI)
    return g_diff, -g_diff, g_lv


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
