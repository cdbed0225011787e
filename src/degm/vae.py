"""VAE components built from four single-layer sub-modules.

The encoder splits into a lower layer (input -> hidden) and an upper pair of
heads (hidden -> mu, hidden -> logvar); the decoder splits into a lower layer
(latent -> hidden) and an upper output layer. Keeping the four parts separate
is what lets the graph model recombine them across components.

A node's one forward pass is a ``NodePass`` over its rows, on plain arrays.
A training pass also gives the gradients, its backward written out VJP by
VJP in the order of the tape reference (``tests/tape.py``), so that they
equal the tape's bit for bit; ``HierPass``, a ``HierVae``'s pass, runs its
first layer through the same per-draw forward, decoder VJP and stage VJP
(``_stage_grads``) as a ``NodePass`` does. Bounds return one value
per sample, shape [B]. The weighted K'-draw bound is log-mean-exp of the
per-draw reconstruction terms minus the closed-form KL, so the single-draw
case *is* the ELBO estimate on the same noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError
from .nnkit import (
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
    kind = "single"  # its checkpoint kind

    def __init__(self, input_dim: int, latent_dim: int, hidden_dim: int = DEFAULT_HIDDEN,
                 likelihood: str = "bernoulli", rng: Rng | None = None, name: str = "vae"):
        if latent_dim <= 0:
            raise ContractError("latent_dim must be positive")
        if likelihood not in LIKELIHOODS:
            raise ContractError(f"unknown likelihood {likelihood!r}")
        self.input_dim = int(input_dim)
        self.latent_dim = int(latent_dim)
        self.hidden_dim = int(hidden_dim)
        self.likelihood = likelihood
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

    def spec(self) -> dict:
        """What rebuilds this model's shape: its checkpoint manifest's fields."""
        return {"kind": self.kind, "input_dim": self.input_dim, "latent_dim": self.latent_dim,
                "hidden_dim": self.hidden_dim, "likelihood": self.likelihood, "name": self.name}

    @classmethod
    def from_spec(cls, fields: dict) -> "VaeComponent":
        """The model ``fields``, a ``spec()``, describes; its parameters zero."""
        return cls(fields["input_dim"], fields["latent_dim"], fields["hidden_dim"],
                   fields["likelihood"], rng=None, name=fields["name"])

    def node_pass(self, x, train: bool = False) -> "NodePass":
        """This component's forward pass over the rows ``x``, its encoder run
        here; with ``train``, one that gives gradients."""
        return NodePass(x, self.enc_lower, [(self.enc_mu, self.enc_logvar)], None,
                        [self.dec_lower], self.dec_upper, self.likelihood,
                        self._params if train else None)

    def generate(self, n: int, rng: Rng) -> np.ndarray:
        """Ancestral samples; Bernoulli outputs are pixel-sampled to {0,1}."""
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
                 likelihood: str, params: ParamVector | None = None):
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
        self._pis = [None] if weights is None else weights  # each source's weight
        self.lowers = lowers
        self.upper = upper
        self.likelihood = likelihood
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
            self._kernel = likelihood_kernel(self.likelihood, self.x)
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

    def draws(self, rng: Rng, k: int = 1, rows: int | None = None) -> list[np.ndarray]:
        """``k`` draws of the noise from ``rng``, taken as ``reparameterize``
        takes them: one row per sample, or ``rows`` rows (one is a draw shared
        by every sample)."""
        n, latent = self.posteriors[0].mu.shape
        return [rng.normal((n if rows is None else rows, latent)) for _ in range(k)]

    def _draw(self, eps) -> tuple[np.ndarray, tuple]:
        """The reconstruction term at the draw ``eps``, and what the backward
        reads: z, the lower decoder outputs, their blend and the output."""
        z = self.sample(np.asarray(eps, dtype=np.float64))
        lows = [layer.apply(z) for layer in self.lowers]
        hidden = self._blend(lows)
        out = self.upper.apply(hidden)
        return self.recon_term(out), (z, lows, hidden, out)

    def bound(self, eps_list: list[np.ndarray]) -> np.ndarray:
        """The per-sample bound over one draw per entry of ``eps_list``, each
        shared by every row (or one row per sample) and by every source."""
        return logmeanexp_values([self._draw(eps)[0] for eps in eps_list]) - self.kl()

    def _backward_start(self) -> tuple[np.ndarray, dict[str, np.ndarray], np.ndarray]:
        """A new gradient vector laid out as ``params``, its views by name
        (the backward writes every one), and the gradient of ``-values.mean()``
        at the per-sample values."""
        if self.params is None:
            raise ContractError("gradients need a pass made with train=True")
        flat = np.empty_like(self.params.flat)
        n = self.x.shape[0]
        return flat, self.params.views(flat), np.full(n, -(1.0 / float(n)))

    def _decoder_grads(self, grads: dict[str, np.ndarray], draw: tuple, g_recon: np.ndarray,
                       first: bool = True) -> np.ndarray:
        """Write (``first``) or add the output layer's gradients at one draw,
        ``_draw``'s intermediates, from the gradient ``g_recon`` at its
        reconstruction term, and an own pass's lower decoders' (a blended
        pass's are borrowed); return the gradient at z."""
        z, lows, hidden, out = draw
        g_out = self.upper.activation_grad(out, self._kernel.grad(out, g_recon))
        self.upper.accumulate_grads(grads, hidden, g_out, first)
        g_hidden = g_out @ self.upper.weight.data
        g_z = None
        for layer, low, pi in zip(self.lowers, lows, self._pis):
            g_low = layer.activation_grad(low, _scaled(g_hidden, pi))
            if self.weights is None:
                layer.accumulate_grads(grads, z, g_low, first)
            g_part = g_low @ layer.weight.data
            g_z = g_part if g_z is None else g_z + g_part
        return g_z

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
        flat, grads, g_values = self._backward_start()
        eps_list = [np.asarray(eps, dtype=np.float64) for eps in eps_list]
        draws = [self._draw(eps) for eps in eps_list]
        recons = [recon for recon, _ in draws]
        values = logmeanexp_values(recons) - self.kl()
        g_recons = logmeanexp_grads(recons, g_values)
        g_zs = [self._decoder_grads(grads, draw, g, d == 0)
                for d, ((_, draw), g) in enumerate(zip(draws, g_recons))]
        g_heads = []
        for p, kl, pi in zip(self.posteriors, self._kls, self._pis):
            g_heads += p.grads([_scaled(g_z, pi) for g_z in g_zs], eps_list, kl,
                               _scaled(-g_values, pi))
        _stage_grads(grads, self.enc_lower, [layer for pair in self.heads for layer in pair],
                     self.x, self._h, g_heads, self.weights is None)
        return values, flat


def _scaled(g: np.ndarray, pi) -> np.ndarray:
    return g if pi is None else g * pi


def _stage_grads(grads: dict[str, np.ndarray], lower: DenseLayer, heads: list[DenseLayer],
                 x: np.ndarray, h: np.ndarray, g_heads, own: bool = True) -> np.ndarray:
    """Write the gradients of a stage, a lower layer and its identity heads
    (``h = lower(x)``), from the gradients ``g_heads`` at the heads' outputs,
    into ``grads`` by name; return the gradient at the lower layer's affine
    output. Heads that are not ``own`` (borrowed) pass their gradient on and
    get none."""
    g_h = None
    for layer, g in zip(heads, g_heads):
        if own:
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


class HierVae(VaeComponent):
    """Two stochastic layers: q(z1|x) q(z2|z1) against prior p(z2) p(z1|z2).

    Exists as the deeper single-model baseline; a one-layer baseline is the
    plain component. Its first layer is the component it extends, whose
    reconstruction and ``emit`` it keeps; its vector holds that component's
    parameters and then the second layer's. It trains and is scored through
    its own pass, a ``HierPass``.
    """

    kind = "hier"  # its checkpoint kind

    def __init__(self, input_dim: int, latent_dims: tuple[int, int] = (100, 50),
                 hidden_dim: int = DEFAULT_HIDDEN, likelihood: str = "bernoulli",
                 rng: Rng | None = None, name: str = "hier"):
        l1, l2 = latent_dims
        super().__init__(input_dim, l1, hidden_dim, likelihood, rng, name)
        self.latent_dims = (int(l1), int(l2))
        self.enc2_lower = DenseLayer(l1, hidden_dim, "leaky-relu", rng, f"{name}.enc2_lower")
        self.enc2_mu = DenseLayer(hidden_dim, l2, "identity", rng, f"{name}.enc2_mu")
        self.enc2_logvar = DenseLayer(hidden_dim, l2, "identity", rng, f"{name}.enc2_logvar")
        self.prior_lower = DenseLayer(l2, hidden_dim, "leaky-relu", rng, f"{name}.prior_lower")
        self.prior_mu = DenseLayer(hidden_dim, l1, "identity", rng, f"{name}.prior_mu")
        self.prior_logvar = DenseLayer(hidden_dim, l1, "identity", rng, f"{name}.prior_logvar")
        extra = (self.enc2_lower, self.enc2_mu, self.enc2_logvar,
                 self.prior_lower, self.prior_mu, self.prior_logvar)
        self._params = ParamVector(self._params + [t for layer in extra for t in layer.params()])

    def spec(self) -> dict:
        """What rebuilds this model's shape: its checkpoint manifest's fields."""
        return {"kind": self.kind, "input_dim": self.input_dim,
                "latent_dims": list(self.latent_dims), "hidden_dim": self.hidden_dim,
                "likelihood": self.likelihood, "name": self.name}

    @classmethod
    def from_spec(cls, fields: dict) -> "HierVae":
        """The model ``fields``, a ``spec()``, describes; its parameters zero."""
        return cls(fields["input_dim"], tuple(fields["latent_dims"]), fields["hidden_dim"],
                   fields["likelihood"], rng=None, name=fields["name"])

    def node_pass(self, x, train: bool = False) -> "HierPass":
        """This model's forward pass over the rows ``x``; with ``train``, one
        that gives gradients."""
        return HierPass(self, x, train)

    def generate(self, n: int, rng: Rng) -> np.ndarray:
        hp = self.prior_lower.apply(rng.normal((n, self.latent_dims[1])))
        prior = DiagGaussian(self.prior_mu.apply(hp), self.prior_logvar.apply(hp))
        return self.emit(prior.sample(rng.normal(prior.mu.shape)), rng)


class HierPass(NodePass):
    """A ``HierVae``'s forward pass over the rows ``x``: its first layer's
    pass, and the second layer at each draw, computed only when a bound needs
    it.

    A draw is ``(eps, eps2)``, for z1 and z2; a bare ``eps`` means
    ``eps2 = 0``. ``bound`` is the log-mean-exp over draws of the per-draw
    bound training takes: the reconstruction minus both layer penalties, the
    second layer's closed-form, the first layer's a density ratio at the
    sampled point. ``kl`` and ``reconstruction`` are the first layer's. A
    training pass, its ``params`` the model's vector, gives the gradients of
    one draw.
    """

    def __init__(self, model: HierVae, x, train: bool = False):
        super().__init__(x, model.enc_lower, [(model.enc_mu, model.enc_logvar)], None,
                         [model.dec_lower], model.dec_upper, model.likelihood,
                         model.params() if train else None)
        self.model = model

    def draws(self, rng: Rng, k: int = 1, rows: int | None = None) -> list:
        """``k`` draws from ``rng``, as ``NodePass.draws`` takes them: each
        ``eps`` for z1 and then ``eps2`` for z2."""
        n = self.x.shape[0] if rows is None else rows
        l1, l2 = self.model.latent_dims
        return [(rng.normal((n, l1)), rng.normal((n, l2))) for _ in range(k)]

    def bound(self, draws: list) -> np.ndarray:
        """The per-sample bound over ``draws``."""
        return logmeanexp_values([self._forward(draw)[0] for draw in draws])

    def _forward(self, draw):
        """The two-layer bound at ``draw``, and what its backward reads."""
        m, q1 = self.model, self.posteriors[0]
        eps, eps2 = draw if isinstance(draw, tuple) else (draw, np.zeros((1, m.latent_dims[1])))
        recon, decoded = self._draw(eps)
        z1 = decoded[0]
        h2 = m.enc2_lower.apply(z1)
        q2 = DiagGaussian(m.enc2_mu.apply(h2), m.enc2_logvar.apply(h2))
        z2 = q2.sample(eps2)
        hp = m.prior_lower.apply(z2)
        prior = (m.prior_mu.apply(hp), m.prior_logvar.apply(hp))
        kl2 = q2.kl()
        ratio1 = (diag_gaussian_logpdf(z1, q1.mu, q1.logvar)
                  - diag_gaussian_logpdf(z1, *prior))
        return recon - ratio1 - kl2, (eps, decoded, h2, q2, eps2, z2, hp, prior, kl2)

    def bound_and_grads(self, draws: list) -> tuple[np.ndarray, np.ndarray]:
        """``bound(draws)`` and the gradient of ``-bound.mean()``, as one
        vector laid out as ``params``. It takes one draw; its backward runs
        through the decoder and stage VJPs ``NodePass.bound_and_grads`` uses,
        and where gradients meet they are summed in the tape's order, so every
        gradient equals the tape's bit for bit."""
        flat, grads, g_values = self._backward_start()
        if len(draws) != 1:
            raise ContractError(f"a two-layer pass's gradients take one draw, got {len(draws)}")
        values, (eps, decoded, h2, q2, eps2, z2, hp, prior, kl2) = self._forward(draws[0])
        m, q1, z1 = self.model, self.posteriors[0], decoded[0]
        # values = recon - (log q(z1) - log p(z1)) - kl2
        g_minus = -g_values
        g_z1_dec = self._decoder_grads(grads, decoded, g_values)
        g_z1_prior, *g_prior = diag_gaussian_logpdf_grads(z1, *prior, g_values)
        g_z2 = _stage_grads(grads, m.prior_lower, [m.prior_mu, m.prior_logvar], z2, hp,
                            g_prior) @ m.prior_lower.weight.data
        g_q2 = q2.grads([g_z2], [eps2], kl2, g_minus)
        g_z1_enc2 = _stage_grads(grads, m.enc2_lower, [m.enc2_mu, m.enc2_logvar], z1,
                                 h2, g_q2) @ m.enc2_lower.weight.data
        g_z1_q, g_mu1, g_lv1 = diag_gaussian_logpdf_grads(z1, q1.mu, q1.logvar, g_minus)

        # the four gradients at z1, summed in the tape's order
        g_z1 = g_z1_dec + g_z1_q + g_z1_prior + g_z1_enc2
        g_mu, g_lv = q1.sample_grads([g_z1], [eps])
        _stage_grads(grads, m.enc_lower, [m.enc_mu, m.enc_logvar], self.x, self._h,
                     (g_mu + g_mu1, g_lv + g_lv1))
        return values, flat


def copy_model(model):
    """An independent model of the same spec with bit-identical parameters:
    any model with ``spec``, ``from_spec`` and ``params``."""
    dup = type(model).from_spec(model.spec())
    for mine, theirs in zip(dup.params(), model.params()):
        mine.data[...] = theirs.data
    return dup
