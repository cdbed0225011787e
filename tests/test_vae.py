"""Component-level contracts: the node pass's encoder, decoder and bounds,
generation, the deep baseline."""

import os

import numpy as np
import pytest

from degm.errors import ContractError, DimensionError
from degm.graph import GraphModel
from degm.nnkit import DEFAULT_SIGMA, AdamState, Rng, adam_step
from degm.persist import load_checkpoint, save_checkpoint
from degm.vae import HierVae, VaeComponent, copy_model

from helpers import (
    analytic_grads,
    drawn_bound,
    finite_difference_grads,
    max_rel_err,
    parameter_bytes,
    single_draw_elbo,
    tape_node,
    tape_pass_objective,
    train_elbo_steps,
)


def tiny(seed=0, input_dim=6, latent=2, hidden=8, likelihood="bernoulli"):
    return VaeComponent(input_dim, latent, hidden, likelihood, rng=Rng(seed), name="toy")


def binary_data(rng, n, dim):
    return (rng.uniform(0.0, 1.0, (n, dim)) < 0.4).astype(np.float64)


def encode(c, x):
    """The (mu, logvar) Tensors of the component's pass over ``x`` on the tape."""
    return tape_node(c.node_pass(x))[0][0]


def decode(c, z):
    """The decoder output at ``z`` on the tape."""
    return tape_node(c.node_pass(np.zeros((1, c.input_dim))))[2](z)


# --- encode / decode ---------------------------------------------------------

def test_encode_zero_init_gives_standard_normal_params():
    c = VaeComponent(5, 3, 4, rng=None)
    mu, lv = encode(c, np.random.default_rng(0).random((7, 5)))
    assert np.array_equal(mu.data, np.zeros((7, 3)))
    assert np.array_equal(lv.data, np.zeros((7, 3)))


def test_encode_deterministic():
    c = tiny(3)
    x = Rng(1).uniform(0, 1, (4, 6))
    mu1, lv1 = encode(c, x)
    mu2, lv2 = encode(c, x)
    assert np.array_equal(mu1.data, mu2.data) and np.array_equal(lv1.data, lv2.data)


def test_encode_rejects_wrong_width():
    with pytest.raises(DimensionError):
        tiny().node_pass(np.zeros((2, 7)))


def test_encoder_gradient_matches_finite_differences():
    c = tiny(5)
    x = Rng(2).uniform(0, 1, (3, 6))
    params = c.enc_lower.params() + c.enc_mu.params()

    def loss():
        return encode(c, x)[0].sum()

    assert max_rel_err(analytic_grads(loss, params),
                       finite_difference_grads(loss, params)) < 1e-6


def test_decode_zero_init_bernoulli_is_half():
    c = VaeComponent(5, 3, 4, rng=None)
    out = decode(c, np.ones((2, 3)))
    np.testing.assert_array_equal(out.data, np.full((2, 5), 0.5))


def test_decode_deterministic():
    c = tiny(4)
    z = Rng(3).normal((5, 2))
    assert np.array_equal(decode(c, z).data, decode(c, z).data)


def test_memorizes_single_point():
    c = tiny(seed=9)
    point = (Rng(8).uniform(0, 1, (1, 6)) < 0.5).astype(np.float64)
    data = np.repeat(point, 16, axis=0)
    initial = float(((c.reconstruct(point) - point) ** 2).sum())
    train_elbo_steps(c, data, steps=500, lr=1e-2, seed=0)
    final = float(((c.reconstruct(point) - point) ** 2).sum())
    assert final < initial / 10.0


# --- elbo -----------------------------------------------------------------------

def test_elbo_zero_init_closed_form():
    c = VaeComponent(8, 3, 5, rng=None)
    x = binary_data(Rng(0), 4, 8)
    values = c.node_pass(x).bound([np.zeros((4, 3))])
    np.testing.assert_allclose(values, np.full(4, 8 * np.log(0.5)), atol=1e-9)


def test_elbo_bounded_by_terms():
    c = tiny(7)
    x = binary_data(Rng(5), 16, 6)
    node_pass = c.node_pass(x)
    kl = node_pass.kl()
    values = drawn_bound(node_pass, Rng(0))
    # Bernoulli reconstruction term is <= 0, so elbo <= -KL
    assert np.all(values <= -kl + 1e-12)
    assert np.all(kl >= 0.0)


def test_elbo_mean_reproducible_under_seed():
    c = tiny(2)
    x = binary_data(Rng(4), 10, 6)

    def mean_of_draws():
        rng = Rng(77)
        node_pass = c.node_pass(x)
        return np.mean([drawn_bound(node_pass, rng).mean() for _ in range(1000)])

    assert mean_of_draws() == mean_of_draws()


def test_elbo_training_trend_improves():
    rng = Rng(6)
    data = np.repeat((rng.uniform(0, 1, (1, 6)) < 0.5).astype(np.float64), 64, axis=0)
    c = tiny(seed=12)
    history = train_elbo_steps(c, data, steps=100, lr=1e-2, seed=1)
    assert np.mean(history[-20:]) > np.mean(history[:20])


def test_elbo_gradient_matches_finite_differences():
    c = tiny(11, input_dim=5, latent=2, hidden=4)
    x = binary_data(Rng(9), 3, 5)
    eps = Rng(10).normal((3, 2))

    def loss():
        return tape_pass_objective(c.node_pass(x), [eps]).mean()

    assert max_rel_err(analytic_grads(loss, c.params()),
                       finite_difference_grads(loss, c.params())) < 1e-4


# --- weighted bound ----------------------------------------------------------------

def test_iwelbo_single_draw_equals_elbo():
    c = tiny(13)
    x = binary_data(Rng(14), 8, 6)
    eps = Rng(15).normal((8, 2))
    node_pass = c.node_pass(x)
    np.testing.assert_array_equal(node_pass.bound([eps]), single_draw_elbo(node_pass, eps))


def test_iwelbo_identical_draws_collapse():
    c = tiny(16)
    x = binary_data(Rng(17), 4, 6)
    eps = Rng(18).normal((4, 2))
    node_pass = c.node_pass(x)
    iw = node_pass.bound([eps] * 5)
    el = node_pass.bound([eps])
    np.testing.assert_allclose(iw, el, atol=1e-10)


def test_iwelbo_rejects_bad_kprime():
    with pytest.raises(ContractError):
        tiny().node_pass(np.zeros((1, 6))).bound([])


def test_iwelbo_tightens_with_more_draws():
    # Monte-Carlo oracle: paired prefix comparison over 10^4 samples
    rng = Rng(20)
    data = binary_data(rng, 256, 6)
    c = tiny(21)
    train_elbo_steps(c, data, steps=200, lr=5e-3, seed=2)
    x = binary_data(Rng(22), 10_000, 6)
    eps_bank = [Rng(23).spawn(f"draw:{i}").normal((1, 2)) for i in range(5)]
    node_pass = c.node_pass(x)
    iw1 = node_pass.bound(eps_bank[:1])
    iw5 = node_pass.bound(eps_bank)
    diff = iw5 - iw1
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert diff.mean() >= -3.0 * se


def test_iwelbo_many_draw_average_dominates_elbo():
    # invariant: K'=1000 bound vs the average of 1000 single-draw estimates
    c = tiny(24, input_dim=5, latent=2, hidden=4)
    train_elbo_steps(c, binary_data(Rng(25), 128, 5), steps=150, lr=5e-3, seed=3)
    x = binary_data(Rng(26), 1, 5)
    draw_rng = Rng(27)
    node_pass = c.node_pass(x)
    singles = np.array([drawn_bound(node_pass, draw_rng)[0] for _ in range(1000)])
    iw = drawn_bound(node_pass, Rng(28), 1000)[0]
    se = singles.std(ddof=1) / np.sqrt(singles.size)
    assert iw >= singles.mean() - 3.0 * se


# --- generation -----------------------------------------------------------------------

def test_generate_empty():
    assert tiny().generate(0, Rng(0)).shape == (0, 6)


def test_generate_bernoulli_outputs_binary():
    samples = tiny(30).generate(50, Rng(1))
    assert set(np.unique(samples)) <= {0.0, 1.0}


def test_generate_seed_determinism():
    c = tiny(31)
    assert np.array_equal(c.generate(20, Rng(5)), c.generate(20, Rng(5)))


# --- copies and freezing -----------------------------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: tiny(33),
    lambda: hier_tiny(33),
], ids=["vae", "hier"])
def test_copy_is_deep_and_bit_identical(build):
    c = build()
    dup = copy_model(c)
    assert type(dup) is type(c) and dup.name == c.name
    assert parameter_bytes(dup) == parameter_bytes(c)
    assert np.array_equal(dup.generate(7, Rng(51)), c.generate(7, Rng(51)))
    before = parameter_bytes(c)
    for p in dup.params():  # the last tensors are a HierVae's second-layer heads
        p.data[...] += 1.0
    assert parameter_bytes(c) == before


def spec_model(kind):
    """A model of each checkpoint kind, every parameter drawn at random."""
    if kind == "graph":
        model = GraphModel(6, 2, 8, likelihood="gaussian", tau=0.5)
        for i in range(2):
            model.add_basic_node(task_id=i, rng=None)
            model.basics[i].reference_elbo = -3.0 - i / 7
        model.add_specific_node(np.array([0.3, 0.7]), task_id=2, rng=None)
    elif kind == "single":
        model = tiny(73)
    else:
        model = hier_tiny(74)
    for k, p in enumerate(model.params()):
        p.data[...] = Rng(80 + k).normal(p.data.shape) * 0.3
    return model


def spec_bounds(model, x, eps, eps2) -> list[bytes]:
    """Every per-sample bound the model gives at the draws ``eps`` and ``eps2``."""
    if isinstance(model, GraphModel):
        return [model.node_pass(e, x).bound([eps]).tobytes() for e in model.entries]
    values = [model.node_pass(x).bound([eps]).tobytes()]
    if isinstance(model, HierVae):
        values.append(model.node_pass(x).bound([(eps, eps2)]).tobytes())
    return values


@pytest.mark.parametrize("kind", ["graph", "single", "hier"])
def test_spec_copy_and_checkpoint_are_bit_identical(kind, tmp_path):
    model = spec_model(kind)
    rebuilt = type(model).from_spec(model.spec())
    owners = zip(rebuilt.entries, model.entries) if kind == "graph" else [(rebuilt, model)]
    for mine, theirs in owners:  # a flat copy of each parameter vector
        mine.params().flat[...] = theirs.params().flat
    save_checkpoint(str(tmp_path / kind), model)
    loaded_kind, loaded, manifest = load_checkpoint(str(tmp_path / kind))
    assert loaded_kind == model.kind
    assert sorted(os.listdir(tmp_path / kind)) == ["manifest.json", "params.bin"]
    # the manifest is the spec, sigma, the format version, the layout, the sha256 and the extra
    assert {k: v for k, v in manifest.items()
            if k not in ("format_version", "layout", "sha256", "extra")} == {**model.spec(),
                                                                   "sigma": DEFAULT_SIGMA}
    x = binary_data(Rng(75), 9, 6)
    eps, eps2 = Rng(76).normal((1, 3 if kind == "hier" else 2)), Rng(77).normal((9, 2))
    for other in (rebuilt, copy_model(model), loaded):
        assert type(other) is type(model) and other.spec() == model.spec()
        assert parameter_bytes(other) == parameter_bytes(model)
        assert spec_bounds(other, x, eps, eps2) == spec_bounds(model, x, eps, eps2)
        assert not any(np.shares_memory(a.data, b.data)
                       for a, b in zip(other.params(), model.params()))


def test_training_one_component_leaves_another_untouched():
    frozen, trained = tiny(34), tiny(35)
    before = parameter_bytes(frozen)
    train_elbo_steps(trained, binary_data(Rng(36), 64, 6), steps=50, lr=1e-3, seed=4)
    assert parameter_bytes(frozen) == before


# --- two-layer baseline ---------------------------------------------------------------------

def hier_tiny(seed=0):
    return HierVae(6, latent_dims=(3, 2), hidden_dim=5, rng=Rng(seed), name="h")


def test_hier_zero_init_closed_form():
    h = HierVae(8, latent_dims=(3, 2), hidden_dim=4, rng=None)
    x = binary_data(Rng(0), 4, 8)
    values = h.node_pass(x).bound([(Rng(1).normal((4, 3)), Rng(2).normal((4, 2)))])
    # both latent penalties vanish at zero init; only the coin-flip reconstruction is left
    np.testing.assert_allclose(values, np.full(4, 8 * np.log(0.5)), atol=1e-9)


def test_hier_gradient_matches_finite_differences():
    h = hier_tiny(43)
    x = binary_data(Rng(44), 2, 6)
    eps = Rng(45).normal((2, 3))
    eps2 = Rng(46).normal((2, 2))
    analytic = h.params().views(h.node_pass(x, train=True).bound_and_grads([(eps, eps2)])[1])
    numeric = finite_difference_grads(lambda: -h.node_pass(x).bound([(eps, eps2)]).mean(),
                                      h.params())
    assert max_rel_err(analytic, numeric) < 1e-4


def test_hier_draws_take_eps_then_eps2():
    [(eps, eps2)] = hier_tiny().node_pass(np.zeros((4, 6))).draws(Rng(5))
    want = Rng(5)
    np.testing.assert_array_equal(eps, want.normal((4, 3)))
    np.testing.assert_array_equal(eps2, want.normal((4, 2)))


def test_hier_training_step_smoke():
    h = hier_tiny(47)
    x = binary_data(Rng(48), 8, 6)
    state = AdamState(lr=1e-3)
    node_pass = h.node_pass(x, train=True)
    adam_step(state, h.params(), node_pass.bound_and_grads(node_pass.draws(Rng(49)))[1])
    samples = h.generate(5, Rng(50))
    assert samples.shape == (5, 6)
    assert np.isfinite(samples).all()
