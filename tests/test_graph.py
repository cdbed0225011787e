"""Expansion mechanics, edge weights, blended passes, and the mixture bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from degm.errors import ContractError
from degm.graph import GraphModel, edge_weights, expansion_decide, knowledge_similarity
from degm.nnkit import AdamState, Rng, adam_step

from helpers import (
    analytic_grads,
    composite_component,
    drawn_bound,
    finite_difference_grads,
    integers,
    max_rel_err,
    parameter_bytes,
    single_draw_elbo,
    specific_encode,
    tape_objective,
    train_elbo_steps,
)
from tape import affine_forward, backprop, no_grad

DIM, LATENT, HIDDEN = 6, 2, 5


def small_graph(n_basics=2, seed=0, tau=1.0):
    g = GraphModel(DIM, LATENT, HIDDEN, tau=tau)
    rng = Rng(seed)
    for i in range(n_basics):
        g.add_basic_node(task_id=i, rng=rng.spawn(f"init:{i}"))
        g.basics[i].reference_elbo = -4.0  # placeholder until trained
    return g


def binary_data(seed, n, dim=DIM):
    return (Rng(seed).uniform(0, 1, (n, dim)) < 0.4).astype(np.float64)


# --- edge weights ------------------------------------------------------------

def test_edge_weights_worked_example():
    np.testing.assert_allclose(edge_weights(np.array([1.0, 3.0])), [0.75, 0.25])


def test_edge_weights_equal_scores_uniform():
    np.testing.assert_allclose(edge_weights(np.full(5, 2.7)), np.full(5, 0.2))


def test_edge_weights_single_node():
    np.testing.assert_array_equal(edge_weights(np.array([13.0])), [1.0])


def test_edge_weights_all_zero_scores_uniform():
    np.testing.assert_allclose(edge_weights(np.zeros(4)), np.full(4, 0.25))


def test_edge_weights_rejects_negative():
    with pytest.raises(ContractError):
        edge_weights(np.array([1.0, -0.1]))


@given(ks=arrays(np.float64, st.integers(min_value=1, max_value=8),
                 elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False)))
@settings(max_examples=300, deadline=None)
def test_edge_weights_always_simplex(ks):
    pi = edge_weights(ks)
    assert (pi >= 0.0).all()
    assert abs(pi.sum() - 1.0) <= 1e-9


@given(ks=arrays(np.float64, 5, elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False)),
       seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=200, deadline=None)
def test_edge_weights_permutation_equivariant(ks, seed):
    perm = Rng(seed).permutation(5)
    np.testing.assert_allclose(edge_weights(ks[perm]), edge_weights(ks)[perm], atol=1e-12)


# --- expansion decision ----------------------------------------------------------

def test_decide_specific_when_some_node_transfers():
    kind, pi = expansion_decide(np.array([50.0, 30.0]), tau=40.0)
    assert kind == "specific"
    np.testing.assert_allclose(pi, edge_weights(np.array([50.0, 30.0])))


def test_decide_basic_when_everything_is_far():
    kind, pi = expansion_decide(np.array([50.0, 45.0]), tau=40.0)
    assert kind == "basic" and pi is None


def test_decide_rejects_empty_scores():
    with pytest.raises(ContractError):
        expansion_decide(np.array([]), tau=1.0)


def test_decide_tau_zero_forces_basic():
    kind, _ = expansion_decide(np.array([1e-6, 2.0]), tau=0.0)
    assert kind == "basic"


# --- knowledge similarity ----------------------------------------------------------

def test_ks_direct_arithmetic():
    g = small_graph(1, seed=3)
    g.basics[0].reference_elbo = -90.0
    probe = binary_data(1, 50)
    eps = Rng(0).spawn("ks:0").normal((1, LATENT))
    mean = float(g.basics[0].vae.node_pass(probe).bound([eps]).mean())
    # shift the reference so the gap is exactly 40
    g.basics[0].reference_elbo = mean - 40.0
    ks = knowledge_similarity(g.basics[0], probe, Rng(0).spawn("ks:0"))
    assert ks == pytest.approx(40.0, abs=1e-9)


def test_ks_requires_trained_node():
    g = small_graph(1)
    g.basics[0].reference_elbo = None
    with pytest.raises(ContractError):
        knowledge_similarity(g.basics[0], binary_data(0, 10), Rng(0))


def test_ks_probe_order_invariant():
    g = small_graph(1, seed=5)
    probe = binary_data(2, 64)
    a = knowledge_similarity(g.basics[0], probe, Rng(9))
    b = knowledge_similarity(g.basics[0], probe[Rng(3).permutation(64)], Rng(9))
    assert a == b


def test_ks_near_zero_on_own_distribution():
    # Monte-Carlo oracle: the SE combines per-sample spread and seed spread
    rng = Rng(7)
    data = binary_data(11, 400)
    g = small_graph(1, seed=8)
    vae = g.basics[0].vae
    history = train_elbo_steps(vae, data, steps=300, lr=5e-3, seed=12)
    g.basics[0].reference_elbo = float(np.mean(history[-50:]))
    probe = data[:200]
    ks = knowledge_similarity(g.basics[0], probe, Rng(21))
    node_pass = vae.node_pass(probe)
    per_sample = node_pass.bound([Rng(21).normal((1, LATENT))])
    seed_means = [float(node_pass.bound([Rng(100 + s).normal((1, LATENT))]).mean())
                  for s in range(10)]
    se = per_sample.std(ddof=1) / np.sqrt(per_sample.size) + np.std(seed_means, ddof=1)
    # reference comes from a different (training) stream, so allow drift too
    assert ks < 3.0 * se + 0.1 * abs(np.mean(seed_means))


# --- specific-node passes ------------------------------------------------------------

def test_specific_encode_one_hot_selects_single_basic():
    g = small_graph(2, seed=10)
    idx = g.add_specific_node(np.array([0.0, 1.0]), task_id=2, rng=Rng(11))
    s = g.entries[idx]
    x = binary_data(12, 4)
    eps = Rng(13).normal((4, LATENT))
    with no_grad():
        z, _ = specific_encode(g, s, x, eps=eps)
        h = affine_forward(s.enc_lower_new, x)
        mu = affine_forward(g.basics[1].vae.enc_mu, h)
        lv = affine_forward(g.basics[1].vae.enc_logvar, h)
        expected = mu.data + np.exp(0.5 * np.clip(lv.data, -10, 10)) * eps
    np.testing.assert_array_equal(z.data, expected)


def test_specific_encode_identical_uppers_ignore_weights():
    g = small_graph(2, seed=14)
    # force both basics to share upper-encoder parameters
    for attr in ("enc_mu", "enc_logvar"):
        getattr(g.basics[1].vae, attr).weight.data[:] = getattr(g.basics[0].vae, attr).weight.data
        getattr(g.basics[1].vae, attr).bias.data[:] = getattr(g.basics[0].vae, attr).bias.data
    x = binary_data(15, 3)
    eps = Rng(16).normal((3, LATENT))
    outcomes = []
    for w in ([0.2, 0.8], [0.9, 0.1]):
        idx = g.add_specific_node(np.array(w), task_id=len(g.entries), rng=Rng(17))
        s = g.specifics[-1]
        with no_grad():
            z, _ = specific_encode(g, s, x, eps=eps)
        # strip the node's own lower encoder from the comparison by sharing it
        if outcomes:
            s_prev = g.specifics[-2]
            s.enc_lower_new = s_prev.enc_lower_new
            with no_grad():
                z, _ = specific_encode(g, s, x, eps=eps)
        outcomes.append(z.data)
    np.testing.assert_allclose(outcomes[0], outcomes[1], atol=1e-12)


def test_specific_decode_one_hot_and_zero_map():
    g = small_graph(2, seed=18)
    g.add_specific_node(np.array([1.0, 0.0]), task_id=7, rng=Rng(19))
    s = g.specifics[0]
    z = Rng(20).normal((3, LATENT))
    rows = binary_data(20, 3)
    with no_grad():
        mixed = affine_forward(g.basics[0].vae.dec_lower, z)
        expected = affine_forward(s.dec_upper_new, mixed)
    np.testing.assert_allclose(g.node_pass(s, rows).decode(z), expected.data, atol=1e-12)
    # zero new output layer: Bernoulli probabilities collapse to one half
    s.dec_upper_new.weight.data[:] = 0.0
    s.dec_upper_new.bias.data[:] = 0.0
    np.testing.assert_array_equal(g.node_pass(s, rows).decode(z), np.full((3, DIM), 0.5))


def test_specific_training_freezes_basics():
    g = small_graph(2, seed=22)
    g.add_specific_node(np.array([0.5, 0.5]), task_id=9, rng=Rng(23))
    s = g.specifics[0]
    before = [parameter_bytes(b.vae) for b in g.basics]
    data = binary_data(24, 64)
    state = AdamState(lr=1e-3)
    rng = Rng(25)
    for _ in range(100):
        x = data[integers(rng, 0, 64, 16)]
        node_pass = g.node_pass(s, x, train=True)
        adam_step(state, s.params(), node_pass.bound_and_grads(node_pass.draws(rng))[1])
    assert [parameter_bytes(b.vae) for b in g.basics] == before


def test_melbo_gradient_only_reaches_new_layers():
    g = small_graph(2, seed=26)
    g.add_specific_node(np.array([0.3, 0.7]), task_id=5, rng=Rng(27))
    s = g.specifics[0]
    x = binary_data(28, 3)
    eps = Rng(29).normal((3, LATENT))

    def loss():
        return tape_objective(g, s, x, [eps]).mean()

    grads = backprop(loss())
    basic_names = {t.name for b in g.basics for t in b.vae.params()}
    assert not (set(grads) & basic_names), "frozen sub-modules must receive no gradient"
    assert max_rel_err(analytic_grads(loss, s.params()),
                       finite_difference_grads(loss, s.params())) < 1e-4


def test_melbo_one_hot_equals_composite_elbo():
    g = small_graph(2, seed=30)
    g.add_specific_node(np.array([0.0, 1.0]), task_id=4, rng=Rng(31))
    s = g.specifics[0]
    x = binary_data(32, 5)
    eps = Rng(33).normal((5, LATENT))
    composite = composite_component(g, s, basic_index=1)
    np.testing.assert_allclose(g.node_pass(s, x).bound([eps]),
                               composite.node_pass(x).bound([eps]), atol=1e-9)


def test_melbo_single_basic_degeneration():
    g = small_graph(1, seed=34)
    g.add_specific_node(np.array([1.0]), task_id=3, rng=Rng(35))
    s = g.specifics[0]
    x = binary_data(36, 6)
    eps = Rng(37).normal((6, LATENT))
    composite = composite_component(g, s, basic_index=0)
    np.testing.assert_allclose(g.node_pass(s, x).bound([eps]),
                               composite.node_pass(x).bound([eps]), atol=1e-9)


def test_melbo_kl_term_nonnegative():
    g = small_graph(2, seed=38)
    g.add_specific_node(np.array([0.6, 0.4]), task_id=11, rng=Rng(39))
    s = g.specifics[0]
    x = binary_data(40, 8)
    assert (g.node_pass(s, x).kl() >= 0.0).all()


def test_melbo_iw_single_draw_equals_melbo():
    g = small_graph(2, seed=41)
    g.add_specific_node(np.array([0.5, 0.5]), task_id=12, rng=Rng(42))
    s = g.specifics[0]
    x = binary_data(43, 6)
    eps = Rng(44).normal((6, LATENT))
    node_pass = g.node_pass(s, x)
    np.testing.assert_array_equal(node_pass.bound([eps]), single_draw_elbo(node_pass, eps))


def test_melbo_iw_identical_draws_collapse():
    g = small_graph(2, seed=45)
    g.add_specific_node(np.array([0.5, 0.5]), task_id=13, rng=Rng(46))
    s = g.specifics[0]
    x = binary_data(47, 4)
    eps = Rng(48).normal((4, LATENT))
    node_pass = g.node_pass(s, x)
    np.testing.assert_allclose(node_pass.bound([eps] * 4), node_pass.bound([eps]), atol=1e-10)


def test_melbo_iw_tightens_with_draws():
    g = small_graph(2, seed=49)
    data = binary_data(50, 200)
    for b in g.basics:
        train_elbo_steps(b.vae, data, steps=150, lr=5e-3, seed=51)
    g.add_specific_node(np.array([0.5, 0.5]), task_id=14, rng=Rng(52))
    s = g.specifics[0]
    state = AdamState(lr=5e-3)
    rng = Rng(53)
    for _ in range(150):
        x = data[integers(rng, 0, 200, 32)]
        node_pass = g.node_pass(s, x, train=True)
        adam_step(state, s.params(), node_pass.bound_and_grads(node_pass.draws(rng))[1])
    x = binary_data(54, 5000)
    eps_bank = [Rng(55).spawn(f"d:{i}").normal((1, LATENT)) for i in range(5)]
    node_pass = g.node_pass(s, x)
    m1 = node_pass.bound(eps_bank[:1])
    m5 = node_pass.bound(eps_bank)
    diff = m5 - m1
    se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert diff.mean() >= -3.0 * se


def test_melbo_bounded_by_iw_estimate():
    # the mixture bound should sit below the 1000-draw likelihood estimate
    g = small_graph(1, seed=56)
    data = binary_data(57, 200)
    train_elbo_steps(g.basics[0].vae, data, steps=150, lr=5e-3, seed=58)
    g.add_specific_node(np.array([1.0]), task_id=15, rng=Rng(59))
    s = g.specifics[0]
    state = AdamState(lr=5e-3)
    rng = Rng(60)
    for _ in range(150):
        x = data[integers(rng, 0, 200, 32)]
        node_pass = g.node_pass(s, x, train=True)
        adam_step(state, s.params(), node_pass.bound_and_grads(node_pass.draws(rng))[1])
    x = data[:64]
    draw_rng = Rng(61)
    node_pass = g.node_pass(s, x)
    melbo_draws = np.stack([drawn_bound(node_pass, draw_rng) for _ in range(50)])
    iw = drawn_bound(node_pass, Rng(62), 1000)
    mean_melbo = melbo_draws.mean(axis=0)
    se = melbo_draws.std(ddof=1, axis=0) / np.sqrt(melbo_draws.shape[0])
    assert np.all(mean_melbo <= iw + 3.0 * se + 1e-9)


# --- bookkeeping -----------------------------------------------------------------------

def test_v_matrix_shape_and_rows():
    g = small_graph(3, seed=63)
    g.add_specific_node(np.array([0.2, 0.5, 0.3]), task_id=3, rng=Rng(64))
    v = g.v_matrix()
    assert v.shape == (4, 3)
    np.testing.assert_array_equal(v[:3], np.zeros((3, 3)))
    assert v[3].sum() == pytest.approx(1.0, abs=1e-9)


def test_v_matrix_pads_specific_rows_when_basics_grow():
    g = small_graph(1, seed=65)
    g.add_specific_node(np.array([1.0]), task_id=1, rng=Rng(66))
    g.add_basic_node(task_id=2, rng=Rng(67))
    v = g.v_matrix()
    assert v.shape == (3, 2)
    np.testing.assert_array_equal(v[1], [1.0, 0.0])


def test_duplicate_task_id_rejected():
    g = small_graph(1, seed=68)
    with pytest.raises(ContractError):
        g.add_basic_node(task_id=0, rng=Rng(69))
    with pytest.raises(ContractError):
        g.add_specific_node(np.array([1.0]), task_id=0, rng=Rng(70))


def test_specific_weights_must_match_basic_count():
    g = small_graph(2, seed=71)
    with pytest.raises(ContractError):
        g.add_specific_node(np.array([1.0]), task_id=5, rng=Rng(72))


def test_specific_weights_must_be_simplex():
    g = small_graph(2, seed=73)
    with pytest.raises(ContractError):
        g.add_specific_node(np.array([0.7, 0.7]), task_id=5, rng=Rng(74))
