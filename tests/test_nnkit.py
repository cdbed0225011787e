"""Likelihood primitives and reparameterisation on the tape reference, Adam,
the RNG contract, the rewritten pointwise ops and the allocator thresholds."""

import ctypes
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import degm
from degm.errors import ContractError, DimensionError, TrainingError
from degm.nnkit import AdamState, DenseLayer, Param, ParamVector, Rng, adam_step

from degm.graph import GraphModel
from degm.vae import HierVae, VaeComponent

from helpers import (analytic_grads, finite_difference_grads, gradient_vector, max_rel_err,
                     reference_adam_step, vector_views)
from tape import (
    Tensor,
    affine,
    affine_forward,
    backprop,
    bernoulli_log_likelihood,
    gaussian_log_likelihood,
    kl_diag_gaussian_to_standard,
    logmeanexp,
    no_grad,
    parameter,
    reparameterize,
)

finite_rows = arrays(
    np.float64, (1, 6),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)


# --- KL -----------------------------------------------------------------------

def test_kl_zero_at_standard_normal():
    kl = kl_diag_gaussian_to_standard(Tensor(np.zeros((1, 4))), Tensor(np.zeros((1, 4))))
    assert kl.data[0] == 0.0


def test_kl_closed_form_value():
    # mu=1, logvar=0: 0.5 * (1 + 1 - 1 - 0) = 0.5
    kl = kl_diag_gaussian_to_standard(Tensor([[1.0]]), Tensor([[0.0]]))
    assert kl.data[0] == pytest.approx(0.5, abs=1e-12)


@given(mu=finite_rows, logvar=finite_rows)
@settings(max_examples=200, deadline=None)
def test_kl_nonnegative(mu, logvar):
    kl = kl_diag_gaussian_to_standard(Tensor(mu), Tensor(logvar))
    assert kl.data[0] >= 0.0


def test_kl_zero_only_at_standard_normal():
    kl = kl_diag_gaussian_to_standard(Tensor([[0.1, 0.0]]), Tensor([[0.0, 0.0]]))
    assert kl.data[0] > 0.0


# --- Gaussian likelihood --------------------------------------------------------

def test_gaussian_ll_at_mean_default_sigma():
    # sigma = 1/sqrt(2) makes 2 pi sigma^2 = pi, so the value is -log(pi)/2
    x = np.array([[0.7]])
    ll = gaussian_log_likelihood(x, Tensor(x.copy()))
    assert ll.data[0] == pytest.approx(-0.5 * np.log(np.pi), abs=1e-12)


def test_gaussian_ll_unit_residual():
    ll = gaussian_log_likelihood(np.array([[1.0]]), Tensor([[0.0]]))
    assert ll.data[0] == pytest.approx(-1.0 - 0.5 * np.log(np.pi), abs=1e-12)


def test_gaussian_ll_monotone_in_residual():
    x = np.zeros((1, 3))
    near = gaussian_log_likelihood(x, Tensor([[0.5, 0.0, 0.0]]))
    far = gaussian_log_likelihood(x, Tensor([[np.sqrt(2) * 0.5, 0.0, 0.0]]))
    assert far.data[0] < near.data[0]


def test_gaussian_ll_rejects_bad_sigma():
    with pytest.raises(ContractError):
        gaussian_log_likelihood(np.zeros((1, 1)), Tensor(np.zeros((1, 1))), sigma=0.0)


def test_gaussian_ll_upper_bound():
    # bound is -(d/2) log(2 pi sigma^2), attained at x = mu
    rng = Rng(5)
    x = rng.normal((8, 4))
    mu = rng.normal((8, 4))
    bound = -0.5 * 4 * np.log(np.pi)
    assert np.all(gaussian_log_likelihood(x, Tensor(mu)).data <= bound + 1e-12)


# --- Bernoulli likelihood --------------------------------------------------------

def test_bernoulli_ll_near_certain_hit():
    ll = bernoulli_log_likelihood(np.array([[1.0]]), Tensor([[1.0 - 1e-6]]))
    assert ll.data[0] == pytest.approx(np.log(1.0 - 1e-6), rel=1e-9)
    assert ll.data[0] < 0.0


def test_bernoulli_ll_coin_flip_value():
    ll = bernoulli_log_likelihood(np.array([[1.0, 0.0]]), Tensor([[0.5, 0.5]]))
    assert ll.data[0] == pytest.approx(2.0 * np.log(0.5), abs=1e-12)


def test_bernoulli_ll_maximised_at_target():
    x = np.array([[0.3, 0.8]])
    at_target = bernoulli_log_likelihood(x, Tensor(x.copy())).data[0]
    for p in ([[0.2, 0.8]], [[0.3, 0.9]], [[0.5, 0.5]]):
        assert bernoulli_log_likelihood(x, Tensor(p)).data[0] < at_target


def test_bernoulli_ll_rejects_out_of_range():
    with pytest.raises(ContractError):
        bernoulli_log_likelihood(np.array([[1.5]]), Tensor([[0.5]]))
    with pytest.raises(ContractError):
        bernoulli_log_likelihood(np.array([[1.0]]), Tensor([[1.5]]))


@given(x=arrays(np.float64, (1, 4), elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
       p=arrays(np.float64, (1, 4), elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)))
@settings(max_examples=200, deadline=None)
def test_bernoulli_ll_never_positive(x, p):
    assert bernoulli_log_likelihood(x, Tensor(p)).data[0] <= 0.0


# --- reparameterisation ------------------------------------------------------------

def test_reparameterize_collapses_at_clamped_logvar():
    mu = np.array([[0.4, -0.2]])
    z = reparameterize(Tensor(mu), Tensor(np.full((1, 2), -1e9)), eps=np.ones((1, 2)))
    # logvar clamps at -10, std = exp(-5) ~ 6.7e-3
    np.testing.assert_allclose(z.data, mu, atol=0.05)


def test_reparameterize_passthrough():
    z = reparameterize(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 2))),
                       eps=np.array([[1.0, -1.0]]))
    np.testing.assert_array_equal(z.data, [[1.0, -1.0]])


def test_reparameterize_monte_carlo_mean():
    rng = Rng(11)
    draws = reparameterize(Tensor(np.full((100_000, 1), 2.0)),
                           Tensor(np.zeros((100_000, 1))), rng=rng)
    assert abs(draws.data.mean() - 2.0) < 0.02


def test_reparameterize_shape_mismatch():
    with pytest.raises(DimensionError):
        reparameterize(Tensor(np.zeros((1, 2))), Tensor(np.zeros((1, 3))), eps=np.zeros((1, 2)))


def test_reparameterize_gradient():
    rng = Rng(2)
    mu = parameter(rng.normal((2, 3)), "mu")
    lv = parameter(rng.normal((2, 3)) * 0.1, "lv")
    eps = rng.normal((2, 3))

    def loss():
        return reparameterize(mu, lv, eps=eps).square().sum()

    ana = analytic_grads(loss, [mu, lv])
    num = finite_difference_grads(loss, [mu, lv])
    assert max_rel_err(ana, num) < 1e-6


# --- logmeanexp --------------------------------------------------------------------

def test_logmeanexp_equal_entries_is_identity():
    v = Tensor(np.array([-3.0, 1.5]))
    out = logmeanexp([v, Tensor(v.data.copy()), Tensor(v.data.copy())])
    np.testing.assert_allclose(out.data, v.data, atol=1e-12)


def test_logmeanexp_matches_numpy_reference():
    rng = Rng(4)
    vals = [Tensor(rng.normal(5)) for _ in range(7)]
    out = logmeanexp(vals)
    stack = np.stack([v.data for v in vals])
    ref = np.log(np.exp(stack).mean(axis=0))
    np.testing.assert_allclose(out.data, ref, rtol=1e-10)


# --- Adam -----------------------------------------------------------------------------

def test_adam_zero_gradient_is_fixed_point():
    p = Param("p", np.array([1.0, -2.0]))
    before = p.data.copy()
    params = ParamVector([p])
    adam_step(AdamState(lr=0.1), params, gradient_vector(params, {"p": np.zeros(2)}))
    np.testing.assert_array_equal(p.data, before)


def test_adam_first_step_is_signed_lr():
    # bias correction makes mhat = g, vhat = g^2, so the step is lr * sign(g)
    p = Param("p", np.array([1.0, 1.0]))
    g = np.array([0.3, -0.7])
    params = ParamVector([p])
    adam_step(AdamState(lr=0.1), params, gradient_vector(params, {"p": g}))
    np.testing.assert_allclose(p.data, [1.0 - 0.1, 1.0 + 0.1], atol=1e-7)


def test_adam_deterministic_across_runs():
    def run():
        rng = Rng(99)
        layer = DenseLayer(3, 2, "sigmoid", rng, name="l")
        params = ParamVector(layer.params())
        state = AdamState(lr=1e-3)
        x = rng.normal((4, 3))
        for _ in range(10):
            grads = backprop(affine_forward(layer, x).square().sum())
            adam_step(state, params, gradient_vector(params, grads))
        return layer.weight.data.copy(), layer.bias.data.copy()

    w1, b1 = run()
    w2, b2 = run()
    assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


def test_adam_rejects_nan_gradient():
    params = ParamVector([Param("enc.W", np.ones(2))])
    with pytest.raises(TrainingError, match="enc.W"):
        adam_step(AdamState(), params, gradient_vector(params, {"enc.W": np.array([np.nan, 0.0])}))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("lr", [1e-3, 0.0])
@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_adam_names_an_infinite_gradient_and_an_overflowing_update(bad, lr):
    params = ParamVector([Param("enc.W", np.ones(2))])
    with pytest.raises(TrainingError, match="NaN or inf gradient for parameter 'enc.W'"):
        adam_step(AdamState(lr=lr), params, gradient_vector(params, {"enc.W": np.array([bad, 0.0])}))
    # a finite gradient whose update leaves the float range names the parameter too
    params = ParamVector([Param("dec.b", np.full(2, 1.7e308))])
    with pytest.raises(TrainingError, match="non-finite value in parameter 'dec.b' after update"):
        adam_step(AdamState(lr=1e308), params,
                  gradient_vector(params, {"dec.b": np.array([-1.0, 0.0])}))


def test_adam_takes_only_a_param_vector_and_its_gradient_vector():
    p = Param("p", np.ones(2))
    params = ParamVector([p])
    for args in (([p], np.zeros(2)), (params, {"p": np.zeros(2)}), (params, np.zeros(3))):
        with pytest.raises(ContractError, match="ParamVector"):
            adam_step(AdamState(), *args)
    assert p.data.tolist() == [1.0, 1.0]
    for tensors in ([Param(None, np.ones(2))], [p, Param("p", np.ones(1))]):
        with pytest.raises(TrainingError, match="must be named, each name once"):
            ParamVector(tensors)


# --- the flat parameter vector and the fused Adam step ----------------------------------

def flat_model(kind: str):
    """A model of ``kind`` and a function giving its gradient vector on rows
    ``x`` from draws of ``rng``."""
    if kind == "basic":
        vae = VaeComponent(6, 3, 12, rng=Rng(1), name="c")
        return vae, lambda x, rng: vae.node_pass(x, train=True).bound_and_grads(
            [rng.normal((x.shape[0], 3))])[1]
    if kind == "specific":
        g = GraphModel(6, 3, 12)
        g.add_basic_node(0, rng=Rng(4))
        g.add_basic_node(1, rng=Rng(5))
        g.add_specific_node(np.array([0.4, 0.6]), 2, rng=Rng(6))
        s = g.specifics[0]
        return s, lambda x, rng: g.node_pass(s, x, train=True).bound_and_grads(
            [rng.normal((x.shape[0], 3)) for _ in range(2)])[1]
    h = HierVae(6, latent_dims=(3, 2), hidden_dim=12, rng=Rng(7), name="h")
    return h, lambda x, rng: h.bound_and_grads(x, *h.draws(rng, x.shape[0]))[1]


@pytest.mark.parametrize("kind", ["basic", "specific", "hier"])
def test_the_fused_step_equals_the_per_tensor_reference(kind):
    fused, grads_of = flat_model(kind)
    reference, _ = flat_model(kind)
    params = fused.params()
    state, ref_state = AdamState(lr=1e-2), {}
    x, rng = Rng(2).uniform(0.05, 0.95, (9, 6)), Rng(3)
    skipped = params[3].name
    for step in range(6):
        grads = grads_of(x, rng)
        assert isinstance(grads, np.ndarray) and grads.shape == params.flat.shape
        named = params.views(grads)
        if step % 2:  # by name, one parameter without a gradient
            named = {name: g.copy() for name, g in named.items() if name != skipped}
            grads = gradient_vector(params, named)
        reference_adam_step(ref_state, reference.params(), named, lr=1e-2)
        adam_step(state, params, grads)
        assert params.flat.tobytes() == b"".join(
            t.data.tobytes() for t in reference.params()), step
    assert state.step == 6 and len(params) == len(reference.params())


@pytest.mark.parametrize("kind", ["basic", "specific", "hier"])
def test_every_tensor_is_a_view_of_its_owners_vector(kind):
    model, grads_of = flat_model(kind)
    assert vector_views(model)
    adam_step(AdamState(lr=1e-2), model.params(), grads_of(Rng(2).uniform(0.05, 0.95, (9, 6)),
                                                           Rng(3)))
    assert vector_views(model)  # the step wrote through the views
    if kind == "hier":  # the base's vector is the prefix of the model's
        assert vector_views(model.base)
        assert np.shares_memory(model.base.params().flat, model.params().flat)


@pytest.mark.parametrize("kind", ["basic", "specific", "hier"])
def test_an_unpickled_model_has_its_tensors_bound_to_its_new_vector(kind):
    model, _ = flat_model(kind)
    copy = pickle.loads(pickle.dumps(model))
    assert vector_views(copy) and copy.params().flat.tobytes() == model.params().flat.tobytes()
    assert not np.shares_memory(copy.params().flat, model.params().flat)
    if kind == "hier":
        assert vector_views(copy.base)
        assert np.shares_memory(copy.base.params().flat, copy.params().flat)


@pytest.mark.filterwarnings("ignore:overflow encountered in subtract:RuntimeWarning")
def test_a_non_finite_gradient_or_update_names_its_tensor():
    vae = VaeComponent(6, 3, 12, rng=Rng(1), name="c")
    params = vae.params()
    third, last = params[2].name, params[-1].name
    grads = gradient_vector(params, {})
    # its first entry: the boundary with the second tensor
    params.views(grads)[third].reshape(-1)[0] = np.nan
    with pytest.raises(TrainingError, match=f"NaN or inf gradient for parameter {third!r}"):
        adam_step(AdamState(lr=1e-3), params, grads)
    vae = VaeComponent(6, 3, 12, rng=Rng(1), name="c")
    params = vae.params()
    params[-1].data.reshape(-1)[0] = 1.7e308
    grads = gradient_vector(params, {last: np.full(params[-1].data.shape, -1.0)})
    with pytest.raises(TrainingError, match=f"non-finite value in parameter {last!r} after update"):
        adam_step(AdamState(lr=1e308), params, grads)


# --- RNG ---------------------------------------------------------------------------------

def test_rng_same_seed_same_stream():
    a, b = Rng(123), Rng(123)
    assert np.array_equal(a.normal((3, 3)), b.normal((3, 3)))
    assert np.array_equal(a.permutation(10), b.permutation(10))


def test_rng_spawn_depends_only_on_seed_and_key():
    a = Rng(5)
    a.normal((100,))  # advance the parent stream
    b = Rng(5)
    assert np.array_equal(a.spawn("task:x").normal(4), b.spawn("task:x").normal(4))
    assert not np.array_equal(b.spawn("task:x").normal(4), b.spawn("task:y").normal(4))


def test_rng_bernoulli_range():
    draws = Rng(1).bernoulli(np.full(1000, 0.3))
    assert set(np.unique(draws)) <= {0.0, 1.0}
    assert 0.2 < draws.mean() < 0.4


# --- rewritten ops against their former formulas -------------------------------------------
# The old expressions are kept here verbatim; values and gradients must match bit for bit.

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 2.5, -2.5,
                     1e-300, -1e-300, 5e-324, -5e-324])
SLOPES = (0.0, 0.01, 0.3, 1.0)


def _op_inputs() -> np.ndarray:
    block = Rng(21).normal((8, 11)) * 4.0
    return np.concatenate([SPECIALS[None, :], -SPECIALS[None, :], block])


def _assert_bits_equal(actual, expected):
    actual = np.ascontiguousarray(actual, dtype=np.float64)
    expected = np.ascontiguousarray(expected, dtype=np.float64)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


def _value_and_grad(op, x: np.ndarray, upstream: np.ndarray):
    """op's value with and without recording, and dL/dx for L = sum(op(x) * upstream)."""
    with no_grad():
        plain = op(parameter(x, "x"))
    assert plain._parents == ()
    t = parameter(x, "x")
    out = op(t)
    grads = backprop((out * upstream).sum())
    return plain.data, out.data, grads["x"]


@pytest.mark.parametrize("slope", SLOPES)
def test_leaky_relu_bit_identical_to_where_formula(slope):
    x = _op_inputs()
    upstream = Rng(22).normal(x.shape)
    with np.errstate(invalid="ignore"):
        old_mask = np.where(x > 0, 1.0, slope)
        old_value = x * old_mask
        plain, recorded, grad = _value_and_grad(lambda t: t.leaky_relu(slope), x, upstream)
    _assert_bits_equal(plain, old_value)
    _assert_bits_equal(recorded, old_value)
    _assert_bits_equal(grad, upstream * old_mask)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
def test_leaky_relu_gradient_mask_equals_where_mask(slope):
    # with a unit upstream gradient, dL/dx is the mask (x > 0) * (1 - slope) + slope
    x = _op_inputs()
    with np.errstate(invalid="ignore"):
        _, _, grad = _value_and_grad(lambda t: t.leaky_relu(slope), x, np.ones(x.shape))
    _assert_bits_equal(grad, np.where(x > 0, 1.0, slope))


@pytest.mark.parametrize("slope", [-0.01, -1.0, 1.5, np.inf, np.nan])
def test_leaky_relu_rejects_slope_outside_unit_interval(slope):
    with pytest.raises(ContractError, match="slope"):
        Tensor(np.ones(3)).leaky_relu(slope)


def test_sigmoid_bit_identical_to_reciprocal_formula():
    x = _op_inputs()
    upstream = Rng(23).normal(x.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        old_value = 1 / (1 + np.exp(-x))
        old_grad = upstream * old_value * (1.0 - old_value)
        plain, recorded, grad = _value_and_grad(lambda t: t.sigmoid(), x, upstream)
    _assert_bits_equal(plain, old_value)
    _assert_bits_equal(recorded, old_value)
    _assert_bits_equal(grad, old_grad)


def test_affine_bit_identical_to_matmul_plus_bias():
    rng = Rng(24)
    x = np.concatenate([_op_inputs()[:, :7], rng.normal((40, 7))])
    w, b = rng.normal((5, 7)), rng.normal(5)
    b[:2] = [np.inf, -0.0]
    upstream = rng.normal((x.shape[0], 5))
    with np.errstate(invalid="ignore"):
        old_value = x @ w.T + b
        with no_grad():
            plain = affine(Tensor(x), parameter(w, "W"), parameter(b, "b"))
        tx, tw, tb = parameter(x, "x"), parameter(w, "W"), parameter(b, "b")
        out = affine(tx, tw, tb)
        grads = backprop((out * upstream).sum())
        old_grads = {"x": upstream @ w, "W": upstream.T @ x, "b": upstream.sum(axis=0)}
    assert plain._parents == ()
    _assert_bits_equal(plain.data, old_value)
    _assert_bits_equal(out.data, old_value)
    for name, expected in old_grads.items():
        _assert_bits_equal(grads[name], expected)


# --- allocator thresholds -------------------------------------------------------------------

FAULT_PROBE = """
import resource
import numpy as np
from degm.graph import GraphModel
from degm.nnkit import AdamState, Rng, adam_step

rng = Rng(0)
graph = GraphModel(64, 32, 200, "bernoulli", tau=15.0)
graph.add_basic_node(0, rng.spawn("b0"))
graph.add_basic_node(1, rng.spawn("b1"))
node = graph.entries[graph.add_specific_node(np.array([0.6, 0.4]), 2, rng.spawn("s"))]
params, state = node.params(), AdamState(lr=1e-3)
data = (rng.uniform(0.0, 1.0, (300, 64)) > 0.5).astype(np.float64)

def step(i):
    x = data[64 * (i % 4):64 * (i % 4) + 64]
    node_pass = graph.node_pass(node, x, train=True)
    adam_step(state, params, node_pass.bound_and_grads(node_pass.draws(rng))[1])

for i in range(5):
    step(i)
evaluation = graph.node_pass(node, data)  # an epoch-end evaluation
evaluation.bound([rng.normal((1, 32))])
evaluation.reconstruction()
step(0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for i in range(20):
    step(i)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_training_steps_reuse_resident_memory():
    # a fresh process: an earlier test may already have raised glibc's thresholds
    if not hasattr(ctypes.CDLL(None), "mallopt"):
        pytest.skip("mallopt is not available on this platform")
    src = os.path.dirname(os.path.dirname(os.path.abspath(degm.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    faults_per_step = float(done.stdout.split()[-1])
    assert faults_per_step < 50, faults_per_step
