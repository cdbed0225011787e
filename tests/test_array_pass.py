"""A node's one forward pass, ``NodePass``, and the two-layer ``HierVae``
run on plain arrays. Their values and their closed-form gradients must equal
the tape reference built from the tape primitives (``tape``), bit for bit
(compared with ==, never a tolerance), and raise the errors it raises."""

import os

import numpy as np
import pytest

from degm.data import synthetic_task
from degm.errors import ContractError, TrainingError
from degm.graph import GraphModel, knowledge_similarity
from degm.lifelong import Task, TaskStream
from degm.nnkit import ACTIVATIONS, AdamState, DenseLayer, Rng, adam_step
from degm.select_eval import single_metric_table, task_metric_table
from degm.vae import HierVae

from helpers import (gradient_vector, tape_bound, tape_hier_objective, tape_objective,
                     tape_reconstruction)
from reference import encoder_kl_values
from tape import Tensor, affine_forward, backprop, kl_diag_gaussian_to_standard, no_grad

DIM, LATENT, HIDDEN = 64, 8, 32
# the widened weights saturate the sigmoid: exp(-x) overflows to inf, 1 / inf is 0
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


SPECIFIC_WEIGHTS = {2: [0.3, 0.7], 3: [0.2, 0.3, 0.5]}


def spread_graph(likelihood: str, scale: float = 0.8, basics: int = 2) -> GraphModel:
    """``basics`` basic nodes and a specific node blending them, with weights
    drawn at ``scale``: 0.8 takes logvar to both clip bounds, 0.2 keeps every
    term of a bound of like size, so that a last-bit change in one shows."""
    g = GraphModel(DIM, LATENT, HIDDEN, likelihood)
    rng = Rng(3)
    for b in range(basics):
        g.add_basic_node(task_id=b, rng=rng.spawn(f"b{b}"))
    g.add_specific_node(np.array(SPECIFIC_WEIGHTS[basics]), task_id=basics, rng=rng.spawn("s0"))
    for k, tensor in enumerate(g.params()):
        tensor.data[...] = Rng(100 + k).normal(tensor.data.shape) * scale
    return g


def rows(n: int, likelihood: str) -> np.ndarray:
    x = Rng(7).uniform(0.0, 1.0, (n, DIM))
    return (x < 0.4).astype(np.float64) if likelihood == "bernoulli" else x


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("n", [1, 45])
def test_dense_layer_apply_equals_the_tape(activation, n):
    layer = DenseLayer(DIM, HIDDEN, activation, Rng(11), name="probe")
    layer.bias.data[...] = Rng(12).normal(HIDDEN)
    x = Rng(13).normal((n, DIM)) * 3.0
    with no_grad():
        want = affine_forward(layer, x).data
    assert bits_equal(layer.apply(x), want)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("forward", ["apply", "tape"])
def test_one_non_finite_output_raises_and_empty_rows_pass(bad, forward):
    layer = DenseLayer(3, 5, "identity", Rng(11), name="probe")
    layer.bias.data[2] = bad  # one row in: the middle output alone is not finite
    run = layer.apply if forward == "apply" else (lambda x: affine_forward(layer, x).data)
    with pytest.raises(TrainingError, match="non-finite activation out of layer 'probe'"):
        run(np.ones((1, 3)))
    assert run(np.zeros((0, 3))).shape == (0, 5)


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("kind", ["basic", "specific"])
@pytest.mark.parametrize("kprime", [1, 2, 50])
@pytest.mark.parametrize("n", [1, 37])
@pytest.mark.parametrize("scale", [0.8, 0.2])
def test_node_bounds_and_reconstructions_equal_the_tape(likelihood, kind, kprime, n, scale):
    g = spread_graph(likelihood, scale)
    entry = g.entries[0 if kind == "basic" else 2]
    x = rows(n, likelihood)
    rng = Rng(5)
    shared = [rng.normal((1, LATENT)) for _ in range(kprime)]  # one row per draw
    per_row = [rng.normal((n, LATENT)) for _ in range(kprime)]  # one per sample
    for eps_list in (shared, per_row):
        assert bits_equal(g.node_pass(entry, x).bound(eps_list), tape_bound(g, entry, x, eps_list))
    assert bits_equal(g.node_pass(entry, x).reconstruction(), tape_reconstruction(g, entry, x))


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("kind, basics", [("basic", 2), ("specific", 2), ("specific", 3)])
@pytest.mark.parametrize("kprime", [1, 3])
@pytest.mark.parametrize("scale", [0.8, 0.2])
def test_closed_form_gradients_equal_the_tapes(likelihood, kind, basics, kprime, scale):
    g = spread_graph(likelihood, scale, basics)
    entry = g.entries[0 if kind == "basic" else basics]
    x = rows(37, likelihood)
    rng = Rng(4)
    shared = [rng.normal((1, LATENT)) for _ in range(kprime)]
    per_row = [rng.normal((37, LATENT)) for _ in range(kprime)]
    for eps_list in (shared, per_row):
        want = backprop(-tape_objective(g, entry, x, eps_list).mean())
        values, flat = g.node_pass(entry, x, train=True).bound_and_grads(eps_list)
        grads = entry.params().views(flat)
        assert bits_equal(values, tape_bound(g, entry, x, eps_list))
        # equal names: no gradient reaches a borrowed basic layer, as in the reference
        assert sorted(grads) == sorted(want) == sorted(t.name for t in entry.params())
        for name, array in want.items():
            assert bits_equal(grads[name], array), name


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("both_drawn", [True, False], ids=["two-layers", "eps2-zero"])
@pytest.mark.parametrize("scale", [0.8, 0.2])
def test_hier_closed_form_gradients_equal_the_tapes(likelihood, both_drawn, scale):
    h = HierVae(DIM, (LATENT, 4), HIDDEN, likelihood, rng=Rng(3), name="h")
    for k, tensor in enumerate(h.params()):
        tensor.data[...] = Rng(100 + k).normal(tensor.data.shape) * scale
    x = rows(37, likelihood)
    if scale == 0.8:  # the first layer's logvar past both clips, re-clipped by its log-density
        logvar = h.node_pass(x).posteriors[0].logvar
        assert (logvar == -10.0).any() and (logvar == 10.0).any()
    [(eps, eps2)] = h.node_pass(x).draws(Rng(4))
    if not both_drawn:  # a bare eps: the second draw at zero
        eps2 = None
    draw = eps if eps2 is None else (eps, eps2)
    want = backprop(-tape_hier_objective(h, x, eps, eps2).mean())
    values, flat = h.node_pass(x, train=True).bound_and_grads([draw])
    grads = h.params().views(flat)
    with no_grad():
        assert bits_equal(values, tape_hier_objective(h, x, eps, eps2).data)
        evaluated = tape_hier_objective(h, x, eps[:1]).data  # the second draw at zero
    assert bits_equal(h.node_pass(x).bound([draw]), values)
    assert bits_equal(h.node_pass(x).bound([eps[:1]]), evaluated)
    assert sorted(grads) == sorted(want)
    for name, array in grads.items():
        assert bits_equal(array, want[name]), name


@pytest.mark.parametrize("kind", ["basic", "specific"])
@pytest.mark.parametrize("kprime", [1, 3])
def test_a_training_pass_writes_its_gradients_into_one_vector(kind, kprime):
    g = spread_graph("bernoulli", 0.2)
    entry = g.entries[0 if kind == "basic" else 2]
    x = rows(37, "bernoulli")
    eps_list = [Rng(4).normal((37, LATENT)) for _ in range(kprime)]
    flat = g.node_pass(entry, x, train=True).bound_and_grads(eps_list)[1]
    params = entry.params()
    assert flat.shape == params.flat.shape and flat.flags["C_CONTIGUOUS"]
    assert not np.shares_memory(flat, params.flat)
    want = backprop(-tape_objective(g, entry, x, eps_list).mean())
    assert flat.tobytes() == b"".join(want[t.name].tobytes() for t in params)


def test_only_a_training_pass_gives_gradients():
    g = spread_graph("bernoulli")
    x, eps_list = rows(5, "bernoulli"), [Rng(1).normal((1, LATENT))]
    with pytest.raises(ContractError, match="train=True"):
        g.node_pass(g.entries[2], x).bound_and_grads(eps_list)


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("kind", ["basic", "specific"])
@pytest.mark.parametrize("kprime", [1, 3])
def test_an_adam_step_through_the_pass_equals_the_reference(likelihood, kind, kprime):
    def step(grads_at) -> tuple[list[str], bytes]:
        g = spread_graph(likelihood, 0.2)
        entry = g.entries[0 if kind == "basic" else 2]
        x = rows(37, likelihood)
        rng = Rng(4)
        eps_list = [rng.normal((37, LATENT)) for _ in range(kprime)]
        grads = grads_at(g, entry, x, eps_list)
        if isinstance(grads, dict):  # the tape's, by name
            names, grads = sorted(grads), gradient_vector(entry.params(), grads)
        else:
            names = sorted(entry.params().views(grads))
        adam_step(AdamState(lr=1e-3), entry.params(), grads)
        return names, b"".join(t.data.tobytes() for t in g.params())

    # equal gradient names: no gradient reaches a borrowed basic layer, as in the reference
    reference = step(lambda g, entry, x, eps_list:
                     backprop(-tape_objective(g, entry, x, eps_list).mean()))
    assert step(lambda g, entry, x, eps_list: g.node_pass(entry, x, train=True)
                .bound_and_grads(eps_list)[1]) == reference
    untrained = b"".join(t.data.tobytes() for t in spread_graph(likelihood, 0.2).params())
    assert reference[1] != untrained


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("scale", [0.8, 0.2])
def test_component_passes_equal_the_tape(likelihood, scale):
    g = spread_graph(likelihood, scale)
    vae = g.basics[1].vae
    x = rows(23, likelihood)
    eps = Rng(6).normal((1, LATENT))
    with no_grad():
        h = affine_forward(vae.enc_lower, x)
        kl = kl_diag_gaussian_to_standard(affine_forward(vae.enc_mu, h),
                                          affine_forward(vae.enc_logvar, h)).data
        z = Rng(8).normal((9, LATENT))
        decoded = affine_forward(vae.dec_upper, affine_forward(vae.dec_lower, z)).data
    assert bits_equal(encoder_kl_values(vae, x), kl)
    assert bits_equal(vae.node_pass(x).bound([eps]), tape_bound(g, g.basics[1], x, [eps]))
    assert bits_equal(vae.reconstruct(x), tape_reconstruction(g, g.basics[1], x))
    generated = vae.generate(9, Rng(8))
    want = Rng(8)
    want.normal((9, LATENT))
    expected = want.bernoulli(decoded) if likelihood == "bernoulli" else decoded
    assert bits_equal(generated, expected)
    g.basics[1].reference_elbo = -3.0
    assert knowledge_similarity(g.basics[1], x, Rng(9)) == abs(
        -3.0 - float(tape_bound(g, g.basics[1], x, [Rng(9).normal((1, LATENT))]).mean()))


@pytest.mark.parametrize("kind, layer", [("basic", "b0.enc_lower"), ("basic", "b0.dec_upper"),
                                         ("specific", "s0.enc_lower_new"),
                                         ("specific", "b1.enc_logvar"),
                                         ("specific", "s0.dec_upper_new")])
def test_a_non_finite_activation_raises_the_tapes_error(kind, layer):
    g = spread_graph("bernoulli")
    entry = g.entries[0 if kind == "basic" else 2]
    owner = {t.name: t for t in g.params()}[f"{layer}.W"]
    owner.data[0, 0] = np.nan
    x, eps_list = rows(5, "bernoulli"), [Rng(1).normal((1, LATENT))]
    with pytest.raises(TrainingError) as tape:
        tape_bound(g, entry, x, eps_list)
    with pytest.raises(TrainingError) as array:
        g.node_pass(entry, x).bound(eps_list)
    assert str(array.value) == str(tape.value) == f"non-finite activation out of layer {layer!r}"


@pytest.mark.parametrize("kind", ["basic", "specific"])
def test_out_of_range_targets_raise_the_tapes_error(kind):
    g = spread_graph("bernoulli")
    entry = g.entries[0 if kind == "basic" else 2]
    x = rows(4, "bernoulli")
    x[2, 3] = 1.5
    eps_list = [Rng(1).normal((1, LATENT))] * 2
    with pytest.raises(ContractError) as tape:
        tape_bound(g, entry, x, eps_list)
    with pytest.raises(ContractError) as array:
        g.node_pass(entry, x).bound(eps_list)
    assert str(array.value) == str(tape.value) == "targets must lie in [0, 1]"
    # a reconstruction reads no likelihood, on the tape or off it
    assert bits_equal(g.node_pass(entry, x).reconstruction(), tape_reconstruction(g, entry, x))


def test_metric_tables_construct_no_tensor(monkeypatch):
    kinds = ("half-active-top", "half-active-bottom", "bars")
    stream = TaskStream([Task(f"{kind}-{i}", synthetic_task(kind, 10, DIM, Rng(20 + i)),
                              synthetic_task(kind, 12, DIM, Rng(30 + i)))
                         for i, kind in enumerate(kinds)])
    g = spread_graph("bernoulli")

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Tensor was constructed")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(Tensor, "__init__", refuse)
    with pytest.raises(AssertionError, match="a Tensor was constructed"):
        tape_bound(g, g.entries[2], stream.tasks[0].test.data, [np.zeros((1, LATENT))])
    assert len(task_metric_table(g, stream, kprime=50, k_eval=2)) == 3
    assert len(single_metric_table(g.basics[0].vae, stream, kprime=3)) == 3
