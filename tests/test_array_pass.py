"""A node's one forward pass, ``NodePass``, runs on the tape for a Tensor and
on plain arrays otherwise. Both must equal the tape reference built from the
nnkit primitives, bit for bit (compared with ==, never a tolerance), and
raise the errors it raises."""

import os

import numpy as np
import pytest

from degm.bounds import encoder_kl_values
from degm.data import synthetic_task
from degm.errors import ContractError, TrainingError
from degm.graph import GraphModel, knowledge_similarity
from degm.lifelong import Task, TaskStream, elbo_values
from degm.nnkit import (ACTIVATIONS, AdamState, DenseLayer, Rng, Tensor, adam_step,
                        affine_forward, backprop, kl_diag_gaussian_to_standard, no_grad)
from degm.select_eval import single_metric_table, task_metric_table

from helpers import tape_bound, tape_objective, tape_reconstruction

DIM, LATENT, HIDDEN = 64, 8, 32
# the widened weights saturate the sigmoid: exp(-x) overflows to inf, 1 / inf is 0
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def spread_graph(likelihood: str, scale: float = 0.8) -> GraphModel:
    """Two basic nodes and a specific node blending them, with weights drawn
    at ``scale``: 0.8 takes logvar to both clip bounds, 0.2 keeps every term
    of a bound of like size, so that a last-bit change in one shows."""
    g = GraphModel(DIM, LATENT, HIDDEN, likelihood)
    rng = Rng(3)
    g.add_basic_node(task_id=0, rng=rng.spawn("b0"))
    g.add_basic_node(task_id=1, rng=rng.spawn("b1"))
    g.add_specific_node(np.array([0.3, 0.7]), task_id=2, rng=rng.spawn("s0"))
    for k, tensor in enumerate(g.all_params()):
        tensor.data[...] = Rng(100 + k).normal(tensor.shape) * scale
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
        want = tape_bound(g, entry, x, eps_list)
        assert bits_equal(g.node_pass(entry, x).bound(eps_list), want)
        with no_grad():
            assert bits_equal(g.node_pass(entry, Tensor(x)).bound(eps_list).data, want)
    assert bits_equal(g.node_pass(entry, x).reconstruction(), tape_reconstruction(g, entry, x))


@pytest.mark.parametrize("likelihood", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("kind", ["basic", "specific"])
@pytest.mark.parametrize("kprime", [1, 3])
def test_an_adam_step_through_the_pass_equals_the_reference(likelihood, kind, kprime):
    def step(objective) -> tuple[list[str], bytes]:
        g = spread_graph(likelihood, 0.2)
        entry = g.entries[0 if kind == "basic" else 2]
        x = rows(37, likelihood)
        rng = Rng(4)
        eps_list = [rng.normal((37, LATENT)) for _ in range(kprime)]
        grads = backprop(-objective(g, entry, x, eps_list).mean())
        adam_step(AdamState(lr=1e-3), entry.params(), grads)
        return sorted(grads), b"".join(t.data.tobytes() for t in g.all_params())

    # equal gradient names: no gradient reaches a borrowed basic layer, as in the reference
    through_pass = step(lambda g, entry, x, eps_list:
                        g.node_pass(entry, Tensor(x)).bound(eps_list))
    assert through_pass == step(tape_objective)
    untrained = b"".join(t.data.tobytes() for t in spread_graph(likelihood, 0.2).all_params())
    assert through_pass[1] != untrained


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
    assert bits_equal(elbo_values(vae, x, eps), tape_bound(g, g.basics[1], x, [eps]))
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
    owner = {t.name: t for t in g.all_params()}[f"{layer}.W"]
    owner.data[0, 0] = np.nan
    x, eps_list = rows(5, "bernoulli"), [Rng(1).normal((1, LATENT))]
    with pytest.raises(TrainingError) as tape:
        tape_bound(g, entry, x, eps_list)
    with pytest.raises(TrainingError) as array:
        g.node_pass(entry, x).bound(eps_list)
    with pytest.raises(TrainingError) as tape_pass:
        g.node_pass(entry, Tensor(x)).bound(eps_list)
    assert (str(array.value) == str(tape_pass.value) == str(tape.value)
            == f"non-finite activation out of layer {layer!r}")


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
    with pytest.raises(ContractError) as tape_pass:
        g.node_pass(entry, Tensor(x)).bound(eps_list)
    assert (str(array.value) == str(tape_pass.value) == str(tape.value)
            == "targets must lie in [0, 1]")
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
