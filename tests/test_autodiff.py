"""Contracts of the tape reference (``tape``) and its dense layer, checked
against finite differences."""

import ast
import glob
import os

import numpy as np
import pytest

import degm

from degm.errors import ContractError, DimensionError
from degm.nnkit import DenseLayer, Param, Rng

from helpers import analytic_grads, finite_difference_grads, max_rel_err, tape_pass_objective
from tape import Tensor, affine_forward, backprop, no_grad, parameter


def test_affine_identity_case():
    layer = DenseLayer(2, 2, "identity", name="l")
    layer.weight.data[:] = np.eye(2)
    y = affine_forward(layer, np.array([[1.0, 2.0]]))
    assert np.array_equal(y.data, [[1.0, 2.0]])


def test_affine_zero_weight_bias_passthrough():
    layer = DenseLayer(1, 1, "identity", name="l")
    layer.bias.data[:] = 3.0
    y = affine_forward(layer, np.array([[5.0]]))
    assert np.array_equal(y.data, [[3.0]])


def test_affine_shape_mismatch():
    layer = DenseLayer(3, 2, "identity", Rng(0), name="l")
    with pytest.raises(DimensionError):
        affine_forward(layer, np.zeros((4, 5)))


def test_affine_sigmoid_gradient_matches_finite_differences():
    rng = Rng(7)
    layer = DenseLayer(4, 3, "sigmoid", rng, name="l")
    x = rng.normal((2, 4))

    def loss():
        return affine_forward(layer, x).sum()

    ana = analytic_grads(loss, layer.params())
    num = finite_difference_grads(loss, layer.params())
    assert max_rel_err(ana, num) < 1e-6


def test_backprop_linear_case_gradient_is_input():
    # loss = sum(x @ W.T) with x fixed: dLoss/dW_ij = sum_b x[b, j]
    rng = Rng(1)
    w = Param("W", rng.normal((3, 4)))
    b = Param("b", np.zeros(3))
    x = rng.normal((5, 4))
    layer = DenseLayer(4, 3, "identity", name="l")
    layer.weight, layer.bias = w, b
    grads = backprop(affine_forward(layer, x).sum())
    expected = np.tile(x.sum(axis=0), (3, 1))
    np.testing.assert_allclose(grads["W"], expected, rtol=1e-12)


def test_backprop_stationary_point_of_squared_distance():
    x = np.array([[0.3, -1.2, 0.5]])
    mu = parameter(x.copy(), "mu")
    loss = (mu - x).square().sum()
    grads = backprop(loss)
    np.testing.assert_array_equal(grads["mu"], np.zeros_like(x))


def test_backprop_two_layer_net_matches_finite_differences():
    rng = Rng(3)
    l1 = DenseLayer(5, 4, "leaky-relu", rng, name="l1")
    l2 = DenseLayer(4, 2, "sigmoid", rng, name="l2")
    x = rng.normal((3, 5))
    params = l1.params() + l2.params()

    def loss():
        return affine_forward(l2, affine_forward(l1, x)).square().sum()

    ana = analytic_grads(loss, params)
    num = finite_difference_grads(loss, params)
    assert max_rel_err(ana, num) < 1e-6


def test_backprop_rejects_non_scalar_loss():
    w = parameter(np.ones((2, 2)), "W")
    with pytest.raises(ContractError):
        backprop(w * 2.0)


def test_backprop_consumes_tape():
    w = parameter(np.ones(3), "W")
    loss = (w * w).sum()
    backprop(loss)
    with pytest.raises(ContractError):
        backprop(loss)


def test_no_grad_blocks_recording():
    w = parameter(np.ones(3), "W")
    with no_grad():
        loss = (w * 2.0).sum()
    assert loss._parents == ()
    assert not loss.requires_grad


def test_clip_gradient_gates_at_bounds():
    v = parameter(np.array([[-20.0, 0.5, 20.0]]), "v")
    grads = backprop(v.clip(-10.0, 10.0).sum())
    np.testing.assert_array_equal(grads["v"], [[0.0, 1.0, 0.0]])


def test_broadcast_gradient_reduces_correctly():
    b = parameter(np.array([1.0, 2.0]), "b")
    x = Tensor(np.ones((4, 2)))
    grads = backprop((x + b).sum())
    np.testing.assert_array_equal(grads["b"], [4.0, 4.0])


# --- backprop stores first gradients uncopied; pinned to the copying version ------------------

def reference_backprop(loss: Tensor) -> dict:
    """backprop as it was while it copied every first gradient, kept verbatim."""
    if loss.shape != ():
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if loss._consumed:
        raise ContractError("tape already consumed by a previous backprop")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.asarray(1.0)}
    result: dict[str, np.ndarray] = {}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and not node._parents:
            name = node.name if node.name is not None else f"unnamed@{id(node):x}"
            if name in result:
                result[name] = result[name] + g
            else:
                result[name] = np.array(g, dtype=np.float64, copy=True)
            node.grad = result[name]
        for parent, vjp in node._parents:
            pg = vjp(g)
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = np.array(pg, dtype=np.float64, copy=True)
        node._parents = ()
        node._consumed = True
    return result


def _drawn_objective(node_pass, rng, k=1):
    """The tape's bound of a pass over ``k`` draws from ``rng``, as training takes them."""
    return tape_pass_objective(node_pass, node_pass.draws(rng, k))


def _vae_elbo_loss(likelihood):
    from degm.vae import VaeComponent

    model = VaeComponent(16, 3, 8, likelihood, rng=Rng(40), name="vae")
    x = (Rng(41).uniform(0, 1, (12, 16)) < 0.4).astype(np.float64)
    return lambda: -_drawn_objective(model.node_pass(x), Rng(42)).mean()


def _specific_melbo_loss():
    from degm.graph import GraphModel

    g = GraphModel(16, 3, 8, tau=1.0)
    for i in range(2):
        g.add_basic_node(task_id=i, rng=Rng(43 + i))
    g.add_specific_node(np.array([0.3, 0.7]), task_id=2, rng=Rng(45))
    x = (Rng(46).uniform(0, 1, (12, 16)) < 0.4).astype(np.float64)
    return lambda: -_drawn_objective(g.node_pass(g.specifics[0], x), Rng(47)).mean()


def _iwelbo_loss():
    from degm.vae import VaeComponent

    model = VaeComponent(16, 3, 8, rng=Rng(48), name="iw")
    x = (Rng(49).uniform(0, 1, (12, 16)) < 0.4).astype(np.float64)
    return lambda: -_drawn_objective(model.node_pass(x), Rng(50), 3).mean()


@pytest.mark.parametrize("build", [lambda: _vae_elbo_loss("bernoulli"),
                                   lambda: _vae_elbo_loss("gaussian"),
                                   _specific_melbo_loss, _iwelbo_loss],
                         ids=["vae-elbo-bernoulli", "vae-elbo-gaussian", "specific-melbo",
                              "iwelbo-k3"])
def test_backprop_bit_equal_to_copying_reference(build):
    loss = build()
    got, want = backprop(loss()), reference_backprop(loss())
    assert sorted(got) == sorted(want) and len(got) >= 4
    for name, value in want.items():
        assert got[name].dtype == np.float64 and got[name].shape == value.shape, name
        assert got[name].tobytes() == value.tobytes(), name


def test_backprop_leaf_gradients_are_read_only():
    # an identity VJP hands one array to both leaves of a sum
    a = parameter(np.ones(3), "a")
    b = parameter(np.ones(3), "b")
    grads = backprop((a + b).sum())
    assert np.shares_memory(grads["a"], grads["b"])
    for name in ("a", "b"):
        assert not grads[name].flags.writeable
        with pytest.raises(ValueError):
            grads[name][0] = 5.0
    np.testing.assert_array_equal(grads["a"], [1.0, 1.0, 1.0])
    assert a.grad is grads["a"]


# --- the tape stays out of the package ---------------------------------------------------

TAPE_NAMES = {"Tensor", "backprop", "no_grad", "affine_forward"}


def tape_uses(source: str) -> list[str]:
    """Each definition or import of a tape name in ``source``, and each call of
    ``grad_enabled``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
            names += [(alias.asname or "") for alias in node.names]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            found += [f"line {node.lineno}: calls grad_enabled"] if called == "grad_enabled" else []
            continue
        else:
            continue
        found += [f"line {node.lineno}: {name}" for name in names if name in TAPE_NAMES]
    return found


def test_no_module_of_the_package_defines_imports_or_reads_the_tape():
    root = os.path.dirname(degm.__file__)
    paths = sorted(glob.glob(os.path.join(root, "**", "*.py"), recursive=True))
    assert len(paths) >= 10
    uses = {os.path.relpath(p, root): tape_uses(open(p).read()) for p in paths}
    assert {path: found for path, found in uses.items() if found} == {}
    # the check sees each form it refuses
    assert len(tape_uses("from .autodiff import Tensor\nimport x.backprop\n"
                         "def no_grad(): pass\naffine_forward = 1\nnnkit.grad_enabled()\n")) == 5
