"""Selection rule and metric properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from degm.data import synthetic_task
from degm.errors import ContractError, DimensionError
from degm.graph import GraphModel
from degm.lifelong import Task, TaskStream, TrainConfig, run_degm
from degm.nnkit import DiagGaussian, Rng
from degm.select_eval import (
    SelectionResult,
    eval_nll,
    eval_nll_single,
    psnr,
    reconstruction_metrics,
    select_component,
    square_loss,
    ssim,
    task_metric_table,
)

from helpers import tape_bound, train_elbo_steps

DIM, LATENT, HIDDEN = 16, 3, 8


def graph_with(n_basics, seed=0):
    g = GraphModel(DIM, LATENT, HIDDEN)
    rng = Rng(seed)
    for i in range(n_basics):
        g.add_basic_node(task_id=i, rng=rng.spawn(f"i:{i}"))
    return g


def binary_data(seed, n, dim=DIM):
    return (Rng(seed).uniform(0, 1, (n, dim)) < 0.4).astype(np.float64)


# --- selection --------------------------------------------------------------------

def test_single_node_selection():
    g = graph_with(1)
    result = select_component(g, binary_data(1, 3))
    np.testing.assert_array_equal(result.chosen, [0, 0, 0])
    np.testing.assert_array_equal(result.posterior, np.ones((3, 1)))


def test_selection_computes_each_posteriors_kl_once_whatever_k_eval(monkeypatch):
    g = graph_with(2, seed=5)
    g.add_specific_node(np.array([0.3, 0.7]), task_id=2, rng=Rng(6))
    kl, calls = DiagGaussian.kl, []

    def counted(self):
        calls.append(self)
        return kl(self)

    monkeypatch.setattr(DiagGaussian, "kl", counted)
    counts = []
    for k_eval in (1, 4):
        calls.clear()
        select_component(g, binary_data(3, 7), k_eval=k_eval)
        counts.append(len(calls))
    assert counts == [4, 4]  # one posterior per basic node, two for the specific node


def test_equal_nodes_tie_breaks_to_lowest_index():
    g = graph_with(2, seed=4)
    # make node 1 a bit-exact clone of node 0
    for a, b in zip(g.basics[1].vae.params(), g.basics[0].vae.params()):
        a.data[:] = b.data
    result = select_component(g, binary_data(2, 5))
    np.testing.assert_allclose(result.posterior, np.full((5, 2), 0.5), atol=1e-12)
    np.testing.assert_array_equal(result.chosen, np.zeros(5, dtype=int))


def test_selection_rejects_empty_graph():
    g = GraphModel(DIM, LATENT, HIDDEN)
    with pytest.raises(ContractError):
        select_component(g, binary_data(0, 2))


def test_selection_accuracy_on_separated_tasks():
    top = synthetic_task("half-active-top", 300, DIM, Rng(10))
    bottom = synthetic_task("half-active-bottom", 300, DIM, Rng(11))
    g = graph_with(2, seed=12)
    train_elbo_steps(g.basics[0].vae, top.data, steps=250, lr=5e-3, seed=13)
    train_elbo_steps(g.basics[1].vae, bottom.data, steps=250, lr=5e-3, seed=14)
    held_top = synthetic_task("half-active-top", 200, DIM, Rng(15)).data
    held_bottom = synthetic_task("half-active-bottom", 200, DIM, Rng(16)).data
    acc_top = (select_component(g, held_top).chosen == 0).mean()
    acc_bottom = (select_component(g, held_bottom).chosen == 1).mean()
    assert acc_top >= 0.95 and acc_bottom >= 0.95


@given(shift=st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=50, deadline=None)
def test_posterior_shift_invariance(shift):
    scores = np.array([[1.0, 2.0, 0.5]])
    def soft(s):
        w = np.exp(s - s.max(axis=1, keepdims=True))
        return w / w.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(soft(scores), soft(scores + shift), atol=1e-12)


def test_chosen_invariant_under_monotone_rescale():
    g = graph_with(2, seed=20)
    x = binary_data(21, 8)
    base = select_component(g, x)
    rescaled = SelectionResult(chosen=np.argmax(3.0 * base.scores + 7.0, axis=1),
                               scores=base.scores, posterior=base.posterior)
    np.testing.assert_array_equal(base.chosen, rescaled.chosen)


# --- NLL estimator -----------------------------------------------------------------

def test_eval_nll_kprime_one_equals_selected_bounds():
    g = graph_with(2, seed=30)
    x = binary_data(31, 20)
    nll = eval_nll(g, x, kprime=1, seed=5)
    selection = select_component(g, x, seed=5)
    eps = Rng(5).spawn("nll:0").normal((1, LATENT))
    manual = []
    values = {j: g.node_pass(e, x).bound([eps]) for j, e in enumerate(g.entries)}
    for b in range(20):
        manual.append(-values[selection.chosen[b]][b])
    assert nll == pytest.approx(float(np.mean(manual)), abs=1e-12)


def test_eval_nll_tightens_with_kprime():
    g = graph_with(1, seed=32)
    data = binary_data(33, 200)
    train_elbo_steps(g.basics[0].vae, data, steps=200, lr=5e-3, seed=34)
    x = binary_data(35, 400)
    n1 = eval_nll(g, x, kprime=1, seed=6)
    n50 = eval_nll(g, x, kprime=50, seed=6)
    # K'=50 is the tighter (smaller) NLL estimate up to Monte-Carlo noise
    assert n50 <= n1 + 0.5


def test_eval_nll_permutation_invariant():
    g = graph_with(2, seed=36)
    x = binary_data(37, 50)
    perm = Rng(38).permutation(50)
    assert eval_nll(g, x, kprime=3, seed=7) == pytest.approx(
        eval_nll(g, x[perm], kprime=3, seed=7), abs=1e-10)


def test_eval_nll_single_matches_component_bound():
    g = graph_with(1, seed=39)
    x = binary_data(40, 10)
    nll = eval_nll_single(g.basics[0].vae, x, kprime=2, seed=8)
    rng = Rng(8)
    eps = [rng.spawn("nll:0").normal((1, LATENT)), rng.spawn("nll:1").normal((1, LATENT))]
    expected = float(-tape_bound(g, g.basics[0], x, eps).mean())
    assert nll == pytest.approx(expected, abs=1e-12)


# --- metrics ---------------------------------------------------------------------------

def test_square_loss_examples():
    assert square_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == 1.0
    assert square_loss(np.zeros(4), np.zeros(4)) == 0.0
    with pytest.raises(DimensionError):
        square_loss(np.zeros(3), np.zeros(4))


def test_identity_reconstruction_metrics():
    x = Rng(41).uniform(0, 1, (64,))
    assert square_loss(x, x) == 0.0
    assert psnr(x, x) == 99.0
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_psnr_decreases_with_mse():
    x = np.zeros(100)
    assert psnr(x, x + 0.1) > psnr(x, x + 0.2) > psnr(x, x + 0.4)


def test_psnr_rejects_bad_max():
    with pytest.raises(ContractError):
        psnr(np.zeros(4), np.zeros(4), max_val=0.0)


def test_ssim_symmetry():
    a = Rng(42).uniform(0, 1, (64,))
    b = Rng(43).uniform(0, 1, (64,))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_penalises_constant_shift():
    a = np.full(64, 0.4)
    b = np.full(64, 0.7)
    assert ssim(a, b) < 1.0


def test_ssim_windowed_path_on_images():
    side = 12  # larger than the 8x8 window, so the sliding path runs
    a = Rng(44).uniform(0, 1, (side * side,))
    assert ssim(a, a) == pytest.approx(1.0, abs=1e-12)
    assert -1.0 <= ssim(a, 1.0 - a) <= 1.0


@given(arrays(np.float64, 16, elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
       arrays(np.float64, 16, elements=st.floats(min_value=0.0, max_value=1.0, allow_nan=False)))
@settings(max_examples=100, deadline=None)
def test_ssim_bounded(a, b):
    value = ssim(a, b)
    assert -1.0 <= value <= 1.0 + 1e-12


# The per-row loop that reconstruction_metrics replaced, kept verbatim (it
# scored one row at a time through these three functions) as the reference
# the row-vectorized version must match bit for bit.

def _ref_square_loss(x, recon):
    return float(((x - recon) ** 2).sum())


def _ref_psnr(x, recon, max_val=1.0):
    mse = float(((x - recon) ** 2).mean())
    if mse < 1e-12:
        return 99.0
    return 10.0 * np.log10(max_val * max_val / mse)


def _ref_ssim_window(a, b, c1, c2):
    mu_a, mu_b = a.mean(), b.mean()
    var_a, var_b = a.var(), b.var()
    cov = ((a - mu_a) * (b - mu_b)).mean()
    lum = (2.0 * mu_a * mu_b + c1) / (mu_a ** 2 + mu_b ** 2 + c1)
    struct = (2.0 * cov + c2) / (var_a + var_b + c2)
    return lum * struct


def _ref_ssim(x, recon, window=8, stride=4, max_val=1.0):
    x, recon = np.asarray(x, dtype=np.float64).ravel(), np.asarray(recon, dtype=np.float64).ravel()
    c1 = (0.01 * max_val) ** 2
    c2 = (0.03 * max_val) ** 2
    side = int(round(np.sqrt(x.size)))
    if side * side != x.size or side < window:
        return _ref_ssim_window(x, recon, c1, c2)
    a = x.reshape(side, side)
    b = recon.reshape(side, side)
    values = []
    for r in range(0, side - window + 1, stride):
        for c in range(0, side - window + 1, stride):
            values.append(_ref_ssim_window(a[r:r + window, c:c + window],
                                           b[r:r + window, c:c + window], c1, c2))
    return float(np.mean(values))


def _ref_reconstruction_metrics(x, recon, max_val=1.0):
    sls, psnrs, ssims = [], [], []
    for row_x, row_r in zip(x, recon):
        sls.append(_ref_square_loss(row_x, row_r))
        psnrs.append(_ref_psnr(row_x, row_r, max_val))
        ssims.append(_ref_ssim(row_x, row_r, max_val=max_val))
    return float(np.mean(sls)), float(np.mean(psnrs)), float(np.mean(ssims))


@pytest.mark.parametrize("n,dim", [
    (300, 64),     # 8x8: one window, the benchmark's shape
    (1000, 64),
    (200, 784),    # 28x28: 36 strided windows
    (200, 144),    # 12x12: 4 windows
    (200, 100),    # 10x10: one strided window
    (200, 50),     # not square: the flat path
])
def test_reconstruction_metrics_match_per_row_loop(n, dim):
    rng = Rng(60 + dim)
    x = (rng.uniform(0, 1, (n, dim)) < 0.4).astype(np.float64)
    recon = rng.uniform(0, 1, (n, dim))
    recon[::5] = x[::5]  # exact matches hit the PSNR cap
    assert reconstruction_metrics(x, recon) == _ref_reconstruction_metrics(x, recon)
    smooth = rng.uniform(0, 1, (n, dim))  # non-binary rows make every sum inexact
    assert reconstruction_metrics(smooth, recon) == _ref_reconstruction_metrics(smooth, recon)
    for row_x, row_r in zip(smooth[:50], recon[:50]):
        assert ssim(row_x, row_r) == _ref_ssim(row_x, row_r)
        assert psnr(row_x, row_r) == _ref_psnr(row_x, row_r)


def test_reconstruction_metrics_keep_scalar_square_rounding():
    # one-pixel rows: each row's mean is the pixel itself, so picking pixels
    # whose float64 ** 2 (libm pow) differs from v * v pins that rounding
    values = Rng(62).uniform(0, 1, 20000)
    odd = np.array([v for v in values if np.float64(v) ** 2 != v * v])[:, None]
    other = Rng(63).uniform(0, 1, odd.shape)
    assert reconstruction_metrics(odd, other) == _ref_reconstruction_metrics(odd, other)
    for a, b in zip(odd, other):
        assert ssim(a, b) == _ref_ssim(a, b)


def test_reconstruction_metrics_psnr_cap_on_exact_match():
    x = Rng(61).uniform(0, 1, (10, 64))
    assert reconstruction_metrics(x, x) == (0.0, 99.0, _ref_reconstruction_metrics(x, x)[2])


def test_task_metric_table_shape():
    top = synthetic_task("half-active-top", 60, DIM, Rng(50))
    bottom = synthetic_task("half-active-bottom", 60, DIM, Rng(51))
    stream = TaskStream([
        Task("top", top, synthetic_task("half-active-top", 30, DIM, Rng(52))),
        Task("bottom", bottom, synthetic_task("half-active-bottom", 30, DIM, Rng(53))),
    ])
    cfg = TrainConfig(epochs=4, batch=16, lr=2e-3, tau=1.0, probe_size=40,
                      latent_dim=LATENT, hidden_dim=HIDDEN)
    graph, _ = run_degm(stream, cfg, Rng(54))
    rows = task_metric_table(graph, stream, kprime=2, seed=9)
    assert [r["task"] for r in rows] == ["top", "bottom"]
    for r in rows:
        assert np.isfinite(r["nll"]) and r["sl"] >= 0.0 and r["ssim"] <= 1.0
        assert sum(int(c) for c in r["chosen_hist"].split("|")) == 30


def test_task_metric_table_nll_equals_eval_nll():
    stream = TaskStream([
        Task("top", synthetic_task("half-active-top", 60, DIM, Rng(55)),
             synthetic_task("half-active-top", 30, DIM, Rng(56))),
        Task("bars", synthetic_task("bars", 60, DIM, Rng(57)),
             synthetic_task("bars", 30, DIM, Rng(58))),
    ])
    cfg = TrainConfig(epochs=3, batch=16, lr=2e-3, tau=1e9, probe_size=40,
                      latent_dim=LATENT, hidden_dim=HIDDEN)
    graph, _ = run_degm(stream, cfg, Rng(59))
    assert [e.kind for e in graph.entries] == ["basic", "specific"]
    rows = task_metric_table(graph, stream, kprime=3, seed=4)
    assert all("0" not in r["chosen_hist"].split("|") for r in rows)  # both nodes score rows
    for row, task in zip(rows, stream.tasks):
        assert row["nll"] == eval_nll(graph, task.test.data, kprime=3, seed=4)  # bitwise
