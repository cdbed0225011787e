"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. The statistical criteria (2, 3, 6, 7, 8, 9, 10 and 12)
are written once in `criteria.py`: each test here asserts its criterion at
seed 0, the committed inputs, and `scripts/calibrate_acceptance.py` runs the
same checks at 8 other seeds and tables their margins.
"""

import time

import numpy as np

from degm.cli import cmd_export_v
from degm.data import load_idx, save_idx_images
from degm.graph import GraphModel, edge_weights
from degm.lifelong import ABLATIONS, TaskStream, TrainConfig, run_degm
from degm.nnkit import Rng
from degm.persist import load_checkpoint, save_checkpoint
from degm.vae import HierVae, VaeComponent

from criteria import (binary_data, criterion_2, criterion_3, criterion_6, criterion_7, criterion_8,
                      criterion_9, criterion_10, criterion_12, make_task)
from helpers import finite_difference_grads, integers, max_rel_err
from reference import eval_nll


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def passed(checks) -> bool:
    return all(c.passed for c in checks)


# ---------------------------------------------------------------- criteria

def test_criterion_1_gradient_suite():
    start = time.time()
    worst = 0.0
    # interior-valued inputs keep pre-activations off the leaky-relu kink,
    # where central differences straddle the corner and disagree with the
    # (correct) one-sided analytic gradient
    x = Rng(2).uniform(0.05, 0.95, (3, 6))
    eps_bank = [Rng(3).spawn(f"e:{i}").normal((3, 3)) for i in range(3)]

    def closed_form_err(make_pass, params, eps_list, rows=x) -> float:
        # training's closed-form backward against central differences of -mean bound
        analytic = params.views(make_pass(rows, train=True).bound_and_grads(eps_list)[1])
        numeric = finite_difference_grads(lambda: -make_pass(rows).bound(eps_list).mean(),
                                          params)
        assert sorted(analytic) == sorted(numeric)
        return max_rel_err(analytic, numeric)

    def graph(likelihood: str) -> GraphModel:
        g = GraphModel(6, 3, 12, likelihood)
        g.add_basic_node(0, rng=Rng(4))
        g.add_basic_node(1, rng=Rng(5))
        g.add_specific_node(np.array([0.4, 0.6]), 2, rng=Rng(6))
        return g

    for likelihood in ("bernoulli", "gaussian"):
        c = VaeComponent(6, 3, 12, likelihood=likelihood, rng=Rng(1), name="c")
        for eps_list in (eps_bank[:1], eps_bank):
            worst = max(worst, closed_form_err(c.node_pass, c.params(), eps_list))
        g = graph(likelihood)
        s = g.specifics[0]
        for eps_list in (eps_bank[:1], eps_bank[:2]):
            worst = max(worst, closed_form_err(lambda rows, train=False: g.node_pass(s, rows, train),
                                               s.params(), eps_list))

    # where the masks act: a logvar past its clip at -10, and decoder outputs
    # past the 1e-6 probability clip on both sides, toward targets at the
    # interior bounds, so that the clipped terms stay small
    rows = x.copy()
    rows[:, :2] = (0.95, 0.05)
    c = VaeComponent(6, 3, 12, rng=Rng(1), name="c")
    g = graph("bernoulli")
    s = g.specifics[0]
    for logvar, output in ((c.enc_logvar, c.dec_upper), (g.basics[0].vae.enc_logvar, s.dec_upper_new)):
        logvar.bias.data[0] = -15.0
        output.bias.data[:2] = (25.0, -25.0)
    for make_pass, params in ((c.node_pass, c.params()),
                              (lambda rows, train=False: g.node_pass(s, rows, train), s.params())):
        node_pass = make_pass(rows)
        out = node_pass.decode(node_pass.sample(eps_bank[0]))
        assert (node_pass.posteriors[0].logvar == -10.0).any()
        assert (out < 1e-6).any() and (out > 1.0 - 1e-6).any()
        for eps_list in (eps_bank[:1], eps_bank):
            worst = max(worst, closed_form_err(make_pass, params, eps_list, rows))
    # past +10 the KL adds e^10 / 2 per sample, more than central differences
    # resolve at 1e-4, so there the gradient is checked to be exactly zero
    c.enc_logvar.bias.data[1] = 15.0
    assert (c.node_pass(x).posteriors[0].logvar[:, 1] == 10.0).all()
    grads = c.params().views(c.node_pass(x, train=True).bound_and_grads(eps_bank)[1])
    assert grads["c.enc_logvar.b"][1] == 0.0 and not grads["c.enc_logvar.W"][1].any()

    # the two-layer model's closed-form backward
    h = HierVae(6, latent_dims=(3, 2), hidden_dim=12, rng=Rng(7), name="h")
    eps2 = Rng(8).normal((3, 2))
    draw = (eps_bank[0], eps2)
    analytic = h.params().views(h.node_pass(x, train=True).bound_and_grads([draw])[1])
    numeric = finite_difference_grads(lambda: -h.node_pass(x).bound([draw]).mean(), h.params())
    assert sorted(analytic) == sorted(numeric)
    worst = max(worst, max_rel_err(analytic, numeric))

    elapsed = time.time() - start
    report(1, "gradients match finite differences (rel err < 1e-4, < 10 s)",
           worst < 1e-4 and elapsed < 10.0, f"worst={worst:.2e} time={elapsed:.1f}s")


def test_criterion_2_bound_ordering():
    exact, *diffs = checks = criterion_2(0)
    report(2, "weighted bound non-decreasing in K', K'=1 equals the ELBO", passed(checks),
           "; ".join([f"exact K'=1: {exact.passed}"]
                     + [f"{c.name}: mean={c.value:.4f} 3SE={-c.threshold:.4f}" for c in diffs]))


def test_criterion_3_mixture_bound_validity():
    identity, _ = checks = criterion_3(0)
    report(3, "mixture bound: identity degeneration to 1e-9, below IW-1000 + 3SE",
           passed(checks), f"identity gap={identity.value:.1e}")


def test_criterion_4_expansion_behaviour():
    same = [make_task("bars-a", "bars", 40, 240, 120, 36),
            make_task("bars-b", "bars", 42, 240, 120, 36)]
    disjoint = [make_task("top", "half-active-top", 44, 240, 120, 36),
                make_task("bottom", "half-active-bottom", 46, 240, 120, 36)]

    # calibrate tau from the scores the first trained node actually produces
    def calibrated_run(tasks, widen):
        probe_cfg = TrainConfig(epochs=8, batch=32, lr=2e-3, tau=1.0, probe_size=100,
                                latent_dim=4, hidden_dim=16)
        graph, _ = run_degm(TaskStream(tasks[:1]), probe_cfg, Rng(4))
        probe = tasks[1].train.data[:100]
        ks = graph.knowledge_scores(probe, Rng(4).spawn(f"ks:{tasks[1].name}"))
        tau = float(ks.min()) * widen
        cfg = TrainConfig(epochs=8, batch=32, lr=2e-3, tau=tau, probe_size=100,
                          latent_dim=4, hidden_dim=16)
        out, _ = run_degm(TaskStream(tasks), cfg, Rng(4))
        return [e.kind for e in out.entries]

    same_kinds = calibrated_run(same, widen=2.0)       # generous tau, ks clears it
    disjoint_kinds = calibrated_run(disjoint, widen=0.5)  # tight tau, ks exceeds it
    repeat = calibrated_run(disjoint, widen=0.5)
    ok = (same_kinds == ["basic", "specific"]
          and disjoint_kinds == ["basic", "basic"]
          and repeat == disjoint_kinds)
    report(4, "expansion: similar->specific, disjoint->basic, first always basic",
           ok, f"same={same_kinds} disjoint={disjoint_kinds}")


def test_criterion_5_edge_weights():
    exact = np.array_equal(edge_weights(np.array([1.0, 3.0])), [0.75, 0.25])
    uniform = np.allclose(edge_weights(np.full(4, 2.0)), 0.25, atol=1e-12)
    single = np.array_equal(edge_weights(np.array([9.0])), [1.0])
    g = GraphModel(8, 2, 4, tau=1.0)
    rng = Rng(50)
    for i in range(2):
        g.add_basic_node(i, rng=rng.spawn(f"i:{i}"))
    g.add_specific_node(np.array([0.3, 0.7]), 2, rng=rng.spawn("s"))
    simplex = True
    for policy, _ in ABLATIONS.values():
        pi = policy(np.array([0.4, 1.7]), g)
        simplex = simplex and abs(pi.sum() - 1.0) <= 1e-9 and (pi >= 0.0).all()
    report(5, "edge weights: worked example exact, degenerate cases, simplex everywhere",
           exact and uniform and single and simplex)


def test_criterion_6_forgetting_reproduction():
    forgets, elapsed = checks = criterion_6(0)
    report(6, "replay model strictly forgets task 1 over the stream (< 15 min)", passed(checks),
           f"risk {forgets.threshold:.4f} -> {forgets.value:.4f}, {elapsed.value:.0f}s")


def test_criterion_7_no_forgetting_invariant():
    report(7, "graph run: frozen node bytes, exactly constant per-task risk, "
           "logged rows equal to recomputation from the final graph", passed(criterion_7(0)))


def test_criterion_8_ordering_reproduction():
    _, mean = checks = criterion_8(0)
    report(8, "graph model beats the replay baseline on IW-50 NLL (> 2 SE, 3 seeds)",
           passed(checks), f"mean diff={mean.value:.2f} 2SE={mean.threshold:.2f}")


def test_criterion_9_selection_accuracy():
    checks = criterion_9(0)
    report(9, "selection picks the right component on held-out samples (>= 95%)",
           passed(checks), f"accuracies={[f'{c.value:.3f}' for c in checks]}")


def test_criterion_10_bounds_diagnostics():
    checks = criterion_10(0)
    growth = [c for c in checks if c.name.startswith("disc end")]
    ends = [growth[0].threshold] + [c.value for c in growth]
    unbalanced = next(c.value for c in checks if c.name == "unbalanced KL gap")
    report(10, "bound diagnostics: zero self-disc, closed KL gap, growing disc, valid slack",
           passed(checks), f"disc ends={['%.4f' % v for v in ends]}, "
                           f"unbalanced KL gap={unbalanced:.2e}")


def test_criterion_11_persistence(tmp_path):
    g = GraphModel(16, 3, 8, tau=1.0)
    rng = Rng(80)
    for i in range(3):
        g.add_basic_node(i, rng=rng.spawn(f"i:{i}"))
        g.basics[i].reference_elbo = -4.0
    g.add_specific_node(np.array([0.2, 0.5, 0.3]), 3, rng=rng.spawn("s"))
    x = binary_data(81, 50, 16)
    before = eval_nll(g, x, kprime=5, seed=3)
    save_checkpoint(str(tmp_path / "ckpt"), g)
    _, loaded, _ = load_checkpoint(str(tmp_path / "ckpt"))
    round_trip_ok = eval_nll(loaded, x, kprime=5, seed=3) == before

    data = integers(Rng(82), 0, 256, (4, 16)).astype(np.float64) / 255.0
    save_idx_images(str(tmp_path / "img.idx"), data, 4, 4)
    idx_ok = np.array_equal(load_idx(str(tmp_path / "img.idx")).data, data)

    cmd_export_v(str(tmp_path / "ckpt"), str(tmp_path / "v.csv"))
    lines = (tmp_path / "v.csv").read_text().strip().splitlines()
    rows = [line.split(",")[1:] for line in lines[1:]]
    basic_ok = all(float(v) == 0.0 for r in rows[:3] for v in r)
    specific_ok = abs(sum(float(v) for v in rows[3]) - 1.0) <= 1e-9
    report(11, "checkpoint and IDX round-trips bitwise, V export rows well-formed",
           round_trip_ok and idx_ok and basic_ok and specific_ok)


def test_criterion_12_order_robustness():
    order, seed, gr = checks = criterion_12(0)
    report(12, "forced-basics runs are order-invariant within the seed envelope", passed(checks),
           f"order spread={order.value:.2e} seed spread={seed.value:.2e} "
           f"gr order spread={gr.value:.2e}")
