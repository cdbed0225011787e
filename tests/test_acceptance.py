"""Acceptance suite: one test per exit criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they pass. Heavy runs are module-scoped fixtures shared between
criteria; thresholds marked "calibrated" were measured once at these seeds
and asserted with slack (see scripts/calibrate_acceptance.py).
"""

import time

import numpy as np
import pytest

from degm.bounds import bounds_run
from degm.cli import cmd_export_v
from degm.data import load_idx, save_idx_images, synthetic_task, transform
from degm.graph import GraphModel, edge_weights
from degm.lifelong import (
    Task,
    TaskStream,
    TrainConfig,
    ablation_edge_policy,
    accumulated_final_risk,
    run_degm,
    run_gr_single,
)
from degm.nnkit import Rng
from degm.persist import load_checkpoint, save_checkpoint
from degm.select_eval import select_component
from degm.vae import HierVae, VaeComponent

from helpers import (
    composite_component,
    drawn_bound,
    finite_difference_grads,
    max_rel_err,
    owner_entry,
    parameter_bytes,
    single_draw_elbo,
    tape_bound,
    tape_reconstruction,
    train_elbo_steps,
)
from reference import (encoder_kl_values, estimate_discrepancy, estimate_kl_gap, eval_nll,
                       eval_nll_single)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def binary_data(seed, n, dim):
    return (Rng(seed).uniform(0, 1, (n, dim)) < 0.4).astype(np.float64)


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def forgetting_stream():
    # downsampled-image scale: 14x14 inputs, 2000 train samples per task,
    # three tasks whose supports collide (base pattern, inverted, rotated)
    dim, n_train, n_test = 196, 2000, 500
    tasks = [Task("bars", synthetic_task("bars", n_train, dim, Rng(100)),
                  synthetic_task("bars", n_test, dim, Rng(101)))]
    for name, tf, seed in (("inverted", "invert", 102), ("rotated", "rotate90", 104)):
        tr = transform(synthetic_task("bars", n_train, dim, Rng(seed)), tf)
        te = transform(synthetic_task("bars", n_test, dim, Rng(seed + 1)), tf)
        tasks.append(Task(name, tr, te))
    return TaskStream(tasks)


@pytest.fixture(scope="module")
def forgetting_cfg():
    return TrainConfig(epochs=30, batch=64, lr=1e-3, tau=0.0, probe_size=200,
                       latent_dim=16, hidden_dim=64)


@pytest.fixture(scope="module")
def gr_forgetting(forgetting_stream, forgetting_cfg):
    start = time.time()
    _, log, _ = run_gr_single(forgetting_stream, forgetting_cfg, Rng(0))
    return log, time.time() - start


@pytest.fixture(scope="module")
def degm_noforget(forgetting_stream, forgetting_cfg):
    graph, log = run_degm(forgetting_stream, forgetting_cfg, Rng(0))
    return graph, log


@pytest.fixture(scope="module")
def reduced_stream():
    dim = 64
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 800, dim, Rng(seed)),
                    synthetic_task(kind, 300, dim, Rng(seed + 1)))
    return TaskStream([mk("half-active-top", "top", 200),
                       mk("half-active-bottom", "bottom", 202),
                       mk("bars", "bars", 204)])


@pytest.fixture(scope="module")
def bounds_fixture():
    dim = 64
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 400, dim, Rng(seed)),
                    synthetic_task(kind, 200, dim, Rng(seed + 1)))
    stream = TaskStream([mk("half-active-top", "top", 300),
                         mk("half-active-bottom", "bottom", 302),
                         mk("bars", "bars", 304)])
    cfg = TrainConfig(epochs=6, batch=64, lr=2e-3, tau=0.5, probe_size=100,
                      latent_dim=8, hidden_dim=48, likelihood="gaussian")
    return stream, cfg, bounds_run(stream, cfg, Rng(0), sample_size=400, aux_epochs=6)


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
    dim, latent = 6, 2
    c = VaeComponent(dim, latent, 8, rng=Rng(20), name="toy")
    train_elbo_steps(c, binary_data(21, 256, dim), steps=200, lr=5e-3, seed=0)
    x = binary_data(22, 10_000, dim)
    eps_bank = [Rng(23).spawn(f"d:{i}").normal((1, latent)) for i in range(50)]
    node_pass = c.node_pass(x)
    el = single_draw_elbo(node_pass, eps_bank[0])
    iw1 = node_pass.bound(eps_bank[:1])
    iw5 = node_pass.bound(eps_bank[:5])
    iw50 = node_pass.bound(eps_bank)
    exact = np.array_equal(iw1, el)
    ok = exact
    detail = [f"exact K'=1: {exact}"]
    for lo, hi, tag in ((iw1, iw5, "5v1"), (iw5, iw50, "50v5")):
        diff = hi - lo
        se = diff.std(ddof=1) / np.sqrt(diff.size)
        ok = ok and diff.mean() >= -3.0 * se
        detail.append(f"{tag}: mean={diff.mean():.4f} 3SE={3 * se:.4f}")
    report(2, "weighted bound non-decreasing in K', K'=1 equals the ELBO", ok,
           "; ".join(detail))


def test_criterion_3_mixture_bound_validity():
    dim, latent, hidden = 6, 3, 6
    g = GraphModel(dim, latent, hidden)
    g.add_basic_node(0, rng=Rng(30))
    g.add_specific_node(np.array([1.0]), 1, rng=Rng(31))
    s = g.specifics[0]
    # wide-identity initialisation of the node's own layers
    s.enc_lower_new.weight.data[:] = np.eye(hidden, dim)
    s.enc_lower_new.bias.data[:] = 0.0
    s.dec_upper_new.weight.data[:] = np.eye(dim, hidden)
    s.dec_upper_new.bias.data[:] = 0.0
    x = binary_data(32, 8, dim)
    eps = Rng(33).normal((8, latent))
    composite = composite_component(g, s, 0)
    gap = float(np.max(np.abs(g.node_pass(s, x).bound([eps])
                              - composite.node_pass(x).bound([eps]))))
    identity_ok = gap <= 1e-9

    data = binary_data(34, 200, dim)
    train_elbo_steps(g.basics[0].vae, data, steps=150, lr=5e-3, seed=1)
    from degm.nnkit import AdamState, adam_step
    state, rng = AdamState(lr=5e-3), Rng(35)
    for _ in range(150):
        node_pass = g.node_pass(s, data[rng.integers(0, 200, size=32)], train=True)
        adam_step(state, s.params(), node_pass.bound_and_grads(node_pass.draws(rng))[1])
    xe = data[:64]
    draw_rng = Rng(36)
    node_pass = g.node_pass(s, xe)
    draws = np.stack([drawn_bound(node_pass, draw_rng) for _ in range(50)])
    iw = drawn_bound(node_pass, Rng(37), 1000)
    se = draws.std(ddof=1, axis=0) / np.sqrt(draws.shape[0])
    bound_ok = bool(np.all(draws.mean(axis=0) <= iw + 3.0 * se + 1e-9))
    report(3, "mixture bound: identity degeneration to 1e-9, below IW-1000 + 3SE",
           identity_ok and bound_ok, f"identity gap={gap:.1e}")


def test_criterion_4_expansion_behaviour():
    dim = 36
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 240, dim, Rng(seed)),
                    synthetic_task(kind, 120, dim, Rng(seed + 1)))
    same = [mk("bars", "bars-a", 40), mk("bars", "bars-b", 42)]
    disjoint = [mk("half-active-top", "top", 44), mk("half-active-bottom", "bottom", 46)]

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
    for name in ("degm-4", "degm-5", "degm-6", "degm-7"):
        pi = ablation_edge_policy(name)(np.array([0.4, 1.7]), g)
        simplex = simplex and abs(pi.sum() - 1.0) <= 1e-9 and (pi >= 0.0).all()
    report(5, "edge weights: worked example exact, degenerate cases, simplex everywhere",
           exact and uniform and single and simplex)


def test_criterion_6_forgetting_reproduction(gr_forgetting):
    log, elapsed = gr_forgetting
    after_t1 = log.query(task_index=1, eval_task=1)[-1]["square_loss"]
    after_t3 = log.query(task_index=3, eval_task=1)[-1]["square_loss"]
    report(6, "replay model strictly forgets task 1 over the stream (< 15 min)",
           after_t3 > after_t1 and elapsed < 900.0,
           f"risk {after_t1:.4f} -> {after_t3:.4f}, {elapsed:.0f}s")


def test_criterion_7_no_forgetting_invariant(forgetting_stream, forgetting_cfg, degm_noforget):
    graph, log = degm_noforget
    # bit-identical parameters: a prefix run reproduces node 1 exactly, so any
    # drift during later tasks would show up against the full run
    prefix_graph, _ = run_degm(TaskStream(forgetting_stream.tasks[:1]),
                               forgetting_cfg, Rng(0))
    frozen = (parameter_bytes(graph.basics[0].vae)
              == parameter_bytes(prefix_graph.basics[0].vae))
    constant = True
    for t in (1, 2):
        end_value = log.query(task_index=t, eval_task=t)[-1]["square_loss"]
        later = {r["square_loss"] for r in log.rows
                 if r["eval_task"] == t and r["task_index"] > t}
        constant = constant and later <= {end_value}
    # frozen rows are logged once and repeated, so also recompute them from the
    # final graph's parameters: a frozen node that drifted would differ here
    recomputed = True
    final_task = len(forgetting_stream)
    for t in (1, 2):
        task = forgetting_stream.tasks[t - 1]
        entry = owner_entry(graph, t - 1)
        eps = Rng(0).spawn(f"eval:{task.name}").normal((1, forgetting_cfg.latent_dim))
        # through the tape reference: the logged rows come from the array pass
        values = tape_bound(graph, entry, task.test.data, [eps])
        recon = tape_reconstruction(graph, entry, task.test.data)
        logged = log.query(task_index=final_task, eval_task=t)[-1]
        recomputed = (recomputed
                      and logged["objective_value"] == float(values.mean())
                      and logged["square_loss"]
                      == float(((task.test.data - recon) ** 2).sum(axis=1).mean()))
    report(7, "graph run: frozen node bytes, exactly constant per-task risk, "
           "logged rows equal to recomputation from the final graph",
           frozen and constant and recomputed)


def test_criterion_8_ordering_reproduction(reduced_stream):
    diffs = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(epochs=12, batch=64, lr=2e-3, tau=0.5, probe_size=200,
                          latent_dim=8, hidden_dim=48, seed=seed)
        graph, _ = run_degm(reduced_stream, cfg, Rng(seed))
        gr_model, _, _ = run_gr_single(reduced_stream, cfg, Rng(seed))
        union = np.concatenate([t.test.data for t in reduced_stream.tasks])
        diffs.append(eval_nll_single(gr_model, union, kprime=50, seed=seed)
                     - eval_nll(graph, union, kprime=50, seed=seed))
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    ok = bool((diffs > 0).all() and diffs.mean() > 2.0 * se)
    report(8, "graph model beats the replay baseline on IW-50 NLL (> 2 SE, 3 seeds)",
           ok, f"mean diff={diffs.mean():.2f} 2SE={2 * se:.2f}")


def test_criterion_9_selection_accuracy():
    dim = 36
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 300, dim, Rng(seed)),
                    synthetic_task(kind, 200, dim, Rng(seed + 1)))
    stream = TaskStream([mk("half-active-top", "top", 60),
                         mk("half-active-bottom", "bottom", 62)])
    cfg = TrainConfig(epochs=10, batch=32, lr=2e-3, tau=0.0, probe_size=100,
                      latent_dim=4, hidden_dim=16)
    graph, _ = run_degm(stream, cfg, Rng(5))
    accs = []
    for t, task in enumerate(stream.tasks):
        chosen = select_component(graph, task.test.data).chosen
        accs.append(float((chosen == t).mean()))  # node t owns task t here
    ok = all(a >= 0.95 for a in accs)
    report(9, "selection picks the right component on held-out samples (>= 95%)",
           ok, f"accuracies={[f'{a:.3f}' for a in accs]}")


def test_criterion_10_bounds_diagnostics(bounds_fixture):
    stream, cfg, out = bounds_fixture
    # (a) identical sample sets give exactly zero discrepancy
    hset = {"a": VaeComponent(8, 2, 4, rng=Rng(70), name="a"),
            "b": VaeComponent(8, 2, 4, rng=Rng(71), name="b")}
    p = binary_data(72, 40, 8)
    zero_ok = estimate_discrepancy(p, p.copy(), hset) == 0.0
    # (b) balanced union of targets closes the KL gap
    model = VaeComponent(8, 2, 4, rng=Rng(73), name="m")
    targets = [binary_data(74, 60, 8), binary_data(75, 60, 8)]
    gap = estimate_kl_gap(model, targets, np.concatenate(targets))
    values = encoder_kl_values(model, np.concatenate(targets))
    gap_ok = gap <= 3.0 * values.std(ddof=1) / np.sqrt(values.size)
    # (c) discrepancy lower bound grows across task boundaries
    ends = [r.disc_lower_bound for r in out.rows if r.epoch == cfg.epochs]
    trend_ok = all(ends[i] <= ends[i + 1] for i in range(len(ends) - 1))
    # (d) slack of the first-task bound check stays above -3 SE
    slacks = [r.slack for r in out.rows if r.task_t == 1]
    test_data = stream.tasks[0].test.data
    eps = Rng(0).spawn("bounds:eval").normal((1, cfg.latent_dim))
    per_sample = -out.gr_model.node_pass(test_data).bound([eps])
    se = per_sample.std(ddof=1) / np.sqrt(per_sample.size)
    slack_ok = all(v >= -3.0 * se for v in slacks)
    report(10, "bound diagnostics: zero self-disc, closed KL gap, growing disc, valid slack",
           zero_ok and gap_ok and trend_ok and slack_ok,
           f"disc ends={['%.4f' % v for v in ends]}")


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

    data = Rng(82).integers(0, 256, size=(4, 16)).astype(np.float64) / 255.0
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
    dim = 64
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 400, dim, Rng(seed)),
                    synthetic_task(kind, 200, dim, Rng(seed + 1)))
    a, b, c = (mk("half-active-top", "top", 400),
               mk("half-active-bottom", "bottom", 402), mk("bars", "bars", 404))
    orders = [TaskStream([a, b, c]), TaskStream([b, c, a]), TaskStream([c, a, b])]

    def risk_for(stream, seed):
        cfg = TrainConfig(epochs=6, batch=64, lr=2e-3, tau=0.0, probe_size=100,
                          latent_dim=8, hidden_dim=48, seed=seed)
        _, log = run_degm(stream, cfg, Rng(seed))
        return accumulated_final_risk(log, stream)

    order_risks = [risk_for(stream, seed=0) for stream in orders]
    seed_risks = [risk_for(orders[0], seed=s) for s in (0, 1, 2)]
    order_spread = max(order_risks) - min(order_risks)
    seed_spread = max(seed_risks) - min(seed_risks)
    ok = order_spread < seed_spread and seed_spread > 0.0
    report(12, "forced-basics runs are order-invariant within the seed envelope",
           ok, f"order spread={order_spread:.2e} seed spread={seed_spread:.2e}")
