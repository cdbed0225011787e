"""Scratch calibration for the acceptance thresholds (not part of the suite)."""

import time

import numpy as np

from degm.bounds import bounds_run
from degm.data import synthetic_task, transform
from degm.lifelong import Task, TaskStream, TrainConfig, run_degm, run_gr_single
from degm.nnkit import Rng
from degm.select_eval import select_component


def _mean_nll(passes, kprime, seed):
    """Mean negative K'-draw bound over the rows of ``passes``, passes of one
    model, at the K' draws the eval tables take for their NLL at ``seed``."""
    rng = Rng(seed)
    draws = [passes[0].draws(rng.spawn(f"nll:{i}"), 1, rows=1)[0] for i in range(kprime)]
    total = sum(float(-node_pass.bound(draws).sum()) for node_pass in passes)
    return total / sum(node_pass.x.shape[0] for node_pass in passes)


def eval_nll(graph, data, kprime, seed):
    """The estimate of the eval table of a graph: each row of ``data`` scored
    by the node it selects."""
    chosen = select_component(graph, data, seed=seed).chosen
    return _mean_nll([graph.node_pass(entry, data[chosen == j])
                      for j, entry in enumerate(graph.entries) if (chosen == j).any()],
                     kprime, seed)


def eval_nll_single(model, data, kprime, seed):
    """The same estimate for a single model, whose one pass scores every row."""
    return _mean_nll([model.node_pass(data)], kprime, seed)


def forgetting_stream(dim=196, n_train=2000, n_test=500):
    base_train = synthetic_task("bars", n_train, dim, Rng(100))
    base_test = synthetic_task("bars", n_test, dim, Rng(101))
    tasks = [Task("bars", base_train, base_test)]
    for name, tf, seed in (("inverted", "invert", 102), ("rotated", "rotate90", 104)):
        tr = transform(synthetic_task("bars", n_train, dim, Rng(seed)), tf)
        te = transform(synthetic_task("bars", n_test, dim, Rng(seed + 1)), tf)
        tasks.append(Task(name, tr, te))
    return TaskStream(tasks)


def ac6_ac7():
    stream = forgetting_stream()
    cfg = TrainConfig(epochs=30, batch=64, lr=1e-3, tau=0.0, probe_size=200,
                      latent_dim=16, hidden_dim=64)
    t0 = time.time()
    _, gr_log, _ = run_gr_single(stream, cfg, Rng(0))
    t_gr = time.time() - t0
    after1 = gr_log.query(task_index=1, eval_task=1)[-1]["square_loss"]
    after3 = gr_log.query(task_index=3, eval_task=1)[-1]["square_loss"]
    print(f"AC6: gr run {t_gr:.1f}s  task1 risk after t1={after1:.3f} after t3={after3:.3f} "
          f"ordering={'OK' if after3 > after1 else 'FAIL'}")
    t0 = time.time()
    graph, degm_log = run_degm(stream, cfg, Rng(0))
    t_degm = time.time() - t0
    kinds = [e.kind for e in graph.entries]
    t1_later = {r["square_loss"] for r in degm_log.rows
                if r["eval_task"] == 1 and r["task_index"] > 1}
    print(f"AC7: degm run {t_degm:.1f}s kinds={kinds} task1-risk-variants={len(t1_later)}")


def ac8():
    dim = 64
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 800, dim, Rng(seed)),
                    synthetic_task(kind, 300, dim, Rng(seed + 1)))
    stream = TaskStream([mk("half-active-top", "top", 200),
                         mk("half-active-bottom", "bottom", 202),
                         mk("bars", "bars", 204)])
    diffs = []
    t0 = time.time()
    for seed in (0, 1, 2):
        cfg = TrainConfig(epochs=12, batch=64, lr=2e-3, tau=0.5, probe_size=200,
                          latent_dim=8, hidden_dim=48, seed=seed)
        graph, _ = run_degm(stream, cfg, Rng(seed))
        gr_model, _, _ = run_gr_single(stream, cfg, Rng(seed))
        union = np.concatenate([t.test.data for t in stream.tasks])
        nll_degm = eval_nll(graph, union, kprime=50, seed=seed)
        nll_gr = eval_nll_single(gr_model, union, kprime=50, seed=seed)
        diffs.append(nll_gr - nll_degm)
        print(f"  seed {seed}: degm={nll_degm:.3f} gr={nll_gr:.3f} diff={diffs[-1]:.3f}")
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(len(diffs))
    print(f"AC8: {time.time()-t0:.1f}s mean diff={diffs.mean():.3f} 2SE={2*se:.3f} "
          f"{'OK' if diffs.mean() > 2 * se else 'FAIL'}")


def ac10():
    dim = 64
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 400, dim, Rng(seed)),
                    synthetic_task(kind, 200, dim, Rng(seed + 1)))
    stream = TaskStream([mk("half-active-top", "top", 300),
                         mk("half-active-bottom", "bottom", 302),
                         mk("bars", "bars", 304)])
    cfg = TrainConfig(epochs=6, batch=64, lr=2e-3, tau=0.5, probe_size=100,
                      latent_dim=8, hidden_dim=48, likelihood="gaussian")
    t0 = time.time()
    out = bounds_run(stream, cfg, Rng(0), sample_size=400, aux_epochs=6)
    ends = [r for r in out.rows if r.epoch == cfg.epochs]
    discs = [r.disc_lower_bound for r in ends]
    print(f"AC10: {time.time()-t0:.1f}s task-end discs={['%.4f' % v for v in discs]} "
          f"{'OK' if discs == sorted(discs) else 'FAIL'}")
    slack1 = [r.slack for r in out.rows if r.task_t == 1]
    print(f"      t=1 slacks={['%.3f' % v for v in slack1]}")


def ac12():
    dim = 64
    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 400, dim, Rng(seed)),
                    synthetic_task(kind, 200, dim, Rng(seed + 1)))
    a, b, c = (mk("half-active-top", "top", 400), mk("half-active-bottom", "bottom", 402),
               mk("bars", "bars", 404))
    orders = [TaskStream([a, b, c]), TaskStream([b, c, a]), TaskStream([c, a, b])]
    from degm.lifelong import accumulated_final_risk
    t0 = time.time()
    order_risks = []
    for stream in orders:
        cfg = TrainConfig(epochs=6, batch=64, lr=2e-3, tau=0.0, probe_size=100,
                          latent_dim=8, hidden_dim=48, seed=0)
        _, log = run_degm(stream, cfg, Rng(0))
        order_risks.append(accumulated_final_risk(log, stream))
    seed_risks = []
    for seed in (0, 1, 2):
        cfg = TrainConfig(epochs=6, batch=64, lr=2e-3, tau=0.0, probe_size=100,
                          latent_dim=8, hidden_dim=48, seed=seed)
        _, log = run_degm(orders[0], cfg, Rng(seed))
        seed_risks.append(accumulated_final_risk(log, orders[0]))
    order_spread = max(order_risks) - min(order_risks)
    seed_spread = max(seed_risks) - min(seed_risks)
    print(f"AC12: {time.time()-t0:.1f}s order spread={order_spread:.2e} "
          f"seed spread={seed_spread:.2e} {'OK' if order_spread < seed_spread else 'FAIL'}")


if __name__ == "__main__":
    ac6_ac7()
    ac8()
    ac10()
    ac12()
