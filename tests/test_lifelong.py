"""Sequence-level behaviour: expansion decisions, freezing, replay, order effects."""

import json
from collections import Counter

import numpy as np
import pytest

from degm.config import parse_config
from degm.data import synthetic_task
from degm.errors import ConfigError
from degm.graph import GraphModel
from degm.lifelong import (
    MetricsLog,
    Task,
    TaskStream,
    TrainConfig,
    _install,
    _train_node,
    accumulated_final_risk,
    order_experiment,
    replay_mixture,
    run_degm,
    run_gr_hier,
    run_gr_single,
)
from degm.nnkit import Rng
from degm.persist import load_checkpoint, save_checkpoint
from degm.vae import BasicNode, HierVae, VaeComponent, copy_model

from helpers import (counted_eval_passes, gradient_vector, parameter_bytes, rows_key,
                     tape_objective, vector_views)
from tape import backprop

DIM = 36


def make_task(kind, name, seed, n_train=240, n_test=120, dim=DIM, center=None):
    train = synthetic_task(kind, n_train, dim, Rng(seed), center=center)
    test = synthetic_task(kind, n_test, dim, Rng(seed + 1), center=center)
    return Task(name, train, test)


def quick_cfg(**kw):
    defaults = dict(epochs=6, batch=32, lr=2e-3, tau=5.0, probe_size=100,
                    latent_dim=4, hidden_dim=16)
    defaults.update(kw)
    return TrainConfig(**defaults)


# --- config and stream validation ----------------------------------------------

def test_stream_rejects_mixed_dims():
    a = make_task("bars", "a", 0, dim=16)
    b = make_task("bars", "b", 2, dim=36)
    with pytest.raises(ConfigError):
        TaskStream([a, b])


def test_stream_rejects_repeated_task_names():
    tasks = [make_task("bars", "a", 0), make_task("stripes", "b", 2), make_task("bars", "a", 4)]
    with pytest.raises(ConfigError, match="unique"):
        TaskStream(tasks)


def test_config_validation():
    # TrainConfig holds the values; the config's train section checks them
    for bad in ({"epochs": 0}, {"tau": -1.0}, {"objective": "banana"}, {"objective": "auto"}):
        raw = {"mode": "gr", "tasks": [{"kind": "bars", "dim": DIM}], "train": bad}
        with pytest.raises(ConfigError, match=f"train.{next(iter(bad))}"):
            parse_config(json.dumps(raw))


# --- expansion behaviour ---------------------------------------------------------

def test_identical_tasks_yield_specific_node():
    # same generator, generous threshold: the probe looks familiar
    stream = TaskStream([make_task("bars", "bars-a", 10), make_task("bars", "bars-b", 20)])
    graph, _ = run_degm(stream, quick_cfg(epochs=10, tau=25.0), Rng(0))
    assert [e.kind for e in graph.entries] == ["basic", "specific"]


def test_disjoint_tasks_yield_basic_node():
    stream = TaskStream([make_task("half-active-top", "top", 30),
                         make_task("half-active-bottom", "bottom", 40)])
    graph, _ = run_degm(stream, quick_cfg(epochs=10, tau=1.0), Rng(0))
    assert [e.kind for e in graph.entries] == ["basic", "basic"]


def test_first_task_always_basic():
    stream = TaskStream([make_task("stripes", "only", 50)])
    graph, _ = run_degm(stream, quick_cfg(epochs=2), Rng(3))
    assert graph.entries[0].kind == "basic"
    assert graph.basics[0].reference_elbo is not None


def test_three_task_run_bookkeeping():
    stream = TaskStream([make_task("half-active-top", "t1", 60),
                         make_task("half-active-bottom", "t2", 70),
                         make_task("bars", "t3", 80)])
    cfg = quick_cfg(epochs=4, tau=2.0)
    graph, log = run_degm(stream, cfg, Rng(1))
    assert graph.node_count == 3
    final = [r for r in log.rows if r["task_index"] == 3 and r["epoch"] == cfg.epochs]
    assert len(final) == 3
    assert all(np.isfinite(r["objective_value"]) for r in log.rows)
    assert all(np.isfinite(r["square_loss"]) for r in log.rows)
    # one row per (training task, epoch, seen task)
    assert len(log.rows) == sum(cfg.epochs * (i + 1) for i in range(3))


def test_degm_never_retrains_existing_nodes():
    stream = TaskStream([make_task("half-active-top", "t1", 90),
                         make_task("bars", "t2", 100),
                         make_task("half-active-bottom", "t3", 110)])
    cfg = quick_cfg(epochs=3, tau=2.0)

    # capture each node's bytes right after its own task by rerunning prefixes,
    # which is valid because task-keyed streams make prefixes identical
    finals = {}
    for upto in (1, 2, 3):
        graph, _ = run_degm(TaskStream(stream.tasks[:upto]), cfg, Rng(7))
        for e in graph.entries:
            blob = parameter_bytes(e)
            finals.setdefault((upto, e.task_id), blob)
    for t in (0, 1):
        assert finals[(t + 1, t)] == finals[(3, t)], f"node for task {t} changed later"


def test_degm_seed_determinism():
    stream = TaskStream([make_task("bars", "x", 120), make_task("stripes", "y", 130)])
    cfg = quick_cfg(epochs=3)
    g1, l1 = run_degm(stream, cfg, Rng(11))
    g2, l2 = run_degm(stream, cfg, Rng(11))
    assert l1.rows == l2.rows
    assert parameter_bytes(g1.basics[0].vae) == parameter_bytes(g2.basics[0].vae)


# --- one parameter vector per model ---------------------------------------------------

def test_training_a_specific_node_leaves_every_basic_vector_unchanged():
    g = GraphModel(DIM, 4, 16)
    g.add_basic_node(0, rng=Rng(1))
    g.add_basic_node(1, rng=Rng(2))
    g.add_specific_node(np.array([0.3, 0.7]), 2, rng=Rng(3))
    s = g.specifics[0]
    before = [b.vae.params().flat.copy() for b in g.basics]
    own_before = s.params().flat.copy()
    _, flat, _ = _train_node(g, s, make_task("bars", "t", 40), quick_cfg(epochs=2), Rng(4),
                             np.zeros((1, 4)))
    assert flat is s.params().flat and flat.tobytes() != own_before.tobytes()
    for b, copy in zip(g.basics, before):
        assert b.vae.params().flat.tobytes() == copy.tobytes()
        assert not np.shares_memory(b.vae.params().flat, flat)


def test_vectors_stay_views_after_install_copy_and_load(tmp_path):
    stream = TaskStream([make_task("half-active-top", "t1", 90),
                         make_task("half-active-top", "t2", 95),
                         make_task("bars", "t3", 100)])
    graph, _ = run_degm(stream, quick_cfg(epochs=2, tau=1e6), Rng(7))  # _install on each node
    assert [e.kind for e in graph.entries] == ["basic", "specific", "specific"]
    assert all(vector_views(e) for e in graph.entries)
    trained = [e.params().flat.copy() for e in graph.entries]
    for e, flat in zip(graph.entries, trained):
        e.params().flat[...] = 0.0
        _install(e, ([], flat, 1.5))
        assert vector_views(e) and e.params().flat.tobytes() == flat.tobytes()
    save_checkpoint(str(tmp_path / "graph"), graph)
    _, loaded, _ = load_checkpoint(str(tmp_path / "graph"))
    assert all(vector_views(e) for e in loaded.entries)
    assert [e.params().flat.tobytes() for e in loaded.entries] == [f.tobytes() for f in trained]
    for model in (VaeComponent(DIM, 4, 16, rng=Rng(8), name="v"),
                  HierVae(DIM, (4, 3), 16, rng=Rng(9), name="h")):
        dup = copy_model(model)
        save_checkpoint(str(tmp_path / model.name), model)
        _, back, _ = load_checkpoint(str(tmp_path / model.name))
        for other in (dup, back):
            assert vector_views(other) and not np.shares_memory(other.params().flat,
                                                                 model.params().flat)
            assert other.params().flat.tobytes() == model.params().flat.tobytes()


# --- generative replay --------------------------------------------------------------

def test_gr_single_task_equals_plain_training():
    task = make_task("bars", "solo", 140)
    cfg = quick_cfg(epochs=4)
    rng = Rng(5)
    model, _, _ = run_gr_single(TaskStream([task]), cfg, rng)

    plain = VaeComponent(DIM, cfg.latent_dim, cfg.hidden_dim, cfg.likelihood,
                         Rng(5).spawn("gr:init"), name="gr")
    from degm.nnkit import AdamState, adam_step
    from degm.lifelong import _minibatches
    state = AdamState(lr=cfg.lr)
    train_rng = Rng(5).spawn(f"gr:train:{task.name}:0")
    for _ in range(cfg.epochs):
        for idx in _minibatches(task.train.n, cfg.batch, train_rng):
            x = task.train.data[idx]
            values = tape_objective(None, BasicNode(plain, 0), x,
                                    [train_rng.normal((x.shape[0], cfg.latent_dim))])
            adam_step(state, plain.params(),
                      gradient_vector(plain.params(), backprop(-values.mean())))
    assert parameter_bytes(model) == parameter_bytes(plain)  # nothing replayed


def test_gr_replay_buffer_is_binary_and_sized():
    stream = TaskStream([make_task("half-active-top", "a", 150, n_train=100),
                         make_task("half-active-bottom", "b", 160, n_train=100),
                         make_task("bars", "c", 170, n_train=100)])
    _, _, snapshots = run_gr_single(stream, quick_cfg(epochs=2), Rng(9))
    # each mixture holds the task's 100 rows and the replayed ones, which the
    # run trained on in its own order
    mixtures = [replay_mixture(snapshots, task, i, Rng(9)) for i, task in enumerate(stream.tasks)]
    assert [m.shape[0] - 100 for m in mixtures] == [0, 100, 200]
    for m in mixtures:
        assert set(np.unique(m)) <= {0.0, 1.0}


def test_gr_forgetting_ordering():
    # task-1 risk after the last task should exceed its value right after task 1
    stream = TaskStream([make_task("half-active-top", "a", 180, n_train=300),
                         make_task("half-active-bottom", "b", 190, n_train=300),
                         make_task("stripes", "c", 200, n_train=300)])
    cfg = quick_cfg(epochs=8, lr=3e-3)
    _, log, _ = run_gr_single(stream, cfg, Rng(13))
    after_t1 = log.query(task_index=1, eval_task=1)[-1]["square_loss"]
    after_t3 = log.query(task_index=3, eval_task=1)[-1]["square_loss"]
    assert after_t3 > after_t1


def test_gr_trains_exactly_one_parameter_set():
    stream = TaskStream([make_task("bars", "a", 210), make_task("stripes", "b", 220)])
    model, _, snapshots = run_gr_single(stream, quick_cfg(epochs=2), Rng(15))
    # snapshots are copies, not aliases
    assert snapshots[0] is not model
    assert parameter_bytes(snapshots[-1]) == parameter_bytes(model)


def test_gr_hier_two_layer_smoke():
    stream = TaskStream([make_task("bars", "a", 250), make_task("stripes", "b", 260)])
    cfg = quick_cfg(epochs=2, hier_latent_dims=(4, 3))
    model, log, _ = run_gr_hier(stream, cfg, Rng(23))
    assert isinstance(model, HierVae)
    assert all(np.isfinite(r["objective_value"]) for r in log.rows)


def test_gr_hier_seed_determinism():
    stream = TaskStream([make_task("bars", "a", 270), make_task("stripes", "b", 280)])
    cfg = quick_cfg(epochs=2, hier_latent_dims=(4, 3))
    _, l1, _ = run_gr_hier(stream, cfg, Rng(29))
    _, l2, _ = run_gr_hier(stream, cfg, Rng(29))
    assert l1.rows == l2.rows


@pytest.mark.parametrize("two_layers", [True, False], ids=["two-layers", "one-layer"])
def test_gr_hier_epoch_log_passes_each_test_set_once(monkeypatch, two_layers):
    # the bound and the reconstruction of a logged row come from one base pass
    stream = TaskStream([make_task("bars", "a", 290), make_task("stripes", "b", 300)])
    cfg = quick_cfg(epochs=2, hier_latent_dims=(4, 3), hier_two_layers=two_layers)
    counts = counted_eval_passes(monkeypatch)
    run_gr_hier(stream, cfg, Rng(31))
    # task a's test set is logged at both tasks' epochs, task b's at its own
    a, b = (rows_key(task.test.data) for task in stream.tasks)
    assert counts == Counter({a: 2 * cfg.epochs, b: cfg.epochs})


# --- order study ---------------------------------------------------------------------------

def order_fixture():
    a = make_task("half-active-top", "a", 300)
    b = make_task("half-active-bottom", "b", 310)
    c = make_task("bars", "c", 320)
    return a, b, c


def test_order_experiment_deterministic():
    a, b, c = order_fixture()
    orders = [TaskStream([a, b, c]), TaskStream([c, b, a])]
    cfg = quick_cfg(epochs=2, tau=0.0)
    r1 = order_experiment(orders, cfg, Rng(31))
    r2 = order_experiment(orders, cfg, Rng(31))
    assert r1 == r2


def test_degm_accumulated_risk_order_invariant_with_basics_forced():
    a, b, c = order_fixture()
    orders = [TaskStream([a, b, c]), TaskStream([b, c, a]), TaskStream([c, a, b])]
    cfg = quick_cfg(epochs=3, tau=0.0)
    report = order_experiment(orders, cfg, Rng(37))
    risks = [row["degm_accumulated_risk"] for row in report]
    assert max(risks) - min(risks) < 1e-12, "task-keyed streams make this exact"


def test_accumulated_risk_helper():
    log = MetricsLog()
    d = DIM
    for t, sl in ((1, 2.0), (2, 4.0)):
        log.add(run_id="x", task_index=2, epoch=1, eval_task=t, objective_value=0.0,
                square_loss=sl)
    stream = TaskStream([make_task("bars", "a", 330, n_train=20, n_test=10),
                         make_task("stripes", "b", 340, n_train=20, n_test=10)])
    assert accumulated_final_risk(log, stream) == pytest.approx(6.0 / d)
