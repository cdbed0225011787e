"""start and fork_map: work split over forked processes, the graph run's
nodes trained on every CPU, and the failure paths.

Every test that forks sets the affinity mask to two CPUs, so the forked path
runs whatever the machine has.
"""

import io
import json
import os
import shutil
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

from degm.bounds import bounds_run, diagnose_snapshots, fit_references
from degm.data import synthetic_task
from degm.cli import build_stream, cmd_diagnose, cmd_train, main, parse_config
from degm.errors import ContractError, TrainingError
from degm.lifelong import Task, TaskStream, TrainConfig, run_degm
from degm.nnkit import Rng, runtime
from degm.nnkit.runtime import blas_threads, fork_map, set_blas_threads, split_shares, start
from degm.select_eval import single_metric_table, task_metric_table
from degm.vae import HierVae, VaeComponent

from helpers import tape_bound, tape_reconstruction, vector_views

DIM, LATENT, HIDDEN = 16, 3, 8


def cpus(monkeypatch, mask):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="module")
def stream():
    kinds = ("half-active-top", "bars", "half-active-bottom")
    # unequal test sets, so the split is not a plain alternation
    return TaskStream([Task(f"{kind}-{i}", synthetic_task(kind, 60, DIM, Rng(70 + i)),
                            synthetic_task(kind, 20 + 10 * i, DIM, Rng(80 + i)))
                       for i, kind in enumerate(kinds)])


@pytest.fixture(scope="module")
def graph(stream):
    cfg = TrainConfig(epochs=2, batch=16, lr=2e-3, tau=1e9, probe_size=30,
                      latent_dim=LATENT, hidden_dim=HIDDEN)
    graph, _ = run_degm(stream, cfg, Rng(71))
    assert [e.kind for e in graph.entries] == ["basic", "specific", "specific"]
    return graph


# --- the split ---------------------------------------------------------------------

def test_split_is_longest_first_onto_the_least_loaded_share():
    assert split_shares([300] * 4, 2) == [[0, 2], [1, 3]]
    assert split_shares([10, 40, 30, 20], 2) == [[0, 1], [2, 3]]
    assert split_shares([5, 5, 5], 3) == [[0], [1], [2]]
    assert split_shares([7], 1) == [[0]]


def test_share_count_follows_the_affinity_mask(monkeypatch):
    cpus(monkeypatch, {0})
    assert runtime.share_count(8) == 1
    cpus(monkeypatch, {0, 1, 2})
    assert runtime.share_count(8) == 3 and runtime.share_count(2) == 2
    assert runtime.share_count(0) == 1


# --- the tables are the same in any number of processes ------------------------------

@pytest.mark.parametrize("kprime", [1, 3])
def test_task_metric_table_rows_equal_inline_rows(monkeypatch, graph, stream, kprime):
    cpus(monkeypatch, {0})
    inline = task_metric_table(graph, stream, kprime=kprime, seed=5, k_eval=2)
    cpus(monkeypatch, {0, 1})
    forked = task_metric_table(graph, stream, kprime=kprime, seed=5, k_eval=2)
    assert forked == inline  # bitwise: every float compares equal
    assert_no_child_left()


def test_single_metric_table_rows_equal_inline_rows(monkeypatch, stream):
    models = [VaeComponent(DIM, LATENT, HIDDEN, rng=Rng(72)),
              HierVae(DIM, (LATENT, 2), HIDDEN, rng=Rng(73))]
    for model in models:
        cpus(monkeypatch, {0})
        inline = single_metric_table(model, stream, kprime=3)
        cpus(monkeypatch, {0, 1})
        assert single_metric_table(model, stream, kprime=3) == inline
    assert_no_child_left()


def test_one_share_runs_inline(monkeypatch):
    cpus(monkeypatch, {0})
    pid = os.getpid()
    assert fork_map(lambda i: (i, os.getpid()), [1, 1, 1]) == [(0, pid), (1, pid), (2, pid)]


def test_every_share_runs_in_its_own_process(monkeypatch):
    cpus(monkeypatch, {0, 1, 2})
    pids = fork_map(lambda i: os.getpid(), [1, 1, 1])
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert_no_child_left()


# --- failures --------------------------------------------------------------------------

def test_child_exception_is_raised_unchanged(monkeypatch):
    cpus(monkeypatch, {0, 1})

    def fn(i):
        if i == 1:  # item 1 is the child's share
            raise ContractError("item 1 refused")
        return i

    with pytest.raises(ContractError) as caught:
        fork_map(fn, [1, 1])
    assert caught.type is ContractError and str(caught.value) == "item 1 refused"
    assert_no_child_left()


def test_parent_exception_reaps_the_children(monkeypatch):
    cpus(monkeypatch, {0, 1, 2})

    def fn(i):
        if i == 0:
            raise ContractError("item 0 refused")
        return i

    with pytest.raises(ContractError, match="item 0 refused"):
        fork_map(fn, [1, 1, 1])
    assert_no_child_left()


def test_child_that_exits_without_results_names_its_status(monkeypatch):
    cpus(monkeypatch, {0, 1})

    def fn(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(ChildProcessError, match="exit status 3"):
        fork_map(fn, [1, 1])
    assert_no_child_left()


# --- what crosses the pipe and what does not -----------------------------------------

def test_large_results_come_back_intact(monkeypatch):
    cpus(monkeypatch, {0, 1})

    def fn(i):  # 1 MB per item, far beyond a pipe's buffer
        return Rng(i).uniform(0, 1, (1 << 17,))

    results = fork_map(fn, [1, 1, 1, 1])
    for i, result in enumerate(results):
        np.testing.assert_array_equal(result, fn(i))
    assert_no_child_left()


def test_blas_threads_pinned_while_running_and_restored(monkeypatch):
    before = blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS thread getter in this numpy build")
    set_blas_threads(2)  # more than the pin, so that a count left at 1 shows
    try:
        if blas_threads() != 2:
            pytest.skip("OpenBLAS runs at most one thread here")
        cpus(monkeypatch, {0, 1})
        assert fork_map(lambda i: blas_threads(), [1, 1]) == [1, 1]
        assert blas_threads() == 2
        outer = start(blas_threads)
        assert blas_threads() == 1
        # a fork_map while a child is outstanding, and a start inside fork_map's items
        inner = fork_map(lambda i: (blas_threads(), start(blas_threads).result()), [1, 1])
        assert inner == [(1, 1), (1, 1)] and blas_threads() == 1
        assert outer.result() == 1
        assert blas_threads() == 2  # restored with the last join
        for handle in (start(blas_threads), start(blas_threads)):
            handle.cancel()
        assert blas_threads() == 2  # and with the last cancel
    finally:
        set_blas_threads(before)
    assert_no_child_left()


def test_buffered_output_is_written_once(monkeypatch, capfd):
    cpus(monkeypatch, {0, 1})
    # a block-buffered stdout, as when output goes to a file or a pipe
    out = io.TextIOWrapper(io.BufferedWriter(io.FileIO(os.dup(1), "w"), 1 << 16))
    monkeypatch.setattr(sys, "stdout", out)
    print("written before the fork")  # still in the buffer when the child starts
    assert fork_map(lambda i: i, [1, 1]) == [0, 1]
    out.close()
    written, _ = capfd.readouterr()
    assert written.count("written before the fork") == 1


# --- start: one child per call --------------------------------------------------------

def reaped_since(mark) -> int:
    return runtime.env_block(mark)["children"]


def test_start_on_one_cpu_runs_inline(monkeypatch):
    cpus(monkeypatch, {0})
    mark = runtime.usage()
    assert start(os.getpid).result() == os.getpid() and reaped_since(mark) == 0


def test_start_forks_a_child_and_joins_it_once(monkeypatch):
    cpus(monkeypatch, {0, 1})
    mark = runtime.usage()
    handle = start(os.getpid)
    assert reaped_since(mark) == 0  # outstanding until joined
    pid = handle.result()
    assert reaped_since(mark) == 1
    assert pid != os.getpid() and handle.result() == pid  # the second call reads no pipe
    handle.cancel()  # already joined: nothing left to kill
    assert_no_child_left()
    env = runtime.env_block(mark)
    assert env["children"] == 1 and env["children_maxrss_mb"] > 0.0
    assert env["children_wait_s"] >= 0.0 and env["children_user_s"] >= 0.0


def test_start_raises_the_childs_exception_unchanged(monkeypatch):
    cpus(monkeypatch, {0, 1})

    def fn():
        raise ContractError("the child refused")

    handle = start(fn)
    with pytest.raises(ContractError) as caught:
        handle.result()
    assert caught.type is ContractError and str(caught.value) == "the child refused"
    assert_no_child_left()


def test_cancelling_after_the_parent_raises_reaps_every_child(monkeypatch):
    cpus(monkeypatch, {0, 1})
    mark = runtime.usage()
    handles = []
    with pytest.raises(ContractError, match="the parent failed"):
        try:
            for _ in range(3):
                handles.append(start(lambda: time.sleep(60)))
            raise ContractError("the parent failed")
        finally:
            for handle in handles:
                handle.cancel()
    assert len(handles) == 3
    assert_no_child_left()
    assert reaped_since(mark) == 3  # the cancelled children are recorded too


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the divergence itself
def test_main_diverging_bounds_run_leaves_no_child(tmp_path, capsys, monkeypatch):
    from degm.cli import main

    cpus(monkeypatch, {0, 1})
    tasks = [{"name": f"{kind}-{i}", "source": "synthetic", "kind": kind, "n_train": 48,
              "n_test": 24, "dim": DIM} for i, kind in enumerate(("bars", "stripes", "bars"))]
    config_path = tmp_path / "diverge.json"
    config_path.write_text(json.dumps({
        "mode": "bounds", "out_dir": str(tmp_path / "runs"), "tasks": tasks,
        "train": {"epochs": 2, "batch": 16, "lr": 1e300, "latent_dim": LATENT,
                  "hidden_dim": HIDDEN, "likelihood": "gaussian"},
        "bounds": {"sample_size": 16, "aux_epochs": 1}}))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert os.listdir(tmp_path / "runs") == []
    assert_no_child_left()


# --- the bounds fits: the same models and rows in any number of processes ---------------

def test_bounds_rows_and_fits_equal_inline_ones(monkeypatch, stream):
    cfg = TrainConfig(epochs=2, batch=16, lr=2e-3, latent_dim=LATENT, hidden_dim=HIDDEN,
                      likelihood="gaussian")

    def run():
        mark = runtime.usage()
        out = bounds_run(stream, cfg, Rng(74), sample_size=25, aux_epochs=1)
        env = runtime.env_block(mark)
        refs = fit_references(stream, cfg, Rng(74), aux_epochs=1)
        rows = diagnose_snapshots(stream, cfg, out.gr_artifacts.snapshots, refs, Rng(74),
                                  sample_size=25, aux_epochs=1)
        out_models.extend(out.reference_models + refs)
        params = [p.data for m in out.reference_models + refs for p in m.params()]
        return env, [repr(astuple(r)) for r in out.rows + rows], params

    out_models = []

    cpus(monkeypatch, {0})
    inline, inline_rows, inline_params = run()
    cpus(monkeypatch, {0, 1})
    forked, forked_rows, forked_params = run()
    assert forked_rows == inline_rows and len(forked_rows) == 2 * 3 + 3
    assert all(np.array_equal(a, b) for a, b in zip(forked_params, inline_params))
    assert all(vector_views(m) for m in out_models)
    assert (inline["children"], inline["children_wait_s"]) == (0, 0.0)
    assert forked["children"] == 1 + 2  # the refs' child, one per aux fit
    assert_no_child_left()


def test_models_sent_back_by_children_keep_their_tensors_on_one_vector(monkeypatch):
    def make(i):
        return VaeComponent(DIM, LATENT, HIDDEN, rng=Rng(90 + i), name=f"m{i}")

    cpus(monkeypatch, {0, 1})
    models = [start(lambda: make(0)).result(), *fork_map(make, [1, 1])]
    hier = start(lambda: HierVae(DIM, (LATENT, 2), HIDDEN, rng=Rng(93))).result()
    assert_no_child_left()
    assert all(vector_views(m) for m in models + [hier, hier.base])
    assert np.shares_memory(hier.base.params().flat, hier.params().flat)
    assert [m.params().flat.tobytes() for m in models] == [
        make(i).params().flat.tobytes() for i in (0, 0, 1)]


def test_bounds_runs_write_the_same_files_on_one_cpu_and_two(monkeypatch, tmp_path):
    # 196 wide: OpenBLAS rounds some products of this shape differently at 1
    # and 2 threads, so a run that pinned only while a fit child was
    # outstanding wrote other bytes on 2 CPUs than on 1
    kinds = ("half-active-top", "half-active-bottom", "bars")
    raw = {"mode": "bounds", "out_dir": str(tmp_path / "runs"),
           "tasks": [{"name": f"{kind}-{i}", "source": "synthetic", "kind": kind,
                      "n_train": 200, "n_test": 100, "dim": 196} for i, kind in enumerate(kinds)],
           "train": {"epochs": 2, "batch": 64, "lr": 1e-3, "latent_dim": 16, "hidden_dim": 64,
                     "likelihood": "gaussian"},
           "bounds": {"sample_size": 300}}

    def run(mask):
        cpus(monkeypatch, mask)
        shutil.rmtree(tmp_path / "runs", ignore_errors=True)
        run_dir = cmd_train(parse_config(json.dumps(raw)))
        files = run_files(run_dir)
        files["diagnosed bounds_report.csv"] = run_files(os.path.dirname(cmd_diagnose(run_dir)))[
            "bounds_report.csv"]
        summary = json.loads(files.pop("summary.json"))
        return files, summary, summary.pop("env")

    one, one_summary, one_env = run({0})
    two, two_summary, two_env = run({0, 1})
    assert sorted(two) == sorted(one)
    assert [path for path in one if two[path] != one[path]] == []
    assert two_summary == one_summary
    assert (one_env["children"], two_env["children"]) == (0, 3)
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["gr", "gr-hier"])
def test_replay_runs_write_the_same_files_at_one_blas_thread_and_two(monkeypatch, tmp_path,
                                                                     mode):
    # the 196-wide shape above: without the run's pin to one OpenBLAS thread,
    # most of these files differed between a start at 1 and at 2 threads
    before = blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS thread getter in this numpy build")
    kinds = ("half-active-top", "half-active-bottom", "bars")
    raw = {"mode": mode, "out_dir": str(tmp_path / "runs"),
           "tasks": [{"name": f"{kind}-{i}", "source": "synthetic", "kind": kind,
                      "n_train": 200, "n_test": 100, "dim": 196} for i, kind in enumerate(kinds)],
           "train": {"epochs": 2, "batch": 64, "lr": 1e-3, "latent_dim": 16, "hidden_dim": 64,
                     "likelihood": "gaussian"}}
    cpus(monkeypatch, {0})

    def run(threads):
        set_blas_threads(threads)
        try:
            if blas_threads() != threads:
                pytest.skip(f"OpenBLAS does not run {threads} threads here")
            shutil.rmtree(tmp_path / "runs", ignore_errors=True)
            files = run_files(cmd_train(parse_config(json.dumps(raw))))
        finally:
            set_blas_threads(before)
        files.pop("summary.json")
        return files

    one, two = run(1), run(2)
    assert sorted(two) == sorted(one) and "metrics.csv" in one
    assert [path for path in one if two[path] != one[path]] == []


# --- the graph's nodes: the same files in any number of processes --------------------

T, B = "half-active-top", "half-active-bottom"
# At these sizes a task's knowledge score is 8 or more against the other
# family's basic node and 0.41 or less against its own family's (seed 0), so
# tau 4 makes the decisions in the comments.
GRAPH_STREAMS = {
    # basic, basic (trained by the candidate child), two pooled specific nodes
    "basics-then-specifics": [T, B, T, B],
    # basic, specific, basic, specific, specific: both candidates are cancelled
    "cancelled-candidates": [T, T, B, B, T],
}


def graph_config(out_dir: str, kinds: list[str], **extra) -> dict:
    tasks = [{"name": f"{kind.rpartition('-')[2]}-{i}", "source": "synthetic", "kind": kind,
              "n_train": 60, "n_test": 30, "dim": DIM} for i, kind in enumerate(kinds)]
    return {"mode": "degm", "out_dir": out_dir, "tasks": tasks,
            "train": {"epochs": 3, "batch": 16, "lr": 3e-2, "tau": 4.0, "probe_size": 30,
                      "latent_dim": LATENT, "hidden_dim": 16, "seed": 0}, **extra}


def graph_run_config(name: str, out_dir: str) -> dict:
    if name == "ablation degm-1":
        return graph_config(out_dir, GRAPH_STREAMS["basics-then-specifics"],
                            mode="ablation", ablation="degm-1")
    if name == "order-study":
        raw = graph_config(out_dir, [T, B, "bars"], mode="order-study",
                           orders=[["top-0", "bottom-1", "bars-2"], ["bars-2", "top-0", "bottom-1"]])
        raw["train"]["tau"] = 0.0  # every node basic: each next one a candidate's
        return raw
    return graph_config(out_dir, GRAPH_STREAMS[name])


def run_files(run_dir: str) -> dict[str, bytes]:
    files = {}
    for root, _, names in os.walk(run_dir):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, run_dir)] = fh.read()
    return files


@pytest.mark.parametrize("name, children, decisions", [
    # the candidate, the pool's child, the eval table's child
    ("basics-then-specifics", 3, ["basic", "specific", "specific"]),
    # two cancelled candidates, the pool's child, the eval table's child
    ("cancelled-candidates", 4, ["specific", "basic", "specific", "specific"]),
    # per run: the candidate and the pool's child; then the eval table's child
    ("ablation degm-1", 5, ["basic", "specific", "specific"]),
    # per order: the candidate for the second task
    ("order-study", 2, None),
])
def test_graph_runs_write_the_same_files_on_one_cpu_and_two(monkeypatch, tmp_path, name,
                                                           children, decisions):
    raw = graph_run_config(name, str(tmp_path / "runs"))

    def run(mask):
        cpus(monkeypatch, mask)
        shutil.rmtree(tmp_path / "runs", ignore_errors=True)
        files = run_files(cmd_train(parse_config(json.dumps(raw))))
        summary = json.loads(files.pop("summary.json"))
        return files, summary, summary.pop("env")

    one, one_summary, one_env = run({0})
    two, two_summary, two_env = run({0, 1})
    assert sorted(two) == sorted(one)
    for path in one:
        assert two[path] == one[path], path
    assert two_summary == one_summary
    assert (one_env["children"], two_env["children"]) == (0, children)
    if decisions is not None:  # order-study writes its report alone
        assert "checkpoint/manifest.json" in one
        lines = one["expansion.csv"].decode().splitlines()
        column = lines[0].split(",").index("decision")
        assert [line.split(",")[column] for line in lines[1:]] == decisions
    assert_no_child_left()


@pytest.mark.parametrize("name", GRAPH_STREAMS)
def test_every_nodes_rows_equal_a_recomputation_from_the_final_graph(monkeypatch, tmp_path,
                                                                     name):
    # the rows of the nodes trained in children (the candidate's basic node and
    # pooled specific nodes) come back with them: recompute each node's final
    # row from the parameters installed into the final graph
    cpus(monkeypatch, {0, 1})
    cfg = parse_config(json.dumps(graph_config(str(tmp_path), GRAPH_STREAMS[name])))
    stream = build_stream(cfg)
    graph, log = run_degm(stream, cfg.train, Rng(cfg.train.seed))
    assert_no_child_left()
    for t, (task, entry) in enumerate(zip(stream.tasks, graph.entries), start=1):
        test = task.test.data
        eps = Rng(cfg.train.seed).spawn(f"eval:{task.name}").normal((1, LATENT))
        # through the tape reference: the logged rows come from the array pass
        values = tape_bound(graph, entry, test, [eps])
        recon = tape_reconstruction(graph, entry, test)
        want = (float(values.mean()), float(((test - recon) ** 2).sum(axis=1).mean()))
        for task_index in (t, len(stream)):  # its own last epoch; the stream's
            row = log.query(task_index=task_index, eval_task=t)[-1]
            assert (row["objective_value"], row["square_loss"]) == want, (t, task_index)


@pytest.mark.parametrize("mask", [{0}, {0, 1}])
def test_graph_nodes_train_on_one_blas_thread(monkeypatch, tmp_path, mask):
    # OpenBLAS can round differently at another thread count, so a node's
    # bits would otherwise depend on whether a child was outstanding
    import degm.lifelong as lifelong

    before = blas_threads()
    if before is None:
        pytest.skip("no OpenBLAS thread getter in this numpy build")
    set_blas_threads(2)
    try:
        if blas_threads() != 2:
            pytest.skip("OpenBLAS runs at most one thread here")
        cpus(monkeypatch, mask)
        train_node = lifelong._train_node

        def recording(*args):  # the count comes back with the rows, also from a child
            rows, arrays, reference_elbo = train_node(*args)
            return [(*row, blas_threads()) for row in rows], arrays, reference_elbo

        monkeypatch.setattr(lifelong, "_train_node", recording)
        cfg = parse_config(json.dumps(graph_config(str(tmp_path),
                                                   GRAPH_STREAMS["basics-then-specifics"])))
        stream = build_stream(cfg)
        monkeypatch.setattr(lifelong, "_metrics_log", lambda live, expansion, run_id: live)
        _, live = run_degm(stream, cfg.train, Rng(cfg.train.seed))
        assert len(live) == 4 and {row[2] for rows in live for row in rows} == {1}
        assert blas_threads() == 2  # restored after the run
    finally:
        set_blas_threads(before)
    assert_no_child_left()


@pytest.mark.parametrize("where", ["a pooled child", "the parent beside a candidate"])
def test_main_training_error_while_nodes_are_forked_exits_2(tmp_path, capsys, monkeypatch,
                                                            where):
    import degm.lifelong as lifelong

    cpus(monkeypatch, {0, 1})
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(graph_config(str(tmp_path / "runs"),
                                                   GRAPH_STREAMS["basics-then-specifics"])))
    parent, adam_step = os.getpid(), lifelong.adam_step
    # the pool's child trains the second specific node; the parent trains the
    # first basic node while the candidate child trains the second
    fails = (True, "s1") if where == "a pooled child" else (False, "b0")

    def failing_step(state, params, grads):
        if (os.getpid() != parent, params[0].name.partition(".")[0]) == fails:
            raise TrainingError(f"diverged in {where}")
        return adam_step(state, params, grads)

    monkeypatch.setattr(lifelong, "adam_step", failing_step)
    mark = runtime.usage()
    assert main(["train", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: diverged in {where}\n"
    assert os.listdir(tmp_path / "runs") == []
    assert_no_child_left()
    # reaped: the candidate and the pool's child, or the cancelled candidate
    assert reaped_since(mark) == (2 if where == "a pooled child" else 1)
