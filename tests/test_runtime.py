"""start and fork_map: work split over forked processes, and the failure paths.

Every test that forks sets the affinity mask to two CPUs, so the forked path
runs whatever the machine has.
"""

import io
import json
import os
import sys
import time
from dataclasses import astuple

import numpy as np
import pytest

from degm.bounds import bounds_run, diagnose_snapshots, fit_references
from degm.data import synthetic_task
from degm.errors import ContractError
from degm.lifelong import Task, TaskStream, TrainConfig, run_degm
from degm.nnkit import Rng, runtime
from degm.nnkit.runtime import blas_threads, fork_map, set_blas_threads, split_shares, start
from degm.select_eval import single_metric_table, task_metric_table
from degm.vae import HierVae, VaeComponent

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

def test_start_on_one_cpu_runs_inline(monkeypatch):
    cpus(monkeypatch, {0})
    handle = start(os.getpid)
    assert not handle.forked and handle.result() == os.getpid() and handle.wait_s == 0.0


def test_start_forks_a_child_and_joins_it_once(monkeypatch):
    cpus(monkeypatch, {0, 1})
    handle = start(os.getpid)
    assert handle.forked
    pid = handle.result()
    assert pid != os.getpid() and handle.result() == pid  # the second call reads no pipe
    handle.cancel()  # already joined: nothing left to kill
    assert_no_child_left()


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
        out = bounds_run(stream, cfg, Rng(74), sample_size=25, aux_epochs=1)
        refs = fit_references(stream, cfg, Rng(74), aux_epochs=1)
        rows = diagnose_snapshots(stream, cfg, out.gr_artifacts.snapshots, refs, Rng(74),
                                  sample_size=25, aux_epochs=1)
        params = [p.data for m in out.reference_models + refs for p in m.params()]
        return out, [repr(astuple(r)) for r in out.rows + rows], params

    cpus(monkeypatch, {0})
    inline, inline_rows, inline_params = run()
    cpus(monkeypatch, {0, 1})
    forked, forked_rows, forked_params = run()
    assert forked_rows == inline_rows and len(forked_rows) == 2 * 3 + 3
    assert all(np.array_equal(a, b) for a, b in zip(forked_params, inline_params))
    assert (inline.fit_processes, inline.fit_wait_s) == (1, 0.0)
    assert forked.fit_processes == 1 + 1 + 2  # this one, the refs' child, one per aux fit
    assert_no_child_left()
