"""fork_map: the eval tables split over forked processes, and its failure paths.

Every test that forks sets the affinity mask to two CPUs, so the forked path
runs whatever the machine has.
"""

import io
import os
import sys

import numpy as np
import pytest

from degm.data import synthetic_task
from degm.errors import ContractError
from degm.lifelong import Task, TaskStream, TrainConfig, run_degm
from degm.nnkit import Rng, runtime
from degm.nnkit.runtime import blas_threads, fork_map, set_blas_threads, split_shares
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
    finally:
        set_blas_threads(before)


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
