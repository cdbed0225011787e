"""Randomness is keyed by (seed, key): every stream has one consumer.

``Rng.spawn`` is wrapped to record, for each (parent seed, key), the call
sites that derive it. One command fails the check when a stream is derived
at two call sites, or more than once at one site unless its key is listed in
``REPEATS_BY_DESIGN`` with the reason. Each command is its own record:
``diagnose`` regenerates a run's replay mixtures and aux models with the
run's keys on purpose. The ``ablation`` and ``order-study`` modes are left
out because they repeat whole runs, and so every key, by design.
"""

import json
import os
import re
import sys
from collections import defaultdict

import pytest

from degm.cli import cmd_diagnose, cmd_train, parse_config
from degm.nnkit import Rng

REPEATS_BY_DESIGN = {
    r"bounds:(kl|tgt|src):": "every epoch of a task scores the same subsamples and KL draws",
    r"klgap:": "drawn from the bounds:kl stream, which every epoch of a task derives again",
    r"(select|nll):": "one evaluation draw per index, shared by every task's metric row",
}


def record_spawns(monkeypatch) -> dict:
    calls = defaultdict(list)  # (parent seed, key) -> one call site per derivation
    spawn = Rng.spawn

    def recording_spawn(self, key):
        caller = sys._getframe(1)
        code = caller.f_code
        calls[(self.seed, key)].append(
            f"{os.path.basename(code.co_filename)}:{code.co_name}:{caller.f_lineno}")
        return spawn(self, key)

    monkeypatch.setattr(Rng, "spawn", recording_spawn)
    return calls


def shared_streams(calls: dict) -> list[str]:
    found = []
    for (seed, key), sites in calls.items():
        if len(set(sites)) > 1:
            found.append(f"{key!r} of seed {seed} derived at {sorted(set(sites))}")
        elif len(sites) > 1 and not any(re.match(p, key) for p in REPEATS_BY_DESIGN):
            found.append(f"{key!r} of seed {seed} derived {len(sites)} times at {sites[0]}")
    return found


def test_the_check_flags_shared_streams(monkeypatch):
    calls = record_spawns(monkeypatch)
    Rng(1).spawn("a")
    Rng(1).spawn("a")  # a second call site
    for key in ("b", "b", "bounds:kl:0", "bounds:kl:0"):
        Rng(1).spawn(key)  # one site, twice each
    Rng(2).spawn("b")
    found = shared_streams(calls)
    assert len(found) == 2
    assert "'a' of seed 1 derived at" in found[0] and "'b' of seed 1 derived 2 times" in found[1]


def keyed_config(mode: str, out_dir: str):
    # no task gives a seed, so all three draw their data from seed 0 and are
    # told apart by name alone; the train seed is 0 as well
    tasks = [{"name": name, "source": "synthetic", "kind": kind, "n_train": 48, "n_test": 24,
              "dim": 16} for name, kind in (("top", "half-active-top"), ("bars", "bars"),
                                            ("bottom", "half-active-bottom"))]
    return parse_config(json.dumps({
        "mode": mode, "out_dir": out_dir, "tasks": tasks,
        "train": {"epochs": 2, "batch": 16, "lr": 2e-3, "tau": 40.0, "probe_size": 16,
                  "latent_dim": 3, "hidden_dim": 8, "seed": 0, "hier_latent_dims": [3, 2]},
        "bounds": {"sample_size": 16, "aux_epochs": 1},  # below every set's size: subsampled
    }))


@pytest.mark.parametrize("mode", ["degm", "gr", "gr-hier", "bounds"])
def test_every_stream_has_one_consumer(tmp_path, monkeypatch, mode):
    calls = record_spawns(monkeypatch)
    run_dir = cmd_train(keyed_config(mode, str(tmp_path)))
    assert calls and shared_streams(calls) == []
    if mode == "bounds":
        calls.clear()
        cmd_diagnose(run_dir)
        assert calls and shared_streams(calls) == []
