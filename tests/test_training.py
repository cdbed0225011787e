"""Training without the tape: every node, replay model and bounds fit trains
through the closed-form backward of ``NodePass.bound_and_grads``, and the
two-layer replay model through ``HierPass.bound_and_grads``. With those
methods replaced by the tape reference (``helpers.tape_bound_and_grads`` and
``helpers.tape_hier_bound_and_grads``), a run must write the same bytes;
training builds no Tensor; and a non-finite weight still ends the command
with the error that names its layer."""

import json
import shutil

import numpy as np
import pytest

from degm.cli import cmd_train, main, parse_config
from degm.data import synthetic_task
from degm.graph import GraphModel
from degm.lifelong import Task, TrainConfig, _train_node, train_epoch
from degm.nnkit import AdamState, DenseLayer, Rng
from degm.vae import HierPass, NodePass, VaeComponent

from helpers import tape_bound, tape_bound_and_grads, tape_hier_bound_and_grads
from tape import Tensor
from test_runtime import DIM, GRAPH_STREAMS, LATENT, assert_no_child_left, cpus, graph_config, run_files

# the widened weights saturate the sigmoid: exp(-x) overflows to inf, 1 / inf is 0
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")


def replay_config(out_dir: str, mode: str, **train) -> dict:
    tasks = [{"name": f"{kind}-{i}", "source": "synthetic", "kind": kind, "n_train": 48,
              "n_test": 24, "dim": DIM} for i, kind in enumerate(("bars", "stripes", "bars"))]
    raw = {"mode": mode, "out_dir": out_dir, "tasks": tasks,
           "train": {"epochs": 2, "batch": 16, "lr": 1e-2, "latent_dim": LATENT,
                     "hidden_dim": 16, "seed": 0, **train}}
    if mode == "bounds":
        raw["bounds"] = {"sample_size": 16, "aux_epochs": 1}
    return raw


def graph_stream_config(out_dir: str, **train) -> dict:
    # basic, basic, then two specific nodes blending both
    raw = graph_config(out_dir, GRAPH_STREAMS["basics-then-specifics"])
    raw["train"].update(train)
    return raw


RUNS = {
    "degm": lambda out: graph_stream_config(out),
    "degm gaussian iwelbo K'=3": lambda out: graph_stream_config(
        out, likelihood="gaussian", objective="iwelbo", kprime=3),
    "gr": lambda out: replay_config(out, "gr"),
    "gr iwelbo K'=2": lambda out: replay_config(out, "gr", objective="iwelbo", kprime=2),
    "bounds": lambda out: replay_config(out, "bounds", likelihood="gaussian"),
    "gr-hier": lambda out: replay_config(out, "gr-hier", hier_latent_dims=[LATENT, 3]),
    "gr-hier one layer": lambda out: replay_config(out, "gr-hier", hier_latent_dims=[LATENT, 3],
                                                   hier_two_layers=False),
}


@pytest.mark.parametrize("name", RUNS)
def test_a_run_writes_the_bytes_of_the_tape_reference(monkeypatch, tmp_path, name):
    cpus(monkeypatch, {0})  # inline, so that the count below sees every step
    raw = RUNS[name](str(tmp_path / "runs"))

    def run():
        shutil.rmtree(tmp_path / "runs", ignore_errors=True)
        files = run_files(cmd_train(parse_config(json.dumps(raw))))
        summary = json.loads(files.pop("summary.json"))
        summary.pop("env")
        return files, summary

    closed_form, closed_form_summary = run()
    steps = []

    def on_the_tape(node_pass, eps_list):
        steps.append(len(eps_list))
        return tape_bound_and_grads(node_pass, eps_list)

    def hier_on_the_tape(hier_pass, draws):
        steps.append(len(draws))
        return tape_hier_bound_and_grads(hier_pass, draws)

    monkeypatch.setattr(NodePass, "bound_and_grads", on_the_tape)
    monkeypatch.setattr(HierPass, "bound_and_grads", hier_on_the_tape)
    tape, tape_summary = run()
    kprime = raw["train"].get("kprime", 1) if raw["train"].get("objective") == "iwelbo" else 1
    assert steps and set(steps) == {kprime}
    assert "metrics.csv" in tape and any(path.startswith("checkpoint/") for path in tape)
    assert sorted(closed_form) == sorted(tape)
    for path in tape:
        assert closed_form[path] == tape[path], path
    assert closed_form_summary == tape_summary


def test_training_a_component_or_a_specific_node_constructs_no_tensor(monkeypatch):
    g = GraphModel(DIM, LATENT, 16, "bernoulli")
    g.add_basic_node(task_id=0, rng=Rng(1))
    g.add_basic_node(task_id=1, rng=Rng(2))
    g.add_specific_node(np.array([0.4, 0.6]), task_id=2, rng=Rng(3))
    task = Task("bars-0", synthetic_task("bars", 40, DIM, Rng(4)), synthetic_task("bars", 20, DIM, Rng(5)))
    cfg = TrainConfig(epochs=2, batch=16, lr=1e-2, latent_dim=LATENT, hidden_dim=16,
                      objective="iwelbo", kprime=2)
    vae = VaeComponent(DIM, LATENT, 16, rng=Rng(6), name="gr")
    before = [t.data.copy() for t in g.params() + vae.params()]

    def refuse(self, *args, **kwargs):
        raise AssertionError("a Tensor was constructed")

    monkeypatch.setattr(Tensor, "__init__", refuse)
    eps = np.zeros((1, LATENT))
    with pytest.raises(AssertionError, match="a Tensor was constructed"):
        tape_bound(g, g.entries[2], task.test.data, [eps])
    for entry in (g.entries[0], g.entries[2]):
        rows, _, _ = _train_node(g, entry, task, cfg, Rng(7), eps)
        assert len(rows) == cfg.epochs
    train_epoch(AdamState(lr=1e-2), vae.node_pass, 2, task.train.data, 16, Rng(8))
    after = [t.data for t in g.params() + vae.params()]
    assert sum(not np.array_equal(a, b) for a, b in zip(before, after)) > 0


@pytest.mark.parametrize("mode, layer", [("degm", "b0.enc_lower"), ("degm", "s0.dec_upper_new"),
                                         ("gr", "gr.enc_logvar"), ("bounds", "ref1.dec_lower")])
def test_a_nan_weight_exits_2_naming_its_layer(monkeypatch, tmp_path, capsys, mode, layer):
    cpus(monkeypatch, {0, 1})
    made = DenseLayer.__init__

    def planted(self, *args, **kwargs):  # the NaN is there before the first step
        made(self, *args, **kwargs)
        if self.name == layer:
            self.weight.data[0, 0] = np.nan

    monkeypatch.setattr(DenseLayer, "__init__", planted)
    raw = (graph_stream_config if mode == "degm" else
           lambda out: replay_config(out, mode))(str(tmp_path / "runs"))
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: non-finite activation out of layer {layer!r}\n"
    assert_no_child_left()
