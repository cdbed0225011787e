"""Config surface, persistence round-trips, ablation policies, CLI verbs."""

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from degm.cli import (
    build_stream,
    cmd_diagnose,
    cmd_eval,
    cmd_export_v,
    cmd_train,
    config_hash,
    main,
    parse_config,
    serialize_config,
)
from degm.data import SYNTHETIC_KINDS, save_idx_images, save_idx_labels
from degm.errors import ConfigError, ContractError, FormatError
from degm.graph import GraphModel
from degm.lifelong import ablation_edge_policy, run_ablation
from degm.nnkit import Rng
from degm.persist import load_checkpoint, save_graph, save_single
from degm.select_eval import eval_nll, task_metric_table
from degm.vae import VaeComponent

from helpers import owner_entry

DIM = 16


def minimal_config(mode="gr", **extra):
    cfg = {
        "mode": mode,
        "tasks": [{"name": "bars", "source": "synthetic", "kind": "bars",
                   "n_train": 60, "n_test": 30, "dim": DIM}],
        "train": {"epochs": 2, "batch": 16, "lr": 2e-3, "tau": 1.0,
                  "probe_size": 30, "latent_dim": 3, "hidden_dim": 8},
    }
    cfg.update(extra)
    return cfg


def two_task_config(mode="degm", **extra):
    cfg = minimal_config(mode, **extra)
    cfg["tasks"].append({"name": "stripes", "source": "synthetic", "kind": "stripes",
                         "n_train": 60, "n_test": 30, "dim": DIM})
    return cfg


# --- parsing ------------------------------------------------------------------

def test_parse_minimal_fills_defaults():
    cfg = parse_config(json.dumps({"mode": "gr", "tasks": minimal_config()["tasks"]}))
    assert cfg.train.epochs == 500
    assert cfg.train.batch == 64
    assert cfg.train.lr == pytest.approx(1e-4)
    assert cfg.train.probe_size == 1000
    assert cfg.eval_kprime == 1
    assert cfg.out_dir == "runs"


def test_parse_rejects_negative_tau():
    raw = minimal_config("degm")
    raw["train"]["tau"] = -1.0
    with pytest.raises(ConfigError, match="tau"):
        parse_config(json.dumps(raw))


def test_parse_rejects_unknown_keys_with_path():
    raw = minimal_config()
    raw["train"]["lrr"] = 0.1
    with pytest.raises(ConfigError, match=r"train\.'lrr'"):
        parse_config(json.dumps(raw))
    raw = minimal_config()
    raw["tasks"][0]["knd"] = "bars"
    with pytest.raises(ConfigError, match=r"tasks\[0\]\.'knd'"):
        parse_config(json.dumps(raw))


def test_parse_mode_and_ablation_validation():
    with pytest.raises(ConfigError, match="mode"):
        parse_config(json.dumps({"mode": "warp", "tasks": []}))
    raw = minimal_config("ablation")
    with pytest.raises(ConfigError, match="ablation"):
        parse_config(json.dumps(raw))
    raw["ablation"] = "degm-6"
    assert parse_config(json.dumps(raw)).ablation == "degm-6"


def test_parse_round_trip():
    cfg = parse_config(json.dumps(two_task_config()))
    again = parse_config(serialize_config(cfg))
    assert again.raw == cfg.raw
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_sensitivity():
    a = parse_config(json.dumps(minimal_config()))
    changed = minimal_config()
    changed["train"]["lr"] = 5e-4
    b = parse_config(json.dumps(changed))
    assert config_hash(a) != config_hash(b)
    relocated = minimal_config(out_dir="elsewhere")
    c = parse_config(json.dumps(relocated))
    assert config_hash(a) == config_hash(c)  # out_dir is not semantic


README_CONFIG = {
    "mode": "degm",
    "tasks": [
        {"name": "top", "source": "synthetic", "kind": "half-active-top",
         "n_train": 600, "n_test": 300, "dim": 64},
        {"name": "bottom", "source": "synthetic", "kind": "half-active-bottom",
         "n_train": 600, "n_test": 300, "dim": 64},
    ],
    "train": {"epochs": 50, "batch": 64, "lr": 1e-4, "tau": 40.0,
              "latent_dim": 32, "hidden_dim": 200, "seed": 0},
}


def test_config_hash_pinned():
    # run directories are named by this hash, so a change to it moves every run
    assert config_hash(parse_config(json.dumps(README_CONFIG))) == "b4eef7c2d876"
    assert config_hash(parse_config(json.dumps(_valid_base("runs")))) == "32b89d7f0a65"


def test_unnamed_synthetic_tasks_draw_their_own_data():
    # each task is named after its kind, and its data is keyed by that name
    tasks = [{"kind": kind, "n_train": 40, "dim": DIM}
             for kind in ("half-active-top", "half-active-bottom")]
    stream = build_stream(parse_config(json.dumps({"mode": "gr", "tasks": tasks})))
    assert [t.name for t in stream.tasks] == ["half-active-top", "half-active-bottom"]
    top, bottom = (t.train.data for t in stream.tasks)
    assert not np.array_equal(top[:, :DIM // 2], bottom[:, DIM // 2:])


def test_build_stream_idx_label_filter_and_split(tmp_path):
    save_idx_images(str(tmp_path / "images.idx"), Rng(0).uniform(0, 1, (40, DIM)), 4, 4)
    save_idx_labels(str(tmp_path / "labels.idx"), np.arange(40) % 4)
    files = {f"{split}_{part}": str(tmp_path / f"{part}.idx")
             for split in ("train", "test") for part in ("images", "labels")}
    raw = minimal_config("gr", tasks=[{"name": "d", "source": "idx", "labels": [2, 0], **files},
                                      {"source": "idx", "split_groups": [[1], [3]], **files}])
    stream = build_stream(parse_config(json.dumps(raw)))
    assert [t.name for t in stream.tasks] == ["d", "task-labels-1", "task-labels-3"]
    assert [sorted(set(t.train.labels)) for t in stream.tasks] == [[0, 2], [1], [3]]
    assert [t.test.n for t in stream.tasks] == [20, 10, 10]


def test_build_stream_desk_scale():
    raw = minimal_config()
    raw["desk_scale"] = True
    stream = build_stream(parse_config(json.dumps(raw)))
    assert stream.input_dim == DIM // 4


# --- persistence -------------------------------------------------------------------

def trained_graph(seed=0):
    g = GraphModel(DIM, 3, 8, tau=1.0)
    rng = Rng(seed)
    for i in range(2):
        g.add_basic_node(task_id=i, rng=rng.spawn(f"i:{i}"))
        g.basics[i].reference_elbo = -5.0 - i
    g.add_specific_node(np.array([0.25, 0.75]), task_id=2, rng=rng.spawn("s"))
    return g


def test_graph_checkpoint_round_trip_bit_identical(tmp_path):
    g = trained_graph(1)
    x = (Rng(2).uniform(0, 1, (40, DIM)) < 0.4).astype(np.float64)
    before = eval_nll(g, x, kprime=3, seed=4)
    ckpt = tmp_path / "checkpoint"
    save_graph(str(ckpt), g)
    kind, loaded, manifest = load_checkpoint(str(ckpt))
    assert kind == "graph"
    assert eval_nll(loaded, x, kprime=3, seed=4) == before  # bitwise, not approx
    assert loaded.basics[0].reference_elbo == -5.0
    np.testing.assert_array_equal(loaded.specifics[0].weights, [0.25, 0.75])


def test_single_checkpoint_round_trip(tmp_path):
    model = VaeComponent(DIM, 3, 8, rng=Rng(5), name="gr")
    save_single(str(tmp_path / "c"), model)
    kind, loaded, _ = load_checkpoint(str(tmp_path / "c"))
    assert kind == "single"
    x = (Rng(6).uniform(0, 1, (10, DIM)) < 0.4).astype(np.float64)
    np.testing.assert_array_equal(loaded.reconstruct(x), model.reconstruct(x))


def test_load_checkpoint_missing_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_checkpoint(str(tmp_path / "nope"))


# --- ablation policies -----------------------------------------------------------------

def test_policy_degm6_uniform():
    g = trained_graph(7)
    pi = ablation_edge_policy("degm-6")(np.array([3.0, 9.0]), g)
    np.testing.assert_array_equal(pi, [0.5, 0.5])


def test_policy_degm7_one_hot_at_argmin():
    g = trained_graph(8)
    pi = ablation_edge_policy("degm-7")(np.array([3.0, 9.0]), g)
    np.testing.assert_array_equal(pi, [1.0, 0.0])


def test_policy_degm5_mask_and_degeneration():
    g = trained_graph(9)  # tau = 1.0
    below = ablation_edge_policy("degm-5")(np.array([0.2, 0.4]), g)
    uniform = ablation_edge_policy("degm-6")(np.array([0.2, 0.4]), g)
    np.testing.assert_array_equal(below, uniform)
    mixed = ablation_edge_policy("degm-5")(np.array([0.2, 5.0]), g)
    np.testing.assert_array_equal(mixed, [1.0, 0.0])


def test_policy_degm4_resolves_specifics_onto_basics():
    g = trained_graph(10)  # two basics and one specific with [0.25, 0.75]
    pi = ablation_edge_policy("degm-4")(np.array([1.0, 1.0]), g)
    np.testing.assert_allclose(pi, [(1.0 + 0.25) / 3.0, (1.0 + 0.75) / 3.0])
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_all_policies_emit_simplex():
    g = trained_graph(11)
    scores = np.array([0.3, 2.5])
    for name in ("degm-4", "degm-5", "degm-6", "degm-7"):
        pi = ablation_edge_policy(name)(scores, g)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pi >= 0.0).all()


def test_run_ablation_table(tmp_path):
    raw = two_task_config("ablation", ablation="degm-6")
    raw["train"]["tau"] = 50.0  # force the second node to be specific
    cfg = parse_config(json.dumps(raw))
    table, graphs, _ = run_ablation(build_stream(cfg), cfg.train, cfg.ablation, Rng(0))
    assert {r["task"] for r in table} == {"bars", "stripes"}
    assert set(table[0]) == {"task", "sl_degm", "sl_degm-6"}
    variant = graphs["degm-6"]
    assert len(variant.specifics) == 1
    np.testing.assert_array_equal(variant.specifics[0].weights, [1.0])


# --- commands ------------------------------------------------------------------------------

def test_cmd_train_degm_outputs(tmp_path):
    raw = two_task_config("degm", out_dir=str(tmp_path / "runs"))
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    for name in ("config.json", "metrics.csv", "v_matrix.csv", "summary.json",
                 "eval_metrics.csv", "expansion.csv", "checkpoint/manifest.json"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    summary = json.load(open(os.path.join(run_dir, "summary.json")))
    assert summary["config_hash"] == config_hash(cfg)
    assert summary["node_counts"]["basic"] >= 1
    header = open(os.path.join(run_dir, "v_matrix.csv")).readline().strip().split(",")
    assert header[0] == "task_id" and header[1] == "C1"


def test_cmd_train_ablation_writes_the_variant_expansion(tmp_path):
    raw = two_task_config("ablation", out_dir=str(tmp_path / "runs"), ablation="degm-6")
    raw["train"]["tau"] = 50.0  # the second node is specific
    run_dir = cmd_train(parse_config(json.dumps(raw)))
    with open(os.path.join(run_dir, "expansion.csv"), newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert (row["task"], row["decision"], row["edge_weights"]) == ("stripes", "specific", "1.0")


def test_expansion_csv_explains_each_decision(tmp_path):
    # two disjoint families, alternating: at 3 epochs a task scores 28 or more
    # against the other family's basic node and 4.6 or less against its own
    families = ("half-active-top", "half-active-bottom")
    raw = {"mode": "degm", "out_dir": str(tmp_path / "runs"),
           "tasks": [{"name": f"{kind.rpartition('-')[2]}-{i}", "source": "synthetic",
                      "kind": kind, "n_train": 600, "n_test": 300, "dim": 64, "seed": 3}
                     for i, kind in ((i, families[i % 2]) for i in range(8))],
           "train": {"epochs": 3, "batch": 64, "lr": 1e-3, "latent_dim": 32, "hidden_dim": 200,
                     "seed": 3, "tau": 15.0, "probe_size": 300}}
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    with open(os.path.join(run_dir, "expansion.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["task"] for r in rows] == [t["name"] for t in raw["tasks"][1:]]
    # with the first task's node: 2 basic and 6 specific decisions
    assert [r["decision"] for r in rows] == ["basic"] + ["specific"] * 6
    _, graph, _ = load_checkpoint(os.path.join(run_dir, "checkpoint"))
    assert [e.kind for e in graph.entries] == ["basic"] * 2 + ["specific"] * 6
    for task_id, r in enumerate(rows, start=1):
        scores = [float(v) for v in r["knowledge_scores"].split("|")]
        assert float(r["min_ks"]) == min(scores) and float(r["tau"]) == 15.0
        assert int(r["probe_size"]) == 300 and r["config_hash"] == config_hash(cfg)
        if r["decision"] == "basic":
            assert r["basic_nodes"] == "top-0" and r["edge_weights"] == ""
            assert all(s > 15.0 for s in scores)
        else:
            assert r["basic_nodes"] == "top-0|bottom-1" and min(scores) <= 15.0
            weights = [float(w) for w in r["edge_weights"].split("|")]
            assert weights == owner_entry(graph, task_id).weights.tolist()


def test_cmd_train_idempotent(tmp_path):
    raw = minimal_config("gr", out_dir=str(tmp_path / "runs"))
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    first = open(os.path.join(run_dir, "metrics.csv")).read()
    run_dir2 = cmd_train(cfg)
    assert run_dir2 == run_dir
    assert open(os.path.join(run_dir, "metrics.csv")).read() == first


def test_cmd_eval_on_checkpoint(tmp_path):
    raw = two_task_config("degm", out_dir=str(tmp_path / "runs"))
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    rows = cmd_eval(os.path.join(run_dir, "checkpoint"), cfg, kprime=2,
                    out_path=str(tmp_path / "eval.csv"))
    assert len(rows) == 2
    again = cmd_eval(os.path.join(run_dir, "checkpoint"), cfg, kprime=2)
    assert rows == again  # deterministic under the same seed path


def test_k_eval_selects_over_that_many_draws(tmp_path):
    raw = two_task_config("degm", out_dir=str(tmp_path / "runs"), eval={"k_eval": 3})
    raw["train"]["epochs"] = 10  # trained this far, one draw picks other nodes than three
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    _, graph, _ = load_checkpoint(os.path.join(run_dir, "checkpoint"))
    expected = task_metric_table(graph, build_stream(cfg), kprime=1, k_eval=3)
    assert expected != task_metric_table(graph, build_stream(cfg), kprime=1, k_eval=1)
    digest = config_hash(cfg)
    lines = open(os.path.join(run_dir, "eval_metrics.csv")).read().splitlines()
    assert lines[1:] == [",".join(str(v) for v in row.values()) + "," + digest
                         for row in expected]
    rows = cmd_eval(os.path.join(run_dir, "checkpoint"), cfg, kprime=1)
    assert rows == expected


def test_cmd_export_v_after_mixed_run(tmp_path):
    g = trained_graph(12)
    g.add_basic_node(task_id=3, rng=Rng(13))
    save_graph(str(tmp_path / "c"), g)
    out = tmp_path / "v.csv"
    cmd_export_v(str(tmp_path / "c"), str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "task_id,C1,C2,C3"
    rows = [line.split(",") for line in lines[1:]]
    specific_row = [float(v) for v in rows[2][1:]]
    assert sum(specific_row) == pytest.approx(1.0, abs=1e-9)
    for r in (0, 1, 3):
        assert all(float(v) == 0.0 for v in rows[r][1:])


def test_cmd_train_bounds_and_diagnose(tmp_path):
    raw = two_task_config("bounds", out_dir=str(tmp_path / "runs"))
    raw["train"]["likelihood"] = "gaussian"
    raw["bounds"] = {"sample_size": 80, "aux_epochs": 1}
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    for name in ("bounds_report.csv", "bound_check.csv", "accumulated_error.csv", "curves.csv"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    # diagnose recomputes the report from stored snapshots
    out_path = cmd_diagnose(run_dir)
    lines = open(out_path).read().strip().splitlines()
    assert len(lines) == 1 + 2  # header + one task-end row per task


def test_cmd_train_order_study(tmp_path):
    raw = two_task_config("order-study", out_dir=str(tmp_path / "runs"))
    raw["orders"] = [["bars", "stripes"], ["stripes", "bars"]]
    cfg = parse_config(json.dumps(raw))
    run_dir = cmd_train(cfg)
    lines = open(os.path.join(run_dir, "order_report.csv")).read().strip().splitlines()
    assert len(lines) == 3


def test_main_cli_round_trip(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(minimal_config("gr", out_dir=str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    assert os.path.isdir(run_dir)
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                 "--config", str(config_path), "--kprime", "2"]) == 0


def test_main_eval_without_out_keeps_the_training_table(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(two_task_config("degm", out_dir=str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    train_table = os.path.join(run_dir, "eval_metrics.csv")
    before = open(train_table, "rb").read()
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                 "--config", str(config_path), "--kprime", "5"]) == 0
    assert open(train_table, "rb").read() == before
    digest = config_hash(parse_config(config_path.read_text()))
    lines = open(os.path.join(run_dir, "eval_k5.csv")).read().splitlines()
    assert lines[0].split(",")[-1] == "config_hash"
    assert len(lines) == 3 and all(line.endswith("," + digest) for line in lines[1:])


def test_main_eval_error_while_the_table_is_forked_exits_2(tmp_path, capsys, monkeypatch):
    import degm.select_eval as select_eval

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(two_task_config("degm", out_dir=str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    parent, selected_nll = os.getpid(), select_eval._selected_nll

    def refused_in_the_child(*args, **kwargs):
        if os.getpid() != parent:
            raise ContractError("refused in the forked share")
        return selected_nll(*args, **kwargs)

    monkeypatch.setattr(select_eval, "_selected_nll", refused_in_the_child)
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                 "--config", str(config_path), "--kprime", "2"]) == 2
    assert capsys.readouterr().err == "error: refused in the forked share\n"
    with pytest.raises(ChildProcessError):  # every forked share was reaped
        os.waitpid(-1, os.WNOHANG)
    assert not os.path.exists(os.path.join(run_dir, "eval_k2.csv"))


@pytest.mark.parametrize("kprime", ["0", "-1", "True"])
def test_main_eval_refuses_a_bad_kprime_before_any_work(tmp_path, capsys, monkeypatch, kprime):
    import degm.cli as cli

    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(two_task_config("degm", out_dir=str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]

    def never(*args, **kwargs):
        raise AssertionError("a refused --kprime loads nothing")

    monkeypatch.setattr(cli, "load_checkpoint", never)
    argv = ["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
            "--config", str(config_path), "--kprime", kprime]
    if kprime == "True":  # argparse's int() refuses it before main sees it
        with pytest.raises(SystemExit) as caught:
            main(argv)
        assert caught.value.code == 2
    else:
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err
    if kprime != "True":
        assert err == f"error: --kprime must be an integer >= 1, got {kprime}\n"
    assert not [f for f in os.listdir(run_dir) if f.startswith("eval_k")]


def test_main_gen_synthetic(tmp_path):
    prefix = str(tmp_path / "toy")
    assert main(["gen-synthetic", "--kind", "bars", "--n", "12", "--dim", "16",
                 "--seed", "3", "--out", prefix]) == 0
    from degm.data import load_idx
    d = load_idx(prefix + "-images.idx")
    assert d.data.shape == (12, 16)


@pytest.mark.parametrize("verb", ["export-v", "eval", "gen-synthetic", "train"])
def test_main_unwritable_output_path_exits_2(tmp_path, capsys, verb):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(minimal_config("degm", out_dir=str(tmp_path / "runs"))))
    missing = str(tmp_path / "no-such-dir" / "out")
    if verb == "train":  # --out names an existing file, not a directory
        blocker = tmp_path / "a-file"
        blocker.write_text("kept")
        argv = ["train", "--config", str(config_path), "--out", str(blocker)]
    elif verb == "gen-synthetic":
        argv = ["gen-synthetic", "--kind", "bars", "--n", "12", "--dim", "16", "--out", missing]
    else:
        assert main(["train", "--config", str(config_path)]) == 0
        checkpoint = os.path.join(capsys.readouterr().out.strip().splitlines()[-1], "checkpoint")
        argv = [verb, "--checkpoint", checkpoint, "--out", missing]
        if verb == "eval":
            argv += ["--config", str(config_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not os.path.exists(tmp_path / "no-such-dir")
    if verb == "train":
        assert blocker.read_text() == "kept"


@pytest.mark.parametrize("flag, value, floor", [
    *[pytest.param(flag, value, 1, id=f"{value}-{flag}")
      for flag in ("--n", "--dim") for value in ("0", "-3")],
    pytest.param("--seed", "-1", 0, id="-1---seed"),
])
def test_main_gen_synthetic_refuses_a_bad_count_before_any_work(tmp_path, capsys, monkeypatch,
                                                                flag, value, floor):
    import degm.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("a refused count generates nothing")

    monkeypatch.setattr(cli, "synthetic_task", never)
    args = {"--n": "12", "--dim": "16", flag: value}
    prefix = str(tmp_path / "toy")
    assert main(["gen-synthetic", "--kind", "bars", *[x for kv in args.items() for x in kv],
                 "--out", prefix]) == 2
    assert capsys.readouterr().err == f"error: {flag} must be an integer >= {floor}, got {value}\n"
    assert os.listdir(tmp_path) == []


def test_main_reports_config_errors(tmp_path, capsys):
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"mode": "warp", "tasks": []}))
    assert main(["train", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_main_rejects_duplicate_task_names(tmp_path, capsys):
    raw = two_task_config(out_dir=str(tmp_path / "runs"))
    raw["tasks"][1]["name"] = "bars"  # every random stream is keyed by task name
    config_path = tmp_path / "dup.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key", ["kprime", "k_eval"])
@pytest.mark.parametrize("value", ["5", 2.5, True, 0, -1, None])
def test_main_rejects_bad_eval_counts(tmp_path, capsys, key, value):
    config_path = tmp_path / "bad_eval.json"
    config_path.write_text(json.dumps(minimal_config(eval={key: value})))
    assert main(["train", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_rejects_non_object_eval():
    with pytest.raises(ConfigError, match="eval"):
        parse_config(json.dumps(minimal_config(eval=5)))


@pytest.mark.parametrize("path, value", [
    (["bounds"], 5), (["tasks", 0, "n_train"], -1), (["tasks", 0, "dim"], "x"),
    (["train", "epochs"], 2.5), (["train", "latent_dim"], 0),
    (["bounds"], {"sample_size": 0}),
])
def test_main_rejects_malformed_config_without_run_dir(tmp_path, capsys, path, value):
    raw = minimal_config("bounds", out_dir=str(tmp_path / "runs"))
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("orders", [
    [1, 2], ["bars", "stripes"], [["bars", "stripes"]], [["bars", 3], ["stripes", "bars"]],
    [["bars", "stripes"], ["stripes", "nope"]], [["bars", "stripes"], ["bars"]],
], ids=["ints", "names", "one-order", "non-string-name", "unknown-name", "not-permutation"])
def test_main_rejects_malformed_orders_without_run_dir(tmp_path, capsys, orders):
    raw = two_task_config("order-study", out_dir=str(tmp_path / "runs"), orders=orders)
    config_path = tmp_path / "bad_orders.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("key, value", [
    ("labels", ["x"]), ("labels", 5), ("split_groups", 5), ("split_groups", [[0], "a"]),
])
def test_main_rejects_malformed_idx_label_keys(tmp_path, capsys, key, value):
    prefix = str(tmp_path / "toy")
    assert main(["gen-synthetic", "--kind", "bars", "--n", "12", "--dim", "16",
                 "--out", prefix]) == 0
    task = {"name": "toy", "source": "idx", key: value,
            **{f"{split}_{part}": f"{prefix}-{part}.idx"
               for split in ("train", "test") for part in ("images", "labels")}}
    raw = minimal_config("gr", out_dir=str(tmp_path / "runs"), tasks=[task])
    config_path = tmp_path / "bad_idx.json"
    config_path.write_text(json.dumps(raw))
    capsys.readouterr()
    assert main(["train", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: tasks[0].{key}")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("verb", ["train", "eval"])
@pytest.mark.parametrize("name", ["missing.json", "a-directory", "not-text.json"])
def test_main_config_file_that_cannot_be_opened_exits_2(tmp_path, capsys, monkeypatch,
                                                        verb, name):
    monkeypatch.chdir(tmp_path)  # a run directory would land in ./runs
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "not-text.json").write_bytes(b"\xff\xfe{")
    argv = {"train": ["train", "--config", name],
            "eval": ["eval", "--checkpoint", "checkpoint", "--config", name]}[verb]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == ["a-directory", "not-text.json"]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the divergence itself
def test_main_diverging_run_fails_cleanly(tmp_path, capsys):
    raw = minimal_config("gr", out_dir=str(tmp_path / "runs"))
    raw["train"]["lr"] = 1e300
    config_path = tmp_path / "diverge.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert os.listdir(tmp_path / "runs") == []


# --- every malformed config: exit 2, "error:", no traceback, no run directory ---------------

DELETE = object()  # a mutation that removes the key
_JUNK = st.one_of(st.none(), st.booleans(), st.lists(st.integers(-2, 2), max_size=2),
                  st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))
_NOT_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])


def _bad_count(minimum=1, nullable=False):
    junk = _JUNK.filter(lambda v: v is not None) if nullable else _JUNK
    return st.one_of(st.integers(max_value=minimum - 1), st.floats(), st.text(max_size=4), junk)


def _bad_real(below):
    """Anything but a finite real number >= ``below`` (> 0 when below is None)."""
    if below is None:
        out_of_range = st.one_of(st.floats(max_value=0.0), st.integers(max_value=0))
    else:
        out_of_range = st.one_of(st.floats(max_value=below, exclude_max=True),
                                 st.integers(max_value=int(below) - 1))
    return st.one_of(out_of_range, _NOT_FINITE, st.text(max_size=4), _JUNK)


def _bad_choice(allowed):
    return st.one_of(st.text(max_size=12).filter(lambda v: v not in allowed), st.integers(), _JUNK)


def _unknown_key(allowed):
    return st.text(max_size=8).filter(lambda k: k not in allowed)


# written out here rather than read from degm.config, so the test does not
# check the schema against itself
MODES = ("degm", "gr", "gr-hier", "bounds", "order-study", "ablation")
ABLATIONS = ("degm-1", "degm-4", "degm-5", "degm-6", "degm-7")
EVAL_KEYS = {"kprime", "k_eval"}
_UNKNOWN_KEYS = {
    (): {"mode", "out_dir", "desk_scale", "ablation", "orders", "tasks", "train", "eval",
         "bounds"},
    ("train",): {"epochs", "batch", "lr", "objective", "kprime", "tau", "probe_size", "seed",
                 "specific_epochs", "latent_dim", "hidden_dim", "likelihood",
                 "hier_latent_dims", "hier_two_layers"},
    ("tasks", 0): {"name", "source", "kind", "n_train", "n_test", "dim", "center", "seed",
                   "transforms", "train_images", "train_labels", "test_images", "test_labels",
                   "labels", "split_groups"},
    ("eval",): EVAL_KEYS,
    ("bounds",): {"sample_size", "aux_epochs"},
}

_NOT_BOOL = st.one_of(st.integers(), st.text(max_size=4), st.none(), st.lists(st.booleans()))
_NOT_STR = st.one_of(st.integers(), st.floats(), _JUNK)
_NOT_OBJECT = st.one_of(st.integers(), st.text(max_size=4), st.none(), st.booleans(),
                        st.lists(st.integers(), max_size=2))

_BAD_VALUES = {
    ("mode",): _bad_choice(MODES),
    ("out_dir",): _NOT_STR,
    ("desk_scale",): _NOT_BOOL,
    ("ablation",): st.one_of(st.sampled_from(ABLATIONS), st.text(max_size=6), st.integers()),
    ("orders",): st.one_of(st.just([["bars"], ["bars"]]), st.text(max_size=4), st.integers()),
    ("train",): _NOT_OBJECT,
    ("tasks",): st.one_of(_NOT_OBJECT.filter(lambda v: not isinstance(v, list)), st.just([]),
                          st.lists(_NOT_OBJECT.filter(lambda v: not isinstance(v, dict)),
                                   min_size=1, max_size=2)),
    ("eval",): _NOT_OBJECT,
    ("bounds",): _NOT_OBJECT,
    **{("train", key): _bad_count() for key in
       ("epochs", "batch", "kprime", "probe_size", "latent_dim", "hidden_dim")},
    ("train", "seed"): _bad_count(minimum=0),
    ("train", "specific_epochs"): _bad_count(nullable=True),
    ("train", "lr"): _bad_real(None),
    ("train", "tau"): _bad_real(0.0),
    ("train", "objective"): _bad_choice(("elbo", "iwelbo")),
    ("train", "likelihood"): _bad_choice(("bernoulli", "gaussian")),
    ("train", "hier_latent_dims"): st.one_of(
        _NOT_OBJECT.filter(lambda v: not isinstance(v, list)),
        st.lists(st.integers(1, 4), max_size=4).filter(lambda v: len(v) != 2),
        st.tuples(st.integers(1, 4), _bad_count()).map(list),
        st.tuples(_bad_count(), st.integers(1, 4)).map(list)),
    ("train", "hier_two_layers"): _NOT_BOOL,
    **{("tasks", 0, key): _bad_count() for key in ("n_train", "n_test", "dim")},
    ("tasks", 0, "seed"): _bad_count(minimum=0),
    ("tasks", 0, "name"): _NOT_STR,
    ("tasks", 0, "kind"): _bad_choice(SYNTHETIC_KINDS),
    ("tasks", 0): st.fixed_dictionaries({
        "name": st.just("digits"), "source": st.just("idx"),
        # no ints or bools: open() would take them for file descriptors
        "train_images": st.one_of(st.floats(), st.none(), st.lists(st.text(max_size=2)),
                                  st.just("missing-images.idx")),
        "test_images": st.just("missing-images.idx")}),
    ("tasks", 0, "source"): _bad_choice(("synthetic", "idx")),
    ("tasks", 0, "center"): st.one_of(
        _NOT_OBJECT.filter(lambda v: not isinstance(v, list)),
        st.lists(st.floats(-2, 2), max_size=4).filter(lambda v: len(v) != 2),
        st.tuples(st.floats(-2, 2), st.one_of(_NOT_FINITE, st.text(max_size=3), _JUNK)).map(list)),
    ("tasks", 0, "transforms"): st.one_of(
        _NOT_OBJECT.filter(lambda v: not isinstance(v, list)),
        st.lists(_NOT_STR, min_size=1, max_size=2),
        st.just(["binarize:x"]), st.just(["binarize:nan"]),
        st.lists(st.text(max_size=6).filter(
            lambda v: v.partition(":")[0] not in ("none", "invert", "rotate90", "binarize")),
            min_size=1, max_size=2)),
    ("tasks", 0, "labels"): st.one_of(
        _NOT_OBJECT.filter(lambda v: not isinstance(v, list)),
        st.lists(_bad_count(minimum=0), min_size=1, max_size=2)),
    ("tasks", 0, "split_groups"): st.one_of(
        _NOT_OBJECT.filter(lambda v: not isinstance(v, list)),
        st.lists(_NOT_OBJECT.filter(lambda v: not isinstance(v, list)), min_size=1, max_size=2),
        st.just([[0], []]),
        st.tuples(st.lists(st.integers(0, 3), min_size=1, max_size=2),
                  st.lists(_bad_count(minimum=0), min_size=1, max_size=2)).map(list)),
    **{("eval", key): _bad_count() for key in EVAL_KEYS},
    ("bounds", "sample_size"): _bad_count(),
    ("bounds", "aux_epochs"): _bad_count(nullable=True),
}
_DELETABLE = [("mode",), ("tasks",), ("tasks", 0, "kind"), ("tasks", 0, "dim")]


def _not_a_config_object(text):
    try:
        return not isinstance(json.loads(text), dict)
    except ValueError:
        return True


_MUTATIONS = st.one_of(
    st.sampled_from(sorted(_BAD_VALUES, key=str)).flatmap(
        lambda path: _BAD_VALUES[path].map(lambda value: (path, value))),
    st.sampled_from(_DELETABLE).map(lambda path: (path, DELETE)),
    st.sampled_from(sorted(_UNKNOWN_KEYS, key=str)).flatmap(
        lambda parent: _unknown_key(_UNKNOWN_KEYS[parent]).map(
            lambda key: (parent + (key,), 1))),
    st.text(max_size=12).filter(_not_a_config_object).map(lambda text: ((), text)),
)


def _valid_base(out_dir):
    raw = minimal_config("gr", out_dir=out_dir, eval={"kprime": 1, "k_eval": 1},
                         bounds={"sample_size": 50, "aux_epochs": None})
    raw["tasks"][0].update({"seed": 0, "center": [1.5, 1.5], "transforms": ["none"]})
    raw["train"].update({"seed": 0, "specific_epochs": None, "objective": "elbo",
                         "likelihood": "bernoulli", "hier_latent_dims": [3, 2],
                         "hier_two_layers": True, "kprime": 1})
    raw["desk_scale"] = False
    return raw


def _config_text(raw, mutation):
    path, value = mutation
    if path == ():
        return value  # raw text that is not a JSON object
    target = raw
    for key in path[:-1]:
        target = target[key]
    if value is DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return json.dumps(raw)


def test_valid_base_config_trains(tmp_path):
    config_path = tmp_path / "ok.json"
    config_path.write_text(json.dumps(_valid_base(str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutation=_MUTATIONS)
def test_main_rejects_every_malformed_config(mutation):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = os.path.join(tmp, "bad.json")
        with open(config_path, "w") as fh:
            fh.write(_config_text(_valid_base(os.path.join(tmp, "runs")), mutation))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["train", "--config", config_path])  # an escape raises here
        assert code == 2
        assert err.getvalue().startswith("error:") and "Traceback" not in err.getvalue()
        assert os.listdir(tmp) == ["bad.json"]


def test_cmd_train_summary_env_block(tmp_path, monkeypatch):
    from degm.nnkit import runtime

    cfg = parse_config(json.dumps(minimal_config("gr", out_dir=str(tmp_path / "runs"))))
    env = json.load(open(os.path.join(cmd_train(cfg), "summary.json")))["env"]
    assert env["numpy"] == np.__version__
    assert env["malloc_thresholds_set"] is runtime.THRESHOLDS_SET
    assert env["user_s"] > 0.0 and env["sys_s"] >= 0.0 and env["minor_faults"] >= 0
    assert set(env) == {"numpy", "blas", "blas_version", "blas_threads",
                        "malloc_thresholds_set", "user_s", "sys_s", "minor_faults",
                        "children", "children_user_s", "children_sys_s", "children_maxrss_mb",
                        "children_wait_s", "phase_s"}
    assert env["blas_threads"] is None or env["blas_threads"] >= 1
    assert env["children"] == 0  # a gr run forks nothing
    assert env["children_user_s"] == env["children_sys_s"] == env["children_wait_s"] == 0.0
    # a gr run has no eval table
    assert set(env["phase_s"]) == {"train", "eval_table", "write"}
    assert env["phase_s"]["train"] > 0.0 and env["phase_s"]["write"] > 0.0
    assert env["phase_s"]["eval_table"] == 0.0

    raw = two_task_config("bounds", out_dir=str(tmp_path / "bounds"))
    raw["tasks"].append({"name": "bars-2", "source": "synthetic", "kind": "bars",
                         "n_train": 60, "n_test": 30, "dim": DIM})
    raw["train"]["likelihood"] = "gaussian"
    raw["bounds"] = {"sample_size": 40, "aux_epochs": 1}
    for mask, children in (({0}, 0), ({0, 1}, 3)):  # the refs' child, one per aux fit
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
        run_dir = cmd_train(parse_config(json.dumps(raw)))
        env = json.load(open(os.path.join(run_dir, "summary.json")))["env"]
        assert env["children"] == children
        assert env["children_wait_s"] >= 0.0 and env["children_user_s"] >= 0.0
        if children:
            assert env["children_maxrss_mb"] > 0.0
        else:  # nothing to wait for when the fits run inline
            assert env["children_wait_s"] == env["children_maxrss_mb"] == 0.0


def test_cmd_train_env_counts_the_forked_eval_shares(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    cfg = parse_config(json.dumps(two_task_config("degm", out_dir=str(tmp_path / "runs"))))
    env = json.load(open(os.path.join(cmd_train(cfg), "summary.json")))["env"]
    # the second task trained as a basic node while the first one trained,
    # and the child that scored one of the two tasks
    assert env["children"] == 2
    assert env["children_maxrss_mb"] > 0.0 and env["children_wait_s"] >= 0.0
    assert min(env["phase_s"].values()) > 0.0  # training, the eval table, writing


def test_cmd_train_env_leaves_out_children_reaped_before_it(tmp_path):
    # a subprocess of this process with a peak resident memory of over 100 MB
    subprocess.run([sys.executable, "-c", "b'x' * (100 << 20)"], check=True)
    cfg = parse_config(json.dumps(minimal_config("gr", out_dir=str(tmp_path / "runs"))))
    env = json.load(open(os.path.join(cmd_train(cfg), "summary.json")))["env"]
    assert env["children"] == 0 and env["children_maxrss_mb"] == 0.0
    assert env["children_user_s"] == env["children_sys_s"] == 0.0


def test_blas_threads_reads_the_loaded_library():
    # OpenBLAS reads its thread count from the environment when it loads
    code = "from degm.nnkit.runtime import blas_threads; print(blas_threads())"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    if out == "None":
        pytest.skip("no OpenBLAS thread getter in this numpy build")
    assert out == "1"
