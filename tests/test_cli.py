"""Config surface, persistence round-trips, ablation policies, CLI verbs."""

import contextlib
import csv
import io
import json
import os
import resource
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
    main,
    parse_config,
)
from degm.config import config_hash
from degm.data import SYNTHETIC_KINDS, save_idx_images, save_idx_labels
from degm.errors import ConfigError, ContractError, FormatError
from degm.graph import GraphModel
from degm.lifelong import ablation_edge_policy, run_ablation
from degm.nnkit import DEFAULT_SIGMA, Rng
from degm.persist import load_checkpoint, save_checkpoint
from degm.select_eval import task_metric_table
from degm.vae import VaeComponent

from helpers import owner_entry
from reference import eval_nll

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


def test_parse_round_trip(tmp_path):
    cfg = parse_config(json.dumps(two_task_config(out_dir=str(tmp_path / "runs"))))
    with open(os.path.join(cmd_train(cfg), "config.json")) as fh:
        again = parse_config(fh.read())
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
    save_checkpoint(str(ckpt), g)
    kind, loaded, manifest = load_checkpoint(str(ckpt))
    assert kind == "graph"
    assert eval_nll(loaded, x, kprime=3, seed=4) == before  # bitwise, not approx
    assert loaded.basics[0].reference_elbo == -5.0
    np.testing.assert_array_equal(loaded.specifics[0].weights, [0.25, 0.75])


def test_single_checkpoint_round_trip(tmp_path):
    model = VaeComponent(DIM, 3, 8, rng=Rng(5), name="gr")
    save_checkpoint(str(tmp_path / "c"), model)
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

def mode_configs(out_dir: str) -> list[dict]:
    """A small config of each mode."""
    configs = [two_task_config(mode, out_dir=out_dir) for mode in
               ("degm", "ablation", "gr", "gr-hier", "bounds", "order-study")]
    configs[1]["ablation"] = "degm-6"
    configs[3]["train"]["hier_latent_dims"] = [3, 2]
    configs[4]["train"]["likelihood"] = "gaussian"
    configs[4]["bounds"] = {"sample_size": 40, "aux_epochs": 1}
    configs[5]["orders"] = [["bars", "stripes"], ["stripes", "bars"]]
    return configs


def test_every_file_of_every_verb_comes_from_the_one_writer(tmp_path, monkeypatch, capsys):
    import degm.persist as persist

    writers = {}  # the path a table, checkpoint or JSON file was written to -> its caller

    def recorded(write):
        def call(path, *args, **kwargs):
            caller = sys._getframe(1)
            writers[os.path.normpath(path)] = f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"
            return write(path, *args, **kwargs)
        return call

    monkeypatch.setattr(persist, "write_table", recorded(persist.write_table))
    monkeypatch.setattr(persist, "save_checkpoint", recorded(persist.save_checkpoint))
    monkeypatch.setattr(persist, "write_json", recorded(persist.write_json))
    runs = {}
    for i, raw in enumerate(mode_configs(str(tmp_path / "runs"))):
        config_path = tmp_path / f"cfg{i}.json"
        config_path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(config_path)]) == 0
        runs[raw["mode"]] = (capsys.readouterr().out.strip().splitlines()[-1], str(config_path))
    assert main(["diagnose", runs["bounds"][0]]) == 0
    for mode, name in (("degm", ""), ("gr", ""), ("gr", "task_2")):
        run_dir, config_path = runs[mode]
        assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint", name),
                     "--config", config_path]) == 0
    assert main(["export-v", "--checkpoint", os.path.join(runs["degm"][0], "checkpoint"),
                 "--out", str(tmp_path / "v.csv")]) == 0

    owners = {}
    for base, _, names in os.walk(tmp_path):
        for name in names:
            path = os.path.join(base, name)
            if name.startswith("cfg"):
                continue  # the configs given
            # the outermost written path that holds the file: a checkpoint's
            # files, its manifest too, belong to the checkpoint's directory
            held_by = [p for p in writers if path == p or path.startswith(p + os.sep)]
            assert held_by, f"{path} came from no writer"
            owners[path] = writers[min(held_by, key=len)]
    assert set(owners.values()) == {"degm.persist.write_record"}
    written = {os.path.relpath(p, tmp_path) for p in owners}
    assert "v.csv" in written
    for mode, (run_dir, _) in runs.items():
        tables = {os.path.basename(p) for p in owners if os.path.dirname(p) == run_dir}
        assert ("metrics.csv" in tables) == (mode != "order-study"), (mode, tables)
    assert {"eval_k1.csv", "eval_k1_task_2.csv"} <= {os.path.basename(p) for p in owners}



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
    save_checkpoint(str(tmp_path / "c"), g)
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


def test_main_eval_without_out_scores_each_snapshot_into_its_own_table(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(two_task_config("gr", out_dir=str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    checkpoint = os.path.join(run_dir, "checkpoint")

    def files(root):
        return {os.path.join(base, n) for base, _, names in os.walk(root) for n in names}

    stored = files(checkpoint)
    # the two snapshots, then the main checkpoint named with a trailing slash
    cases = {"task_1": "eval_k2_task_1.csv", "task_2": "eval_k2_task_2.csv", "": "eval_k2.csv"}
    for name in cases:
        assert main(["eval", "--checkpoint", os.path.join(checkpoint, name),
                     "--config", str(config_path), "--kprime", "2"]) == 0
    assert files(checkpoint) == stored  # nothing written inside a checkpoint directory
    cfg = parse_config(config_path.read_text())
    tables = {}
    for name, table in cases.items():
        tables[name] = open(os.path.join(run_dir, table)).read()
        rows = cmd_eval(os.path.join(checkpoint, name), cfg, kprime=2)
        assert tables[name].splitlines()[1:] == [
            ",".join(str(v) for v in row.values()) + "," + config_hash(cfg) for row in rows]
    # the snapshot after the last task is the final model
    assert tables["task_1"] != tables["task_2"] == tables[""]


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


@pytest.mark.parametrize("verb, mode, blob, value", [
    ("eval", "gr-hier", "checkpoint/arr_0000.bin", np.nan),
    ("diagnose", "gr-hier", "checkpoint/task_2/arr_0003.bin", np.inf),
    ("export-v", "degm", "checkpoint/arr_0000.bin", np.nan),
])
def test_main_a_non_finite_blob_exits_2_naming_its_file(tmp_path, capsys, verb, mode, blob,
                                                         value):
    config_path = tmp_path / "cfg.json"
    raw = two_task_config(mode, out_dir=str(tmp_path / "runs"))
    if mode == "gr-hier":
        raw["train"]["hier_latent_dims"] = [3, 2]
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    path = os.path.join(run_dir, blob)
    with open(path, "r+b") as fh:  # the first float, in place; the size is kept
        fh.write(np.array([value], dtype="<f8").tobytes())
    checkpoint = os.path.join(run_dir, "checkpoint")
    argv = {"eval": ["eval", "--checkpoint", checkpoint, "--config", str(config_path)],
            "diagnose": ["diagnose", run_dir],
            "export-v": ["export-v", "--checkpoint", checkpoint,
                         "--out", str(tmp_path / "v.csv")]}[verb]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {path}: holds a non-finite value\n"
    assert not os.path.exists(tmp_path / "v.csv")


@pytest.mark.parametrize("kprime", ["0", "-1", "True"])
def test_main_eval_refuses_a_bad_kprime_before_any_work(tmp_path, capsys, monkeypatch, kprime):
    import degm.runs as runs

    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(two_task_config("degm", out_dir=str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]

    def never(*args, **kwargs):
        raise AssertionError("a refused --kprime loads nothing")

    monkeypatch.setattr(runs, "load_checkpoint", never)
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


@pytest.mark.parametrize("flag, value, message", [
    *[pytest.param(flag, value, f"{flag} must be an integer >= 1, got {value}",
                   id=f"{value}-{flag}")
      for flag in ("--n", "--dim") for value in ("0", "-3")],
    pytest.param("--seed", "-1", "--seed must be an integer >= 0, got -1", id="-1---seed"),
    pytest.param("--dim", "10", "gen-synthetic writes IDX images and needs a square dim",
                 id="10---dim"),
])
def test_main_gen_synthetic_refuses_a_bad_count_before_any_work(tmp_path, capsys, monkeypatch,
                                                                flag, value, message):
    import degm.data as data

    def never(*args, **kwargs):
        raise AssertionError("a refused count generates nothing")

    monkeypatch.setattr(data, "synthetic_task", never)
    args = {"--n": "12", "--dim": "16", flag: value}
    prefix = str(tmp_path / "toy")
    assert main(["gen-synthetic", "--kind", "bars", *[x for kv in args.items() for x in kv],
                 "--out", prefix]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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


@pytest.mark.parametrize("train", [{"objective": "iwelbo", "kprime": 3},
                                   {"objective": "iwelbo", "kprime": 1},
                                   {"objective": "elbo", "kprime": 2}])
def test_main_refuses_a_multi_draw_objective_for_gr_hier(tmp_path, capsys, train):
    raw = minimal_config("gr-hier", out_dir=str(tmp_path / "runs"))
    raw["train"].update(train)
    config_path = tmp_path / "hier.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: mode 'gr-hier' trains on one draw: train.objective must be 'elbo' "
                   f"and train.kprime 1, got {train['objective']!r} and {train['kprime']}\n")
    assert not (tmp_path / "runs").exists()
    raw["mode"] = "gr"  # the replay model takes K' draws
    config_path.write_text(json.dumps(raw))
    parse_config(config_path.read_text())


def _read_csv(path: str, dropped: str) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k != dropped} for row in csv.DictReader(fh)]


def _checkpoints(run_dir: str) -> dict[str, tuple[dict, dict[str, bytes]]]:
    """Each checkpoint of a run by its path: its manifest without the
    config hash, and its blobs by file name."""
    found = {}
    for root, _, names in os.walk(os.path.join(run_dir, "checkpoint")):
        if "manifest.json" in names:
            with open(os.path.join(root, "manifest.json")) as fh:
                manifest = json.load(fh)
            manifest["extra"].pop("config_hash")
            blobs = {n: open(os.path.join(root, n), "rb").read()
                     for n in names if n.endswith(".bin")}
            found[os.path.relpath(root, run_dir)] = (manifest, blobs)
    return found


def test_a_one_layer_gr_hier_run_writes_what_a_gr_run_writes(tmp_path, capsys):
    # with hier_two_layers false, gr-hier trains, logs and saves the plain
    # component, on one draw or on K' (which a two-layer run refuses): the
    # same rows, single checkpoints of the same bytes, the same eval tables
    for objective in ({}, {"objective": "iwelbo", "kprime": 3}):
        runs = {}
        for mode, train in (("gr", {}), ("gr-hier", {"hier_latent_dims": [3, 2],
                                                     "hier_two_layers": False})):
            out = tmp_path / f"{mode}-{objective.get('objective', 'elbo')}"
            raw = two_task_config(mode, out_dir=str(out))
            raw["train"].update(objective, **train)
            config_path = out.with_suffix(".json")
            config_path.write_text(json.dumps(raw))
            run_dir = cmd_train(parse_config(config_path.read_text()))
            for kprime in ("1", "50"):
                assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                             "--config", str(config_path), "--kprime", kprime]) == 0
            runs[mode] = run_dir
        capsys.readouterr()
        gr, hier = runs["gr"], runs["gr-hier"]
        assert _read_csv(os.path.join(gr, "metrics.csv"), "run_id") == \
            _read_csv(os.path.join(hier, "metrics.csv"), "run_id")
        checkpoints = _checkpoints(hier)
        assert sorted(checkpoints) == ["checkpoint", "checkpoint/task_1", "checkpoint/task_2"]
        assert {manifest["kind"] for manifest, _ in checkpoints.values()} == {"single"}
        assert checkpoints == _checkpoints(gr)
        for kprime in (1, 50):
            name = f"eval_k{kprime}.csv"
            assert _read_csv(os.path.join(gr, name), "config_hash") == \
                _read_csv(os.path.join(hier, name), "config_hash")


def _set_field(manifest_dir: str, key: str, value) -> str:
    """Write ``key`` into a manifest as ``value``, as a hand edit or an older
    save would have it; returns the manifest's path."""
    path = os.path.join(manifest_dir, "manifest.json")
    with open(path) as fh:
        manifest = json.load(fh)
    manifest[key] = value
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return path


def test_an_older_hier_manifest_loads_only_with_two_layers(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    raw = two_task_config("gr-hier", out_dir=str(tmp_path / "runs"))
    raw["train"]["hier_latent_dims"] = [3, 2]
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    checkpoint = os.path.join(run_dir, "checkpoint")
    manifests = [checkpoint] + [os.path.join(checkpoint, f"task_{i}") for i in (1, 2)]
    eval_argv = ["eval", "--checkpoint", checkpoint, "--config", str(config_path),
                 "--kprime", "50"]

    def outputs() -> tuple[bytes, bytes]:
        assert main(eval_argv) == 0
        assert main(["diagnose", run_dir]) == 0
        capsys.readouterr()
        return tuple(open(os.path.join(run_dir, name), "rb").read()
                     for name in ("eval_k50.csv", "bounds_report.csv"))

    written = outputs()
    for manifest_dir in manifests:  # as the model was saved with the field
        _set_field(manifest_dir, "two_layers", True)
    assert outputs() == written  # bit for bit
    for argv, manifest_dir in ((eval_argv, checkpoint),
                               (["diagnose", run_dir], manifests[2])):
        path = _set_field(manifest_dir, "two_layers", False)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} ") and "one-layer" in err, err
        _set_field(manifest_dir, "two_layers", True)


@pytest.mark.parametrize("mode, kind", [("degm", "graph"), ("gr", "single"), ("gr-hier", "hier")])
def test_a_manifest_with_another_sigma_exits_2_naming_it(tmp_path, capsys, mode, kind):
    # every model's Gaussian decoder has DEFAULT_SIGMA, so a manifest that
    # holds another value describes a model no command builds
    config_path = tmp_path / "cfg.json"
    raw = two_task_config(mode, out_dir=str(tmp_path / "runs"))
    raw["train"]["hier_latent_dims"] = [3, 2]
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    checkpoint = os.path.join(run_dir, "checkpoint")
    assert load_checkpoint(checkpoint)[0] == kind
    runs = [(["eval", "--checkpoint", checkpoint, "--config", str(config_path)], checkpoint)]
    if kind == "graph":
        runs.append((["export-v", "--checkpoint", checkpoint, "--out", str(tmp_path / "v.csv")],
                     checkpoint))
    else:  # diagnose reads the snapshots
        runs.append((["diagnose", run_dir], os.path.join(checkpoint, "task_2")))
    for argv, manifest_dir in runs:
        path = _set_field(manifest_dir, "sigma", 0.5)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} holds sigma 0.5;"), err
        _set_field(manifest_dir, "sigma", DEFAULT_SIGMA)
        load_checkpoint(manifest_dir)  # the saved value loads
    assert not os.path.exists(tmp_path / "v.csv")
    assert not os.path.exists(os.path.join(run_dir, "bounds_report.csv"))


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
    before = resource.getrusage(resource.RUSAGE_SELF)
    run_dir = cmd_train(cfg)
    after = resource.getrusage(resource.RUSAGE_SELF)
    env = json.load(open(os.path.join(run_dir, "summary.json")))["env"]
    assert env["numpy"] == np.__version__
    assert env["malloc_thresholds_set"] is runtime.THRESHOLDS_SET
    # a run of a few ms can read 0.0 user seconds at the kernel's tick
    # granularity, so the gr run is only bounded by its own window
    assert 0.0 <= env["user_s"] <= after.ru_utime - before.ru_utime
    assert 0.0 <= env["sys_s"] <= after.ru_stime - before.ru_stime
    assert env["minor_faults"] >= 0
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
        assert env["children"] == children and env["user_s"] > 0.0
        assert set(env["phase_s"]) == {"train", "eval_table", "write", "bounds_rows"}
        assert 0.0 < env["phase_s"]["bounds_rows"] < env["phase_s"]["train"]
        assert env["children_wait_s"] >= 0.0 and env["children_user_s"] >= 0.0
        if children:
            assert env["children_maxrss_mb"] > 0.0
        else:  # nothing to wait for when the fits run inline
            assert env["children_wait_s"] == env["children_maxrss_mb"] == 0.0


def test_cmd_train_times_every_table_of_a_bounds_run(tmp_path, monkeypatch):
    import time

    import degm.bounds as bounds

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    raw = two_task_config("bounds", out_dir=str(tmp_path / "runs"))
    raw["train"]["likelihood"] = "gaussian"
    raw["bounds"] = {"sample_size": 40, "aux_epochs": 1}
    proxy, inside = bounds.accumulated_error_proxy, []

    def slow_proxy(*args, **kwargs):
        t0 = time.perf_counter()
        time.sleep(0.3)
        try:
            return proxy(*args, **kwargs)
        finally:
            inside.append(time.perf_counter() - t0)

    monkeypatch.setattr(bounds, "accumulated_error_proxy", slow_proxy)
    t0 = time.perf_counter()
    run_dir = cmd_train(parse_config(json.dumps(raw)))
    wall = time.perf_counter() - t0
    phases = json.load(open(os.path.join(run_dir, "summary.json")))["env"]["phase_s"]
    timed = phases["train"] + phases["write"]
    assert len(inside) == 1
    # the table's seconds are in a phase: what no phase times is less than they are
    assert timed >= inside[0] > wall - timed


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
    # OpenBLAS reads its thread count from the environment when it loads, and
    # importing degm sets it to 1 whatever that count was
    code = ("from degm.nnkit.runtime import blas_threads, set_blas_threads; "
            "print(blas_threads()); set_blas_threads(2); print(blas_threads())")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    if out[0] == "None":
        pytest.skip("no OpenBLAS thread getter in this numpy build")
    assert out[0] == "1"
    if out[1] != "2":
        pytest.skip("OpenBLAS runs at most one thread here")
