"""Config surface, persistence round-trips, ablation policies, CLI verbs."""

import contextlib
import csv
import io
import json
import os
import re
import resource
import shutil
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
from degm import lifelong
from degm.nnkit import DEFAULT_SIGMA, Rng
from degm.persist import FORMAT_VERSION, load_checkpoint, save_checkpoint
from degm.select_eval import task_metric_table
from degm.vae import VaeComponent

from helpers import owner_entry
from reference import eval_nll
from test_runtime import run_files

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
    assert config_hash(parse_config(json.dumps(README_CONFIG))) == "780618a9ce6e"
    assert config_hash(parse_config(json.dumps(_valid_base("runs")))) == "75eecf63240d"


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
    pi = lifelong.ABLATIONS["degm-6"][0](np.array([3.0, 9.0]), g)
    np.testing.assert_array_equal(pi, [0.5, 0.5])


def test_policy_degm7_one_hot_at_argmin():
    g = trained_graph(8)
    pi = lifelong.ABLATIONS["degm-7"][0](np.array([3.0, 9.0]), g)
    np.testing.assert_array_equal(pi, [1.0, 0.0])


def test_policy_degm5_mask_and_degeneration():
    g = trained_graph(9)  # tau = 1.0
    below = lifelong.ABLATIONS["degm-5"][0](np.array([0.2, 0.4]), g)
    uniform = lifelong.ABLATIONS["degm-6"][0](np.array([0.2, 0.4]), g)
    np.testing.assert_array_equal(below, uniform)
    mixed = lifelong.ABLATIONS["degm-5"][0](np.array([0.2, 5.0]), g)
    np.testing.assert_array_equal(mixed, [1.0, 0.0])


def test_policy_degm4_resolves_specifics_onto_basics():
    g = trained_graph(10)  # two basics and one specific with [0.25, 0.75]
    pi = lifelong.ABLATIONS["degm-4"][0](np.array([1.0, 1.0]), g)
    np.testing.assert_allclose(pi, [(1.0 + 0.25) / 3.0, (1.0 + 0.75) / 3.0])
    assert pi.sum() == pytest.approx(1.0, abs=1e-9)


def test_all_policies_emit_simplex():
    g = trained_graph(11)
    scores = np.array([0.3, 2.5])
    for policy, _ in lifelong.ABLATIONS.values():
        pi = policy(scores, g)
        assert pi.sum() == pytest.approx(1.0, abs=1e-9)
        assert (pi >= 0.0).all()


def test_run_ablation_table(tmp_path):
    raw = two_task_config("ablation", ablation="degm-6")
    raw["train"]["tau"] = 50.0  # force the second node to be specific
    cfg = parse_config(json.dumps(raw))
    table, variant, _ = lifelong.run_ablation(build_stream(cfg), cfg.train, cfg.ablation, Rng(0))
    assert {r["task"] for r in table} == {"bars", "stripes"}
    assert set(table[0]) == {"task", "sl_degm", "sl_degm-6"}
    assert len(variant.specifics) == 1
    np.testing.assert_array_equal(variant.specifics[0].weights, [1.0])


# --- commands ------------------------------------------------------------------------------

def mode_configs(out_dir: str) -> list[dict]:
    """A small config of each mode."""
    configs = [two_task_config(mode, out_dir=out_dir) for mode in
               ("degm", "ablation", "gr", "gr-hier", "bounds", "order-study")]
    configs[1]["ablation"] = "degm-6"
    configs[3]["train"]["hier_z2_dim"] = 2
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
            # a run directory is written as its staging sibling, then renamed
            published = re.sub(r"\.([0-9a-f]{12})\.\d+\.tmp(?=/|$)", r"\1", os.path.normpath(path))
            writers[published] = f"{caller.f_globals['__name__']}.{caller.f_code.co_name}"
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
    for mode, name in (("degm", ""), ("gr", "task_2")):
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
        # every table names the run's config in its last column, but the V
        # matrix, whose every column after the first is a weight
        for name in {t for t in tables if t.endswith(".csv")} - {"v_matrix.csv"}:
            with open(os.path.join(run_dir, name), newline="") as fh:
                header, *rows = list(csv.reader(fh))
            assert header[-1] == "config_hash", (mode, name)
            assert {row[-1] for row in rows} == {os.path.basename(run_dir)}, (mode, name)
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
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint", "task_1"),
                 "--config", str(config_path), "--kprime", "2"]) == 0


@pytest.mark.parametrize("key, value", [("hier_two_layers", True), ("hier_latent_dims", [3, 2])])
def test_main_refuses_the_removed_hier_keys(tmp_path, capsys, key, value):
    # a one-layer replay run is mode gr, and gr-hier's z2 width is hier_z2_dim
    raw = two_task_config("gr-hier", out_dir=str(tmp_path / "runs"))
    raw["train"][key] = value
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: unknown key train.{key!r}\n"
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("value", [None, 5])
def test_main_refuses_specific_epochs(tmp_path, capsys, value):
    # an ablation variant's specific-node epochs come from its row of ABLATIONS
    raw = two_task_config("ablation", out_dir=str(tmp_path / "runs"), ablation="degm-1")
    raw["train"]["specific_epochs"] = value
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "error: unknown key train.'specific_epochs'\n"
    assert not (tmp_path / "runs").exists()


def test_main_has_no_ablate_verb(capsys):
    # train runs mode ablation
    with pytest.raises(SystemExit) as caught:
        main(["ablate", "--config", "ablation.json"])
    assert caught.value.code == 2
    assert "invalid choice: 'ablate'" in capsys.readouterr().err


@pytest.mark.parametrize("mode, prefixes", [("gr", ("task",)), ("gr-hier", ("task",)),
                                            ("bounds", ("ref", "task"))],
                         ids=["gr", "gr-hier", "bounds"])
def test_a_replay_run_saves_each_model_once(tmp_path, capsys, mode, prefixes):
    # the final model is the last snapshot, so checkpoint/ itself holds none
    raw = next(c for c in mode_configs(str(tmp_path / "runs")) if c["mode"] == mode)
    run_dir = cmd_train(parse_config(json.dumps(raw)))
    checkpoint = os.path.join(run_dir, "checkpoint")
    assert sorted(os.listdir(checkpoint)) == [f"{p}_{i}" for p in prefixes for i in (1, 2)]
    written = sorted(os.listdir(run_dir))
    assert main(["eval", "--checkpoint", checkpoint,
                 "--config", os.path.join(run_dir, "config.json")]) == 2
    manifest = os.path.join(checkpoint, "manifest.json")
    assert capsys.readouterr().err == f"error: no manifest at {manifest}\n"
    assert sorted(os.listdir(run_dir)) == written


def test_a_second_train_into_one_out_leaves_only_its_own_files(tmp_path):
    raw = two_task_config("gr", out_dir=str(tmp_path / "runs"))
    run_dir = cmd_train(parse_config(json.dumps(raw)))
    fresh = set(run_files(run_dir))
    # an earlier run's files: a table, and a checkpoint's stale model
    for name in ("stray.csv", "checkpoint/arr_0000.bin", "checkpoint/manifest.json"):
        with open(os.path.join(run_dir, name), "w") as fh:
            fh.write("stale")
    assert cmd_train(parse_config(json.dumps(raw))) == run_dir
    assert set(run_files(run_dir)) == fresh
    assert os.listdir(tmp_path / "runs") == [os.path.basename(run_dir)]  # no staging left


@pytest.mark.parametrize("earlier", [True, False], ids=["over-a-run", "into-an-empty-out"])
def test_a_failed_train_leaves_the_earlier_run_directory_as_it_was(tmp_path, capsys,
                                                                   monkeypatch, earlier):
    import degm.persist as persist

    out = tmp_path / "runs"
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(two_task_config("gr", out_dir=str(out))))
    before = {}
    if earlier:
        assert main(["train", "--config", str(config_path)]) == 0
        run_dir = capsys.readouterr().out.strip()
        before = {run_dir: run_files(run_dir)}
    save, saved = persist.save_checkpoint, []

    def full_disk_at_the_second_model(directory, *args, **kwargs):
        if saved:
            raise OSError(28, "No space left on device")
        saved.append(save(directory, *args, **kwargs))

    monkeypatch.setattr(persist, "save_checkpoint", full_disk_at_the_second_model)
    assert main(["train", "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert saved  # the first model was written, into the staging directory
    assert {os.path.join(out, name): run_files(os.path.join(out, name))
            for name in os.listdir(out)} == before


def test_the_published_run_directory_has_the_permissions_of_makedirs(tmp_path):
    run_dir = cmd_train(parse_config(json.dumps(minimal_config("gr", out_dir=str(tmp_path)))))
    os.makedirs(tmp_path / "made")
    assert os.stat(run_dir).st_mode == os.stat(tmp_path / "made").st_mode


def test_main_eval_without_out_keeps_the_training_table(tmp_path, capsys):
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(two_task_config("degm", out_dir=str(tmp_path / "runs"))))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    train_table = os.path.join(run_dir, "eval_metrics.csv")
    before = open(train_table, "rb").read()
    assert main(["eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                 "--config", str(config_path), "--kprime", "5"]) == 0
    assert capsys.readouterr().out == os.path.join(run_dir, "eval_k5.csv") + "\n"
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
    cases = {"task_1": "eval_k2_task_1.csv", "task_2": "eval_k2_task_2.csv"}
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
    assert tables["task_1"] != tables["task_2"]


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


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory):
    """A two-task gr-hier run and a degm run, each by mode: its run
    directory and its config's path."""
    runs = {}
    for mode in ("gr-hier", "degm"):
        base = tmp_path_factory.mktemp(mode)
        raw = two_task_config(mode, out_dir=str(base / "runs"))
        raw["train"]["hier_z2_dim"] = 2
        config_path = base / "cfg.json"
        config_path.write_text(json.dumps(raw))
        runs[mode] = (cmd_train(parse_config(config_path.read_text())), str(config_path))
    return runs


def _verb_on_a_copy(stored_runs, tmp_path, verb) -> tuple[list[str], str, str]:
    """A copy of the run ``verb`` reads: eval the gr-hier run's final model,
    diagnose the gr-hier run, which loads that task_2/ snapshot too, or
    export-v the degm graph. Returns the verb's argv, the model directory it
    loads, and the copied run directory, which every output would land in."""
    mode, model = ("degm", "checkpoint") if verb == "export-v" else ("gr-hier", "checkpoint/task_2")
    source, config_path = stored_runs[mode]
    run_dir = str(tmp_path / "run")
    shutil.copytree(source, run_dir)
    model_dir = os.path.join(run_dir, model)
    argv = {"eval": ["eval", "--checkpoint", model_dir, "--config", config_path],
            "diagnose": ["diagnose", run_dir],
            "export-v": ["export-v", "--checkpoint", model_dir,
                         "--out", os.path.join(run_dir, "v.csv")]}[verb]
    return argv, model_dir, run_dir


def _files(root: str) -> set[str]:
    return {os.path.join(base, n) for base, _, names in os.walk(root) for n in names}


def _overwrite(offset: int, value: float):
    def damage(blob: str) -> None:  # in place; the size is kept
        with open(blob, "r+b") as fh:
            fh.seek(offset, os.SEEK_SET if offset >= 0 else os.SEEK_END)
            fh.write(np.array([value], dtype="<f8").tobytes())
    return damage


def _flip_bit(blob: str) -> None:
    # byte 100 is a mantissa byte of the 13th float, which stays finite
    with open(blob, "r+b") as fh:
        fh.seek(100)
        byte = fh.read(1)[0]
        fh.seek(100)
        fh.write(bytes([byte ^ 1]))


def _truncate(blob: str) -> None:
    os.truncate(blob, os.path.getsize(blob) - 8)


def _append(blob: str) -> None:
    with open(blob, "ab") as fh:
        fh.write(bytes(8))


def _edit_manifest(edit):
    def damage(blob: str) -> None:
        path = os.path.join(os.path.dirname(blob), "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(path, "w") as fh:
            json.dump(manifest, fh)
    return damage


def _rename_entry(manifest: dict) -> None:
    manifest["layout"][0]["name"] += "_renamed"


def _reshape_entry(manifest: dict) -> None:
    entry = manifest["layout"][0]  # a weight, transposed: the same size, another shape
    entry["shape"] = entry["shape"][::-1]


def _edit_sha256(manifest: dict) -> None:
    manifest["sha256"] = "0" * 64


def _rename_kind(manifest: dict) -> None:
    manifest["kind"] = "graf"


# each damage to a model directory's params.bin or its manifest: the file the
# error names, and what it says of that file
_DAMAGES = {
    "nan": (_overwrite(0, np.nan), "params.bin", "holds a non-finite value"),
    "inf": (_overwrite(-8, np.inf), "params.bin", "holds a non-finite value"),
    "flipped-bit": (_flip_bit, "params.bin", "sha256 "),
    "truncated": (_truncate, "params.bin", "expected "),
    "appended": (_append, "params.bin", "expected "),
    "deleted": (os.remove, "params.bin", "missing"),
    "renamed-entry": (_edit_manifest(_rename_entry), "manifest.json", "its layout is not"),
    "reshaped-entry": (_edit_manifest(_reshape_entry), "manifest.json", "its layout is not"),
    "edited-sha256": (_edit_manifest(_edit_sha256), "params.bin", "sha256 "),
    "unknown-kind": (_edit_manifest(_rename_kind), "manifest.json", "unknown checkpoint kind"),
}


@pytest.mark.parametrize("damage", list(_DAMAGES))
@pytest.mark.parametrize("verb", ["eval", "diagnose", "export-v"])
def test_main_a_damaged_blob_exits_2_naming_its_file(stored_runs, tmp_path, capsys, verb,
                                                     damage):
    argv, model_dir, run_dir = _verb_on_a_copy(stored_runs, tmp_path, verb)
    apply, name, says = _DAMAGES[damage]
    apply(os.path.join(model_dir, "params.bin"))
    before = _files(run_dir)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {os.path.join(model_dir, name)}: {says}"), err
    assert err.count("\n") == 1
    assert _files(run_dir) == before  # no table written


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
                 "latent_dim", "hidden_dim", "likelihood", "hier_z2_dim"},
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
       ("epochs", "batch", "kprime", "probe_size", "latent_dim", "hidden_dim", "hier_z2_dim")},
    ("train", "seed"): _bad_count(minimum=0),
    ("train", "lr"): _bad_real(None),
    ("train", "tau"): _bad_real(0.0),
    ("train", "objective"): _bad_choice(("elbo", "iwelbo")),
    ("train", "likelihood"): _bad_choice(("bernoulli", "gaussian")),
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
    raw["train"].update({"seed": 0, "objective": "elbo",
                         "likelihood": "bernoulli", "hier_z2_dim": 2, "kprime": 1})
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


@pytest.mark.parametrize("verb", ["eval", "diagnose", "export-v"])
def test_a_format_version_1_manifest_exits_2_naming_the_version(stored_runs, tmp_path, capsys,
                                                                verb):
    # version 1 wrote one blob per tensor; this version reads only its own format
    argv, model_dir, run_dir = _verb_on_a_copy(stored_runs, tmp_path, verb)
    path = _set_field(model_dir, "format_version", 1)
    before = _files(run_dir)
    assert main(argv) == 2
    assert capsys.readouterr().err == (f"error: {path}: unsupported checkpoint format "
                                       f"version 1; this version reads {FORMAT_VERSION}\n")
    assert _files(run_dir) == before


@pytest.mark.parametrize("mode, kind", [("degm", "graph"), ("gr", "single"), ("gr-hier", "hier")])
def test_a_manifest_with_another_sigma_exits_2_naming_it(tmp_path, capsys, mode, kind):
    # every model's Gaussian decoder has DEFAULT_SIGMA, so a manifest that
    # holds another value describes a model no command builds
    config_path = tmp_path / "cfg.json"
    raw = two_task_config(mode, out_dir=str(tmp_path / "runs"))
    raw["train"]["hier_z2_dim"] = 2
    config_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(config_path)]) == 0
    run_dir = capsys.readouterr().out.strip().splitlines()[-1]
    # a replay run's final model is its last snapshot
    model = os.path.join(run_dir, "checkpoint", "" if kind == "graph" else "task_2")
    assert load_checkpoint(model)[0] == kind
    runs = [(["eval", "--checkpoint", model, "--config", str(config_path)], model)]
    if kind == "graph":
        runs.append((["export-v", "--checkpoint", model, "--out", str(tmp_path / "v.csv")],
                     model))
    else:  # diagnose reads the snapshots
        runs.append((["diagnose", run_dir], model))
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
