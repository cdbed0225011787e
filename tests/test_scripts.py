"""The experiment scripts still import what they use from the package,
every committed experiment config parses, the acceptance sweep tables each
check at each seed, and the output comparison finds the files a change
alters, those that differ in the config hash alone and those it writes
differently on two masks."""

import csv
import glob
import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from degm.cli import parse_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = os.path.join(ROOT, "scripts")
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))


def _load(script: str):
    spec = importlib.util.spec_from_file_location(script[:-len(".py")],
                                                  os.path.join(SCRIPTS, script))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", ["calibrate_acceptance.py", "run_forgetting_demo.py"])
def test_script_help(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), "--help"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


def test_calibration_sweep_tables_each_check_at_each_seed(tmp_path):
    # the sub-second criteria at one seed besides the committed 0; the whole
    # sweep, every criterion at 9 seeds, takes minutes
    module = _load("calibrate_acceptance.py")
    criteria = (2, 3, 9, 10, 12)
    out = tmp_path / "sweep.csv"
    rows = module.sweep({n: module.CRITERIA[n] for n in criteria}, [1], str(out))
    with open(out) as fh:
        table = list(csv.DictReader(fh))
    assert list(table[0]) == ["criterion", "check", "seed", "value", "threshold", "margin", "pass"]
    assert len(table) == len(rows) == len({(r["criterion"], r["check"], r["seed"]) for r in table})
    assert {(r["criterion"], r["seed"]) for r in table} == {(str(n), "1") for n in criteria}
    assert all(float(r["margin"]) >= 0.0 for r in table if r["pass"] == "True")


def test_configs_are_found():
    names = {os.path.basename(p) for p in CONFIGS}
    assert {"ablation.json", "bounds_demo.json", "degm.json", "gr.json", "gr_hier.json",
            "order_study.json"} <= names


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_config_parses(path):
    with open(path) as fh:
        parse_config(fh.read())


def test_compare_outputs_lists_the_files_a_change_alters(tmp_path):
    # the same tree on both sides writes the same files; a copy whose square
    # loss is off by one differs in the tables that report it
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "mode": "degm",
        "tasks": [{"name": f"{kind}-{i}", "source": "synthetic", "kind": kind,
                   "n_train": 40, "n_test": 20, "dim": 16}
                  for i, kind in enumerate(["half-active-top", "half-active-bottom"])],
        "train": {"epochs": 1, "batch": 16, "latent_dim": 3, "hidden_dim": 8, "probe_size": 20}}))
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(ROOT, "src"), changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    lifelong = changed / "src" / "degm" / "lifelong.py"
    source = lifelong.read_text()
    assert source.count(".sum(axis=1).mean())") == 1
    lifelong.write_text(source.replace(".sum(axis=1).mean())", ".sum(axis=1).mean()) + 1.0"))
    mask = str(min(os.sched_getaffinity(0)))

    def compare(change):
        return subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"), ROOT,
                               str(change), "--config", str(config), "--seeds", "0",
                               "--masks", mask],
                              capture_output=True, text=True, timeout=300)

    same = compare(ROOT)
    assert same.returncode == 0, same.stdout + same.stderr
    assert same.stdout.splitlines()[-1].startswith("0 of ")
    other = compare(changed)
    assert other.returncode == 1, other.stdout + other.stderr
    differing = {line.rpartition("/")[2] for line in other.stdout.splitlines()
                 if line.startswith("differs: ")}
    assert differing == {"metrics.csv"}  # the eval tables score with their own loss


def test_compare_outputs_pairs_the_run_directories_of_two_config_hashes(tmp_path):
    # a copy whose config hash is another slice of the digest names its run
    # directory otherwise: each file is compared with its counterpart and
    # counted once, and those that differ in the hash alone are listed apart
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "mode": "degm",
        "tasks": [{"name": f"{kind}-{i}", "source": "synthetic", "kind": kind,
                   "n_train": 40, "n_test": 20, "dim": 16}
                  for i, kind in enumerate(["half-active-top", "half-active-bottom"])],
        "train": {"epochs": 1, "batch": 16, "latent_dim": 3, "hidden_dim": 8, "probe_size": 20}}))
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(ROOT, "src"), changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    config_module = changed / "src" / "degm" / "config.py"
    source = config_module.read_text()
    assert source.count(".hexdigest()[:12]") == 1
    config_module.write_text(source.replace(".hexdigest()[:12]", ".hexdigest()[-12:]"))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"), ROOT,
                           str(changed), "--config", str(config), "--seeds", "0",
                           "--masks", str(min(os.sched_getaffinity(0)))],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *lines, hash_line, count_line = proc.stdout.splitlines()
    assert lines == []
    prefix = "differ only in the config hash: "
    assert hash_line.startswith(prefix)
    listed = [path.partition("mask")[2].partition("/")[2]
              for path in hash_line[len(prefix):].split()]
    # the V matrix, the config and the parameter blob name no config
    assert sorted(listed) == ["checkpoint/manifest.json", "eval_k1.csv", "eval_k50.csv",
                              "eval_metrics.csv", "expansion.csv", "metrics.csv", "summary.json"]
    assert count_line == "7 of 10 files differ"


def test_compare_outputs_scores_single_model_checkpoints_by_eval(tmp_path):
    # a copy whose single-model eval rows say another histogram differs only in
    # the eval tables, which the comparison writes for a gr run at both K'
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "mode": "gr",
        "tasks": [{"name": "top", "source": "synthetic", "kind": "half-active-top",
                   "n_train": 40, "n_test": 20, "dim": 16}],
        "train": {"epochs": 1, "batch": 16, "latent_dim": 3, "hidden_dim": 8}}))
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(ROOT, "src"), changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    select_eval = changed / "src" / "degm" / "select_eval.py"
    source = select_eval.read_text()
    assert source.count('"chosen_hist": "1"') == 1
    select_eval.write_text(source.replace('"chosen_hist": "1"', '"chosen_hist": "2"'))
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"), ROOT,
                           str(changed), "--config", str(config), "--seeds", "0",
                           "--masks", str(min(os.sched_getaffinity(0)))],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    differing = {line.rpartition("/")[2] for line in proc.stdout.splitlines()
                 if line.startswith("differs: ")}
    assert differing == {"eval_k1.csv", "eval_k50.csv"}


def test_compare_outputs_lists_the_files_a_tree_writes_differently_on_two_masks(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs")
    # a copy whose square loss adds the CPU count: equal to itself on each
    # mask, but its tables differ between the masks
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps({
        "mode": "gr",
        "tasks": [{"name": "top", "source": "synthetic", "kind": "half-active-top",
                   "n_train": 40, "n_test": 20, "dim": 16}],
        "train": {"epochs": 1, "batch": 16, "latent_dim": 3, "hidden_dim": 8}}))
    changed = tmp_path / "changed"
    shutil.copytree(os.path.join(ROOT, "src"), changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    lifelong = changed / "src" / "degm" / "lifelong.py"
    source = lifelong.read_text()
    lifelong.write_text(source.replace(".sum(axis=1).mean())",
                                       ".sum(axis=1).mean()) + len(__import__('os')"
                                       ".sched_getaffinity(0))"))
    cpus = sorted(os.sched_getaffinity(0))[:2]
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "compare_outputs.py"),
                           str(changed), str(changed), "--config", str(config), "--seeds", "0",
                           "--masks", str(cpus[0]), f"{cpus[0]},{cpus[1]}"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert not any(line.startswith("differs: ") for line in lines)
    across = {line.rpartition("/")[2] for line in lines if line.startswith("differs from mask ")}
    # the replay log, the diagnose report and the summary's final losses
    assert across == {"metrics.csv", "bounds_report.csv", "summary.json"}
    assert lines[-2:] == ["3 files the change writes differ between masks",
                          f"0 of {lines[-1].split()[2]} files differ"]


def test_compare_outputs_refuses_a_mask_outside_the_affinity(tmp_path, capsys):
    module = _load("compare_outputs.py")
    outside = str(max(os.sched_getaffinity(0)) + 1)
    assert module.main([ROOT, ROOT, "--config", str(tmp_path / "unread.json"), "--seeds", "0",
                        "--masks", outside, "--work", str(tmp_path / "work")]) == 2
    assert f"mask {outside} names CPUs outside" in capsys.readouterr().err
    assert not (tmp_path / "work").exists()  # refused before any command ran
