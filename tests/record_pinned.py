"""Record the outputs of the committed configs that ``test_pinned.py`` checks.

    PYTHONPATH=src python3 tests/record_pinned.py

Run it from a checkout whose outputs are trusted. For each
``configs/*.json`` at seed 0 it runs ``degm train``; then ``degm eval`` at
K'=1 and K'=50 of the run's final model (``checkpoint/`` of a degm or
ablation run, ``checkpoint/task_<n>/`` of a replay run); then, for a gr,
gr-hier or bounds run, ``degm diagnose``. Every value of every table these
write is kept, with ``summary.json`` but for its ``env``, and rewrites
tests/pinned_outputs.json, keyed by the config's file stem. Left out: the
``config_hash`` column and ``summary.json``'s ``config_hash``, which name the
config rather than measure the run.
Re-record only in a change that means to change these outputs, and say which
and why; the diff of that one file then shows them.
"""

from __future__ import annotations

import csv
import glob
import json
import os
import shutil
import sys
import tempfile

from degm.cli import cmd_diagnose, cmd_eval, cmd_train, load_config_file

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))
PIN_PATH = os.path.join(ROOT, "tests", "pinned_outputs.json")
SEED = 0
KPRIMES = (1, 50)
REPLAY_MODES = ("gr", "gr-hier", "bounds")
NAMING = {"config_hash"}  # columns left out of every table
RECORDED_ENV = ("numpy", "blas", "blas_version")  # summary.json env keys kept beside the pin


def read_table(path: str, left_out=NAMING) -> dict:
    """A CSV table's columns and rows but ``left_out``, each cell the text
    written: a float's text is its shortest round-trip repr, so text equal
    means value equal."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, name in enumerate(header) if name not in left_out]
        return {"columns": [header[i] for i in keep],
                "rows": [[row[i] for i in keep] for row in reader]}


def config_outputs(config: str, work: str) -> tuple[dict, dict]:
    """The pinned values of one config, and the recording env of its run."""
    cfg = load_config_file(config, seed=SEED, out_dir=work)
    run_dir = cmd_train(cfg)
    outputs = {}
    for path in sorted(glob.glob(os.path.join(run_dir, "*.csv"))):
        outputs[os.path.basename(path)] = read_table(path)
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    env = summary.pop("env")
    summary.pop("config_hash")
    outputs["summary.json"] = summary
    replay = cfg.mode in REPLAY_MODES
    final = os.path.join(run_dir, "checkpoint", f"task_{len(cfg.tasks)}" if replay else "")
    if os.path.isdir(final):  # an order-study run keeps no model
        for k in KPRIMES:
            out = os.path.join(work, f"eval_k{k}.csv")
            cmd_eval(final, cfg, k, out)
            outputs[f"eval_k{k}.csv"] = read_table(out)
    if replay:
        outputs["diagnose/bounds_report.csv"] = read_table(cmd_diagnose(run_dir))
    return outputs, {key: env[key] for key in RECORDED_ENV}


def stem(config: str) -> str:
    return os.path.splitext(os.path.basename(config))[0]


def main() -> int:
    work = tempfile.mkdtemp(prefix="record_pinned-")
    pinned, env = {}, {}
    try:
        for config in CONFIGS:
            pinned[stem(config)], env = config_outputs(config, os.path.join(work, stem(config)))
            print(f"{stem(config)}: recorded", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(PIN_PATH, "w") as fh:
        json.dump({"recorded_with": env, "configs": pinned}, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
