"""The benchmark workloads: configs made from the seed, the timed CLI commands,
the work each run does, and the outputs each run is checked on.

Every workload drives the command functions behind ``degm train``,
``degm eval`` and ``degm diagnose`` (``degm.cli.cmd_*``), one command at a
time in one process. The program only ever sees the generated config.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from time import perf_counter

DIM, N_TRAIN, N_TEST, LATENT, HIDDEN = 64, 600, 300, 32, 200
FAMILIES = ("half-active-top", "half-active-bottom")

# Sizes scaled so one iteration takes 1-2.5 s on a 2-core box.
STREAM_TASKS, STREAM_EPOCHS, STREAM_TAU = 8, 3, 15.0
GR_KINDS, GR_EPOCHS = FAMILIES + ("bars", "stripes"), 3
BOUNDS_KINDS, BOUNDS_EPOCHS, BOUNDS_AUX_EPOCHS, BOUNDS_SAMPLE = FAMILIES + ("bars",), 3, 3, 300
EVAL_KPRIMES = (1, 50)
# eval-select always reads the checkpoint the degm-stream config trains at
# this seed; the workload seed draws the test sets it scores. A checkpoint
# per seed would make the share of rows that pick a basic node (0.2 to 0.6
# over seeds 26-31), and with it the K'=50 decoder work, vary by seed.
EVAL_CHECKPOINT_SEED = 0
# The workload seed picks one of INPUT_SETS input sets, seed mod INPUT_SETS.
# refs.json holds the outputs of each, so every run, whatever its seed, is
# checked against outputs recorded before the change under test.
INPUT_SETS = 32
HERE = os.path.dirname(os.path.abspath(__file__))
CHILD_TIMEOUT_S = 150


def input_seed(seed: int) -> int:
    return seed % INPUT_SETS


def _task(i: int, kind: str, seed: int) -> dict:
    return {"name": f"{kind.rpartition('-')[2]}-{i}", "source": "synthetic", "kind": kind,
            "n_train": N_TRAIN, "n_test": N_TEST, "dim": DIM, "seed": seed}


def _train(seed: int, epochs: int, **extra) -> dict:
    return {"epochs": epochs, "batch": 64, "lr": 1e-3, "latent_dim": LATENT,
            "hidden_dim": HIDDEN, "seed": seed, **extra}


def stream_config(seed: int) -> dict:
    # Two disjoint families, alternating. At 3 epochs a task's knowledge score
    # against the other family's basic node is 28 or more, against its own
    # family's 4.6 or less (seeds 0-199), so with tau 15 the first two tasks
    # grow basic nodes and every later one a specific node blending both.
    tasks = [_task(i, FAMILIES[i % 2], seed) for i in range(STREAM_TASKS)]
    return {"mode": "degm", "tasks": tasks,
            "train": _train(seed, STREAM_EPOCHS, tau=STREAM_TAU, probe_size=N_TRAIN // 2)}


def gr_config(seed: int) -> dict:
    tasks = [_task(i, kind, seed) for i, kind in enumerate(GR_KINDS)]
    return {"mode": "gr", "tasks": tasks, "train": _train(seed, GR_EPOCHS)}


def bounds_config(seed: int) -> dict:
    tasks = [_task(i, kind, seed) for i, kind in enumerate(BOUNDS_KINDS)]
    return {"mode": "bounds", "tasks": tasks,
            "train": _train(seed, BOUNDS_EPOCHS, likelihood="gaussian"),
            "bounds": {"sample_size": BOUNDS_SAMPLE, "aux_epochs": BOUNDS_AUX_EPOCHS}}


# -- reading a run's outputs --------------------------------------------------------------

def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _last_rows(metrics: list[dict]) -> list[list[float]]:
    """(objective_value, square_loss) of the last metrics.csv row per eval task."""
    last: dict[int, dict] = {}
    for row in metrics:
        last[int(row["eval_task"])] = row
    return [[float(last[t]["objective_value"]), float(last[t]["square_loss"])]
            for t in sorted(last)]


def _accuracy(rows: list[dict], task_ids: list[int]) -> float:
    """Share of test rows whose chosen node owns their task (stream order = task id)."""
    owner = {task_id: j for j, task_id in enumerate(task_ids)}
    hits = total = 0
    for t, row in enumerate(rows):
        hist = [int(c) for c in str(row["chosen_hist"]).split("|")]
        hits += hist[owner[t]]
        total += sum(hist)
    return hits / total


def _graph_outputs(checkpoint: str) -> dict:
    with open(os.path.join(checkpoint, "manifest.json")) as fh:
        manifest = json.load(fh)
    return {"kinds": [n["kind"] for n in manifest["nodes"]],
            "task_ids": [n["task_id"] for n in manifest["nodes"]]}


# -- workloads ------------------------------------------------------------------------------

class Workload:
    """One named workload. ``config`` gives the program's input for a seed;
    ``run`` executes the timed commands and returns their times and outputs."""

    name = ""
    why = ""
    commands: tuple[str, ...] = ()
    setup_reps = 5  # set-ups before each timed run; setup_s is the median of all set-ups
    setups_first = 0  # set-ups before the warm-up run, outside the measured time

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def prepare(self, cli, work_dir: str) -> dict:
        """Set-up beyond parse_config and build_stream; its result feeds ``run``."""
        return {}

    def run(self, cli, cfg, state: dict, out_dir: str) -> tuple[dict, dict]:
        raise NotImplementedError

    def work_rows(self, stream) -> dict:
        """Rows each timed command processes, computed from the config."""
        raise NotImplementedError

    def invariants(self, out: dict, stream) -> list[str]:
        """Checks that hold for every seed."""
        return []


def _timed(fn, *args):
    t0 = perf_counter()
    result = fn(*args)
    return perf_counter() - t0, result


class DegmStream(Workload):
    name = "degm-stream"
    why = ("degm train on 8 tasks: mixture-bound training through frozen basic nodes, "
           "per-epoch logging that grows with the square of the task count, checkpointing")
    commands = ("train",)

    def config(self, seed):
        return stream_config(seed)

    def run(self, cli, cfg, state, out_dir):
        cfg.out_dir = cfg.raw["out_dir"] = out_dir
        seconds, run_dir = _timed(cli.cmd_train, cfg)
        return {"train": seconds}, stream_outputs(run_dir)

    def work_rows(self, stream):
        return {"train": STREAM_EPOCHS * sum(t.train.n for t in stream.tasks)}

    def invariants(self, out, stream):
        n = len(stream.tasks)
        return (_count("metrics.csv rows", out["metrics_rows"], STREAM_EPOCHS * n * (n + 1) // 2)
                + _graph_invariants(out, n)
                + _finite(out))


def stream_outputs(run_dir: str) -> dict:
    out = _graph_outputs(os.path.join(run_dir, "checkpoint"))
    metrics_path = os.path.join(run_dir, "metrics.csv")
    metrics = _read_csv(metrics_path)
    with open(os.path.join(run_dir, "v_matrix.csv"), newline="") as fh:
        v = [[float(c) for c in row[1:]] for row in list(csv.reader(fh))[1:]]
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    evals = _read_csv(os.path.join(run_dir, "eval_metrics.csv"))
    out.update({
        "v": v, "last_rows": _last_rows(metrics), "metrics_rows": len(metrics),
        "mean_nll": summary["mean_nll"], "mean_sl": summary["mean_sl"],
        "accuracy": _accuracy(evals, out["task_ids"]),
        "metrics_sha256": _sha256(metrics_path),
    })
    return out


class GrReplay(Workload):
    name = "gr-replay"
    why = ("degm train in mode gr on 4 tasks: one VAE retrained on its own generations; "
           "control for changes to graph or select_eval, where no change is predicted")
    commands = ("train",)

    def config(self, seed):
        return gr_config(seed)

    def run(self, cli, cfg, state, out_dir):
        cfg.out_dir = cfg.raw["out_dir"] = out_dir
        seconds, run_dir = _timed(cli.cmd_train, cfg)
        metrics_path = os.path.join(run_dir, "metrics.csv")
        metrics = _read_csv(metrics_path)
        with open(os.path.join(run_dir, "summary.json")) as fh:
            summary = json.load(fh)
        snapshots = sorted(d for d in os.listdir(os.path.join(run_dir, "checkpoint"))
                           if d.startswith("task_"))
        out = {"last_rows": _last_rows(metrics), "metrics_rows": len(metrics),
               "final_accumulated_risk": summary["final_accumulated_risk"],
               "snapshots": len(snapshots), "accuracy": 0.0,
               "metrics_sha256": _sha256(metrics_path)}
        return {"train": seconds}, out

    def work_rows(self, stream):
        # task i trains on its own rows plus i x |train_i| generated rows
        return {"train": GR_EPOCHS * sum((i + 1) * t.train.n for i, t in enumerate(stream.tasks))}

    def invariants(self, out, stream):
        n = len(stream.tasks)
        return (_count("metrics.csv rows", out["metrics_rows"], GR_EPOCHS * n * (n + 1) // 2)
                + _count("snapshots", out["snapshots"], n)
                + _finite(out))


class EvalSelect(Workload):
    name = "eval-select"
    why = ("degm eval of a fixed degm-stream checkpoint on seeded test sets at K'=1 and "
           "K'=50: selection and NLL forward passes only, no backprop")
    commands = tuple(f"eval_k{k}" for k in EVAL_KPRIMES)
    # each set-up trains the checkpoint, which takes longer than both evals,
    # so the set-ups come first and the measured time holds only evals
    setup_reps, setups_first = 0, 3

    def config(self, seed):
        return stream_config(seed)

    def prepare(self, cli, work_dir):
        # trained in a child process, so that the benchmark process's peak
        # memory covers the evals and not this training
        cmd = [sys.executable, os.path.join(HERE, "train_checkpoint.py"),
               os.path.join(work_dir, "checkpoint-run")]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"training the checkpoint failed:\n{proc.stderr[-2000:]}")
        run_dir = proc.stdout.strip().splitlines()[-1]
        checkpoint = os.path.join(run_dir, "checkpoint")
        return {"checkpoint": checkpoint, "metrics_sha256": _sha256(os.path.join(run_dir, "metrics.csv")),
                **_graph_outputs(checkpoint)}

    def run(self, cli, cfg, state, out_dir):
        os.makedirs(out_dir, exist_ok=True)
        times = {}
        out = {"kinds": state["kinds"], "task_ids": state["task_ids"],
               "metrics_sha256": state["metrics_sha256"]}
        for k in EVAL_KPRIMES:
            seconds, rows = _timed(cli.cmd_eval, state["checkpoint"], cfg, k,
                                   os.path.join(out_dir, f"eval_k{k}.csv"))
            times[f"eval_k{k}"] = seconds
            out[f"nll_k{k}"] = [float(r["nll"]) for r in rows]
            out[f"sl_k{k}"] = [float(r["sl"]) for r in rows]
            out[f"mean_nll_k{k}"] = sum(out[f"nll_k{k}"]) / len(rows)
            if k == EVAL_KPRIMES[0]:
                out["accuracy"] = _accuracy(rows, state["task_ids"])
        return times, out

    def work_rows(self, stream):
        rows = sum(t.test.n for t in stream.tasks)
        return {f"eval_k{k}": rows for k in EVAL_KPRIMES}

    def invariants(self, out, stream):
        n = len(stream.tasks)
        problems = _graph_invariants({**out, "v": None}, n) + _finite(out)
        for k in EVAL_KPRIMES:
            problems += _count(f"eval rows at K'={k}", len(out[f"nll_k{k}"]), n)
        return problems


class BoundsDiag(Workload):
    name = "bounds-diag"
    why = ("degm train in mode bounds (gaussian, 3 tasks) then degm diagnose on its run "
           "directory: the only path through degm.bounds")
    commands = ("train", "diagnose")

    def config(self, seed):
        return bounds_config(seed)

    def run(self, cli, cfg, state, out_dir):
        cfg.out_dir = cfg.raw["out_dir"] = out_dir
        train_s, run_dir = _timed(cli.cmd_train, cfg)
        report = os.path.join(run_dir, "bounds_report.csv")
        train_rows = _read_csv(report)
        check_rows = _read_csv(os.path.join(run_dir, "bound_check.csv"))
        metrics_path = os.path.join(run_dir, "metrics.csv")
        metrics = _read_csv(metrics_path)
        with open(os.path.join(run_dir, "summary.json")) as fh:
            summary = json.load(fh)
        diagnose_s, _ = _timed(cli.cmd_diagnose, run_dir)
        diag_rows = _read_csv(report)
        out = {"last_rows": _last_rows(metrics), "metrics_rows": len(metrics),
               "final_slack": summary["final_slack"],
               "train_report_rows": len(train_rows), "check_rows": len(check_rows),
               "train_slack": [float(r["slack"]) for r in train_rows],
               "check_slack": [float(r["slack"]) for r in check_rows],
               "diagnose_rows": len(diag_rows),
               "diagnose_slack": [float(r["slack"]) for r in diag_rows],
               "diagnose_disc": [float(r["disc_lower_bound"]) for r in diag_rows],
               "accuracy": 0.0, "metrics_sha256": _sha256(metrics_path)}
        return {"train": train_s, "diagnose": diagnose_s}, out

    def work_rows(self, stream):
        # rows through a gradient step: the replay training, plus the reference
        # fits (one per task) and auxiliary fits (one per later task) that both
        # train and diagnose make
        n = [t.train.n for t in stream.tasks]
        mixtures = [(i + 1) * n_i for i, n_i in enumerate(n)]
        fits = BOUNDS_AUX_EPOCHS * (sum(n) + sum(mixtures[1:]))
        return {"train": BOUNDS_EPOCHS * sum(mixtures) + fits, "diagnose": fits}

    def invariants(self, out, stream):
        n = len(stream.tasks)
        return (_count("metrics.csv rows", out["metrics_rows"], BOUNDS_EPOCHS * n * (n + 1) // 2)
                + _count("bounds_report.csv rows after train", out["train_report_rows"],
                         BOUNDS_EPOCHS * n)
                + _count("bound_check.csv rows", out["check_rows"], BOUNDS_EPOCHS * n)
                + _count("bounds_report.csv rows after diagnose", out["diagnose_rows"], n)
                + _finite(out))


WORKLOADS = {w.name: w for w in (DegmStream(), GrReplay(), EvalSelect(), BoundsDiag())}


# -- seed-independent checks -------------------------------------------------------------------

def _count(what: str, got: int, want: int) -> list[str]:
    return [] if got == want else [f"{what}: {got}, expected {want}"]


def _finite(out: dict) -> list[str]:
    bad = [key for key, value in out.items() if not _all_finite(value)]
    return [f"non-finite values in {key}" for key in bad]


def _all_finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, list):
        return all(_all_finite(v) for v in value)
    return True


def _graph_invariants(out: dict, n_tasks: int) -> list[str]:
    problems = _count("nodes", len(out["kinds"]), n_tasks)
    if out["kinds"][:1] != ["basic"]:
        problems.append(f"first node is {out['kinds'][:1]}, expected basic")
    if out["task_ids"] != list(range(n_tasks)):
        problems.append(f"node task ids {out['task_ids']}")
    if not 0.0 <= out["accuracy"] <= 1.0:
        problems.append(f"selection accuracy {out['accuracy']} outside [0, 1]")
    for kind, row in zip(out["kinds"], out["v"] or []):
        if kind == "basic" and any(row):
            problems.append("a basic node has a nonzero V row")
        if kind == "specific" and (min(row) < 0.0 or abs(sum(row) - 1.0) > 1e-9):
            problems.append(f"a specific node's V row is off the simplex: {row}")
    return problems
