"""What each mode of ``degm train`` runs, what every verb writes, and the
layout of a run directory.

``RUNS`` maps a mode to its run function, ``(cfg, stream, rng, digest) ->
RunRecord``. A run function trains what its mode trains and computes every
table, model and summary field of the run directory, all of it timed as the
command's train phase; ``degm.persist.write_record`` then writes the record.
``digest``, the config hash, is the ``run_id`` of the metrics rows.

The ``cmd_*`` functions are the verbs. ``cmd_train`` makes the run
directory, <out_dir>/<config-hash>/, so identical configs land in identical
places, and removes it again when a run it started fails. ``cmd_eval``,
``cmd_diagnose`` and ``cmd_export_v`` read a run's models back and write one
table each. Every file goes through ``write_record``.
"""

from __future__ import annotations

import os
import shutil
import time
from functools import partial
from typing import Callable

import numpy as np

from . import bounds as bounds_mod
from .config import ExperimentConfig, config_hash, load_config_file
from .data import TaskStream, build_stream, order_streams
from .errors import ContractError, FormatError
from .graph import GraphModel
from .lifelong import (
    accumulated_final_risk,
    order_experiment,
    run_ablation,
    run_degm,
    run_gr_hier,
    run_gr_single,
)
from .nnkit import Rng, runtime
from .persist import RunRecord, load_checkpoint, write_record
from .select_eval import single_metric_table, task_metric_table

BOUNDS_REPORT = "bounds_report.csv"  # written by a bounds run, and again by diagnose
STORED = "checkpoint/{}_{}"  # a model kept per task: its prefix, and the task counted from 1
PHASES = ("train", "eval_table", "write")  # summary.json's env["phase_s"] keys; bounds adds one


def v_rows(graph: GraphModel) -> list[dict]:
    """v_matrix.csv: one row per node, its task id and its weight on each node."""
    return [{"task_id": entry.task_id, **{f"C{k + 1}": float(v) for k, v in enumerate(row)}}
            for row, entry in zip(graph.v_matrix(), graph.entries)]


def _graph_record(cfg: ExperimentConfig, stream: TaskStream, graph: GraphModel, log,
                  tables: dict) -> RunRecord:
    """degm and ablation: ``tables``, the graph with its log, V matrix and eval table."""
    t0 = time.perf_counter()
    rows = task_metric_table(graph, stream, kprime=cfg.eval_kprime, k_eval=cfg.eval_k)
    tables.update({"metrics.csv": log.rows, "v_matrix.csv": v_rows(graph),
                   "eval_metrics.csv": rows})
    if log.expansion:  # a one-task stream makes no decision
        tables["expansion.csv"] = log.expansion
    return RunRecord(tables, {"checkpoint": (graph, {})}, {
        "node_counts": {"basic": len(graph.basics), "specific": len(graph.specifics)},
        "mean_nll": float(np.mean([r["nll"] for r in rows])),
        "mean_sl": float(np.mean([r["sl"] for r in rows]))},
        {"eval_table": time.perf_counter() - t0})


def _replay_record(model, log, stored: dict, summary: dict) -> RunRecord:
    """gr, gr-hier and bounds: the model with its log, and each list of
    ``stored`` as checkpoint/<prefix>_<i>/ for task i."""
    models = {"checkpoint": (model, {})}
    for prefix, saved in stored.items():
        models.update({STORED.format(prefix, i + 1): (m, {"task_index": i + 1})
                       for i, m in enumerate(saved)})
    return RunRecord({"metrics.csv": log.rows}, models, summary)


def _run_degm(cfg, stream, rng, digest) -> RunRecord:
    return _graph_record(cfg, stream, *run_degm(stream, cfg.train, rng, run_id=digest), {})


def _run_ablation(cfg, stream, rng, digest) -> RunRecord:
    table, graphs, logs = run_ablation(stream, cfg.train, cfg.ablation, rng)
    return _graph_record(cfg, stream, graphs[cfg.ablation], logs[cfg.ablation],
                         {"ablation_table.csv": table})


def _run_replay(cfg, stream, rng, digest, runner=run_gr_single) -> RunRecord:
    model, log, snapshots = runner(stream, cfg.train, rng, run_id=digest)
    return _replay_record(model, log, {"task": snapshots},
                          {"final_accumulated_risk": accumulated_final_risk(log, stream)})


def _run_bounds(cfg, stream, rng, digest) -> RunRecord:
    out = bounds_mod.bounds_run(stream, cfg.train, rng, cfg.bounds_sample_size,
                                cfg.bounds_aux_epochs, run_id=digest)
    model, log, snapshots = out.gr_model, out.metrics_log, out.snapshots
    # the references are read back by diagnose
    record = _replay_record(model, log, {"task": snapshots, "ref": out.reference_models},
                            {"final_slack": out.rows[-1].slack})
    record.tables.update({
        BOUNDS_REPORT: bounds_mod.report_rows(out.rows, len(stream)),
        "bound_check.csv": bounds_mod.bound_check_report(out.rows),
        "accumulated_error.csv": bounds_mod.accumulated_error_proxy(
            snapshots, stream, model, rng.spawn("accum")),
        "curves.csv": bounds_mod.forgetting_curves(None, log, stream.input_dim)})
    record.phases["bounds_rows"] = out.rows_s  # spent inside the run
    return record


def _run_order_study(cfg, stream, rng, digest) -> RunRecord:
    report = order_experiment(order_streams(cfg, stream.tasks), cfg.train, rng)
    return RunRecord({"order_report.csv": report}, summary={"orders": [r["order"] for r in report]})


RUNS: dict[str, Callable[[ExperimentConfig, TaskStream, Rng, str], RunRecord]] = {
    "degm": _run_degm, "ablation": _run_ablation, "gr": _run_replay,
    "gr-hier": partial(_run_replay, runner=run_gr_hier), "bounds": _run_bounds,
    "order-study": _run_order_study}


# -- the verbs ----------------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig) -> str:
    """Run the configured mode and write its record into the run directory;
    returns the run directory. A run that fails removes the run directory
    when this call created it."""
    start = runtime.usage()
    stream = build_stream(cfg)  # before the run directory, so bad tasks or orderings leave none
    digest = config_hash(cfg)
    run_dir = os.path.join(cfg.out_dir, digest)
    created = not os.path.isdir(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        record = RUNS[cfg.mode](cfg, stream, Rng(cfg.train.seed), digest)
        t1 = time.perf_counter()
        record.documents["config.json"] = cfg.raw
        write_record(run_dir, record, digest)
    except BaseException:
        if created:
            shutil.rmtree(run_dir, ignore_errors=True)
        raise
    phases = {**dict.fromkeys(PHASES, 0.0), **record.phases, "train": t1 - t0,
              "write": time.perf_counter() - t1}
    summary = {"config_hash": digest, "mode": cfg.mode, "seed": cfg.train.seed,
               "tasks": [t.name for t in stream.tasks], **record.summary,
               "env": {**runtime.env_block(start), "phase_s": phases}}
    write_record(run_dir, RunRecord(documents={"summary.json": summary}))
    return run_dir


def cmd_eval(checkpoint_dir: str, cfg: ExperimentConfig, kprime: int,
             out_path: str | None = None) -> list[dict]:
    """Metric table for a stored model on the configured stream."""
    kind, model, _ = load_checkpoint(checkpoint_dir)
    stream = build_stream(cfg)
    if kind == "graph":
        rows = task_metric_table(model, stream, kprime=kprime, k_eval=cfg.eval_k)
    else:
        rows = single_metric_table(model, stream, kprime=kprime)
    if out_path:  # hashed whatever its file name
        write_record(os.path.dirname(out_path),
                     RunRecord({os.path.basename(out_path): rows}, unhashed=()), config_hash(cfg))
    return rows


def eval_path(checkpoint: str, kprime: int) -> str:
    """Where eval writes without --out: eval_k<K'>.csv for a run's
    checkpoint/, else eval_k<K'>_<name>.csv for the checkpoint <name>/; in
    the run directory for a snapshot checkpoint/<name>/. So never inside a
    checkpoint, over the table train wrote or over another checkpoint's."""
    parent, name = os.path.split(os.path.normpath(checkpoint))
    if os.path.basename(parent) == "checkpoint":
        parent = os.path.dirname(parent)
    return os.path.join(parent, f"eval_k{kprime}{'' if name == 'checkpoint' else '_' + name}.csv")


def cmd_diagnose(run_dir: str) -> str:
    """Recompute bound diagnostics at task-end granularity from stored snapshots."""
    config_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(config_path):
        raise FormatError(f"no config.json in {run_dir}")
    cfg = load_config_file(config_path)
    digest = config_hash(cfg)
    stream = build_stream(cfg)
    snapshots = _stored_models(run_dir, "task", len(stream), digest, ("single", "hier"))
    if snapshots is None:
        raise FormatError(f"{run_dir} holds no task snapshots; diagnose needs a gr/bounds run")
    rng = Rng(cfg.train.seed)
    refs = _stored_models(run_dir, "ref", len(stream), digest, ("single",))
    if refs is None:  # gr and gr-hier runs store none
        refs = bounds_mod.fit_references(stream, cfg.train, rng, cfg.bounds_aux_epochs)
    rows = bounds_mod.diagnose_snapshots(stream, cfg.train, snapshots, refs, rng,
                                         cfg.bounds_sample_size, cfg.bounds_aux_epochs)
    write_record(run_dir, RunRecord({BOUNDS_REPORT: bounds_mod.report_rows(rows, len(stream))}),
                 digest)
    return os.path.join(run_dir, BOUNDS_REPORT)


def _stored_models(run_dir: str, prefix: str, n_tasks: int, digest: str,
                   kinds: tuple[str, ...]) -> list | None:
    """The models a run saved as checkpoint/<prefix>_<i>/ for each task i (the
    replay model's snapshots under "task", a bounds run's reference models
    under "ref"), or None when it saved none. A partial set, or a model of
    another kind than ``kinds``, another config or another task, is an error
    rather than a reason to fit them again."""
    dirs = [os.path.join(run_dir, STORED.format(prefix, i + 1)) for i in range(n_tasks)]
    present = [d for d in dirs if os.path.isdir(d)]
    if not present:
        return None
    if len(present) != n_tasks:
        raise FormatError(f"{run_dir} holds {len(present)} of {n_tasks} {prefix}_<i> models")
    models = []
    for i, model_dir in enumerate(dirs):
        kind, model, manifest = load_checkpoint(model_dir)
        extra = manifest.get("extra")
        extra = extra if isinstance(extra, dict) else {}
        if (kind not in kinds
                or (extra.get("config_hash"), extra.get("task_index")) != (digest, i + 1)):
            raise FormatError(f"{model_dir} is not a {' or '.join(kinds)} model saved for "
                              f"task {i + 1} by config {digest}")
        models.append(model)
    return models


def cmd_export_v(checkpoint_dir: str, out_path: str) -> None:
    kind, model, _ = load_checkpoint(checkpoint_dir)
    if kind != "graph":
        raise ContractError("export-v needs a graph checkpoint")
    write_record(os.path.dirname(out_path), RunRecord({os.path.basename(out_path): v_rows(model)}))
