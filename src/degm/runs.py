"""What each mode of ``degm train`` runs, what every verb writes, and the
layout of a run directory.

``RUNS`` maps a mode to its run function, ``(cfg, stream, rng) ->
RunRecord``. A run function trains what its mode trains and computes every
table, model and summary field of the run directory, all of it timed as the
command's train phase; ``degm.persist.write_record`` then writes the record,
and the config hash with it.

The ``cmd_*`` functions are the verbs. ``cmd_train`` writes the run
directory, <out_dir>/<config-hash>/, so identical configs land in identical
places: it writes a staging sibling and publishes it whole, in place of any
earlier run directory, only when the run has succeeded. ``cmd_eval``,
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
    """degm and ablation: ``tables``, the graph with its log, V matrix and eval
    table. v_matrix.csv carries no config hash: its readers, perfbench's among
    them, take every column after its first for a weight."""
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
        {"eval_table": time.perf_counter() - t0}, unhashed=("v_matrix.csv",))


def _replay_record(log, stored: dict, summary: dict) -> RunRecord:
    """gr, gr-hier and bounds: the log, and each list of ``stored`` as
    checkpoint/<prefix>_<i>/ for task i; the final model is the last
    ``task`` snapshot, so it is saved once, as checkpoint/task_<n>/."""
    models = {STORED.format(prefix, i + 1): (m, {"task_index": i + 1})
              for prefix, saved in stored.items() for i, m in enumerate(saved)}
    return RunRecord({"metrics.csv": log.rows}, models, summary)


def _run_degm(cfg, stream, rng) -> RunRecord:
    return _graph_record(cfg, stream, *run_degm(stream, cfg.train, rng), {})


def _run_ablation(cfg, stream, rng) -> RunRecord:
    table, graph, log = run_ablation(stream, cfg.train, cfg.ablation, rng)
    return _graph_record(cfg, stream, graph, log, {"ablation_table.csv": table})


def _run_replay(cfg, stream, rng, runner=run_gr_single) -> RunRecord:
    _, log, snapshots = runner(stream, cfg.train, rng)
    return _replay_record(log, {"task": snapshots},
                          {"final_accumulated_risk": accumulated_final_risk(log, stream)})


def _run_bounds(cfg, stream, rng) -> RunRecord:
    out = bounds_mod.bounds_run(stream, cfg.train, rng, cfg.bounds_sample_size,
                                cfg.bounds_aux_epochs)
    # the references are read back by diagnose
    record = _replay_record(out.metrics_log, {"task": out.snapshots, "ref": out.reference_models},
                            {"final_slack": out.rows[-1].slack})
    record.tables.update({
        BOUNDS_REPORT: bounds_mod.report_rows(out.rows, len(stream)),
        "bound_check.csv": bounds_mod.bound_check_report(out.rows),
        "accumulated_error.csv": bounds_mod.accumulated_error_proxy(
            out.snapshots, stream, rng.spawn("accum")),
        "curves.csv": bounds_mod.forgetting_curves(None, out.metrics_log, stream.input_dim)})
    record.phases["bounds_rows"] = out.rows_s  # spent inside the run
    return record


def _run_order_study(cfg, stream, rng) -> RunRecord:
    report = order_experiment(order_streams(cfg, stream.tasks), cfg.train, rng)
    return RunRecord({"order_report.csv": report}, summary={"orders": [r["order"] for r in report]})


RUNS: dict[str, Callable[[ExperimentConfig, TaskStream, Rng], RunRecord]] = {
    "degm": _run_degm, "ablation": _run_ablation, "gr": _run_replay,
    "gr-hier": partial(_run_replay, runner=run_gr_hier), "bounds": _run_bounds,
    "order-study": _run_order_study}


# -- the verbs ----------------------------------------------------------------------

def cmd_train(cfg: ExperimentConfig) -> str:
    """Run the configured mode and write its record and summary.json into a
    staging sibling of the run directory, .<config-hash>.<pid>.tmp; then
    rename it to the run directory, which returns, moving any earlier one
    aside first (a rename cannot replace a directory that holds files) and
    deleting that after. A failed run leaves an earlier one as it was."""
    start = runtime.usage()
    stream = build_stream(cfg)  # before any directory, so bad tasks or orderings leave none
    digest = config_hash(cfg)
    run_dir = os.path.join(cfg.out_dir, digest)
    staging = os.path.join(cfg.out_dir, f".{digest}.{os.getpid()}.tmp")
    earlier = staging + ".old"
    for path in (staging, earlier):  # left by a killed run of this pid
        shutil.rmtree(path, ignore_errors=True)
    os.makedirs(staging)
    try:
        t0 = time.perf_counter()
        record = RUNS[cfg.mode](cfg, stream, Rng(cfg.train.seed))
        t1 = time.perf_counter()
        record.documents["config.json"] = cfg.raw
        write_record(staging, record, digest)
        phases = {**dict.fromkeys(PHASES, 0.0), **record.phases, "train": t1 - t0,
                  "write": time.perf_counter() - t1}
        summary = {"config_hash": digest, "mode": cfg.mode, "seed": cfg.train.seed,
                   "tasks": [t.name for t in stream.tasks], **record.summary,
                   "env": {**runtime.env_block(start), "phase_s": phases}}
        write_record(staging, RunRecord(documents={"summary.json": summary}))
        if os.path.isdir(run_dir):
            os.replace(run_dir, earlier)
        os.replace(staging, run_dir)
    except BaseException:
        if os.path.isdir(earlier):  # moved aside, and the new one is not in place
            os.replace(earlier, run_dir)
        raise
    finally:
        for path in (staging, earlier):
            shutil.rmtree(path, ignore_errors=True)
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
    if out_path:
        write_record(os.path.dirname(out_path), RunRecord({os.path.basename(out_path): rows}),
                     config_hash(cfg))
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
