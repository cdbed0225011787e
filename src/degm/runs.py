"""What each mode of ``degm train`` runs, and what it writes.

``RUNS`` maps a mode to its run function, ``(cfg, stream, rng, digest) ->
RunRecord``. A run function trains what its mode trains and computes every
table, model and summary field of the run directory, all of it timed as the
command's train phase; ``degm.persist.write_record`` then writes the record.
``digest``, the config hash, is the ``run_id`` of the metrics rows.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable

import numpy as np

from . import bounds as bounds_mod
from .config import ExperimentConfig
from .graph import GraphModel
from .lifelong import (
    TaskStream,
    accumulated_final_risk,
    order_experiment,
    run_ablation,
    run_degm,
    run_gr_hier,
    run_gr_single,
)
from .nnkit import Rng
from .persist import RunRecord
from .select_eval import task_metric_table


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
        models.update({f"checkpoint/{prefix}_{i + 1}": (m, {"task_index": i + 1})
                       for i, m in enumerate(saved)})
    return RunRecord({"metrics.csv": log.rows}, models, summary)


def _run_degm(cfg, stream, rng, digest) -> RunRecord:
    return _graph_record(cfg, stream, *run_degm(stream, cfg.train, rng, run_id=digest), {})


def _run_ablation(cfg, stream, rng, digest) -> RunRecord:
    table, graphs, logs = run_ablation(stream, cfg.train, cfg.ablation, rng)
    return _graph_record(cfg, stream, graphs[cfg.ablation], logs[cfg.ablation],
                         {"ablation_table.csv": table})


def _run_replay(cfg, stream, rng, digest, runner=run_gr_single) -> RunRecord:
    model, log, artifacts = runner(stream, cfg.train, rng, run_id=digest)
    return _replay_record(model, log, {"task": artifacts.snapshots},
                          {"final_accumulated_risk": accumulated_final_risk(log, stream)})


def _run_bounds(cfg, stream, rng, digest) -> RunRecord:
    out = bounds_mod.bounds_run(stream, cfg.train, rng, sample_size=cfg.bounds_sample_size,
                                aux_epochs=cfg.bounds_aux_epochs, run_id=digest)
    model, log, snapshots = out.gr_model, out.metrics_log, out.gr_artifacts.snapshots
    # the references are read back by diagnose
    record = _replay_record(model, log, {"task": snapshots, "ref": out.reference_models},
                            {"final_slack": out.rows[-1].slack})
    record.tables.update({
        "bounds_report.csv": bounds_mod.report_rows(out.rows, len(stream)),
        "bound_check.csv": bounds_mod.bound_check_report(out),
        "accumulated_error.csv": bounds_mod.accumulated_error_proxy(
            snapshots, stream, model, rng.spawn("accum")),
        "curves.csv": bounds_mod.forgetting_curves(None, log, stream.input_dim)})
    record.phases["bounds_rows"] = out.rows_s  # spent inside the run
    return record


def _run_order_study(cfg, stream, rng, digest) -> RunRecord:
    report = order_experiment(_order_streams(cfg, stream), cfg.train, rng)
    return RunRecord({"order_report.csv": report}, summary={"orders": [r["order"] for r in report]})


def _order_streams(cfg: ExperimentConfig, stream: TaskStream) -> list[TaskStream]:
    """One stream per configured ordering, each a permutation of the first,
    as ``degm.cli.build_stream`` checked."""
    by_name = {t.name: t for t in stream.tasks}
    return [TaskStream([by_name[n] for n in names]) for names in cfg.orders]


RUNS: dict[str, Callable[[ExperimentConfig, TaskStream, Rng, str], RunRecord]] = {
    "degm": _run_degm, "ablation": _run_ablation, "gr": _run_replay,
    "gr-hier": partial(_run_replay, runner=run_gr_hier), "bounds": _run_bounds,
    "order-study": _run_order_study}
