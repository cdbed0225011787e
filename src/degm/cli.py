"""The command-line entry point: argument parsing, stream construction and
one function per verb.

Verbs: train, eval, diagnose, export-v, ablate, gen-synthetic. A run writes
into <out_dir>/<config-hash>/ so identical configs land in identical places;
every table carries the config hash. Config files are JSON, checked by
:mod:`degm.config`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import time

import numpy as np

from . import bounds as bounds_mod
from .config import (EVAL, TASK, ExperimentConfig, config_hash, parse_config, rule,
                     serialize_config)
from .data import (
    attach_labels,
    downsample,
    load_idx,
    save_idx_images,
    save_idx_labels,
    split_by_labels,
    synthetic_task,
    transform_chain,
)
from .errors import ConfigError, ContractError, FormatError, TrainingError
from .graph import GraphModel
from .lifelong import (
    Task,
    TaskStream,
    accumulated_final_risk,
    order_experiment,
    run_ablation,
    run_degm,
    run_gr_hier,
    run_gr_single,
)
from .nnkit import Rng, runtime
from .persist import load_checkpoint, save_graph, save_single, write_table
from .select_eval import single_metric_table, task_metric_table


# -- stream construction ------------------------------------------------------------

def _load_split(spec: dict, which: str):
    images = load_idx(spec[f"{which}_images"])
    labels = spec[f"{which}_labels"]
    return images if labels is None else attach_labels(images, load_idx(labels))


def _task_data(spec: dict) -> list[tuple]:
    """(name, train, test) of each task a spec describes, before its transforms.
    Synthetic data is keyed by the task's seed and name."""
    if spec["source"] == "synthetic":
        center = None if spec["center"] is None else tuple(spec["center"])
        train, test = (synthetic_task(spec["kind"], spec[f"n_{which}"], spec["dim"],
                                      Rng(spec["seed"]).spawn(f"data:{spec['name']}:{which}"),
                                      center=center)
                       for which in ("train", "test"))
        return [(spec["name"], train, test)]
    train, test = _load_split(spec, "train"), _load_split(spec, "test")
    if spec["split_groups"] is not None:
        groups = [set(g) for g in spec["split_groups"]]
        return [(f"{spec['name']}-{gname}", tr, te)
                for gname, tr, te in split_by_labels(train, test, groups)]
    if spec["labels"] is not None:
        [(_, train, test)] = split_by_labels(train, test, [set(spec["labels"])])
    return [(spec["name"], train, test)]


def build_stream(cfg: ExperimentConfig) -> TaskStream:
    """The task stream of the config's specs, their defaults filled by degm.config."""
    tasks = []
    for spec in cfg.tasks:
        for name, train, test in _task_data(spec):
            train, test = (transform_chain(d, spec["transforms"]) for d in (train, test))
            if cfg.desk_scale:
                train, test = downsample(train), downsample(test)
            tasks.append(Task(name, train, test))
    return TaskStream(tasks)


# -- commands -----------------------------------------------------------------------------

def export_v_csv(graph: GraphModel, path: str) -> None:
    write_table(path, [{"task_id": entry.task_id,
                        **{f"C{k + 1}": float(val) for k, val in enumerate(row)}}
                       for row, entry in zip(graph.v_matrix(), graph.entries)])


PHASES = ("train", "eval_table", "write")  # summary.json's env["phase_s"] keys


def cmd_train(cfg: ExperimentConfig) -> str:
    """Run the configured experiment; returns the run directory. A run that
    fails removes the run directory when this call created it."""
    start = runtime.usage()
    phases = dict.fromkeys(PHASES, 0.0)
    # both before the run directory, so bad tasks or orderings leave none
    stream = build_stream(cfg)
    orders = _order_streams(cfg, stream) if cfg.mode == "order-study" else None
    digest = config_hash(cfg)
    run_dir = os.path.join(cfg.out_dir, digest)
    created = not os.path.isdir(run_dir)
    os.makedirs(run_dir, exist_ok=True)
    try:
        summary = _run_into(run_dir, digest, cfg, stream, orders, phases)
    except BaseException:
        if created:
            shutil.rmtree(run_dir, ignore_errors=True)
        raise
    summary["env"] = {**runtime.env_block(start), "phase_s": phases}
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return run_dir


def _run_into(run_dir: str, digest: str, cfg: ExperimentConfig, stream: TaskStream,
              orders: list[TaskStream] | None, phases: dict) -> dict:
    """Train the configured mode, write its tables and checkpoints into
    ``run_dir``, and return the summary. ``phases`` gains the seconds spent
    in the mode's training call, the eval table and the writing."""
    @contextlib.contextmanager
    def timed(name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            phases[name] += time.perf_counter() - t0

    def table(name: str, rows: list[dict]) -> None:
        with timed("write"):
            write_table(os.path.join(run_dir, name), rows, digest)

    with timed("write"):
        with open(os.path.join(run_dir, "config.json"), "w") as fh:
            fh.write(serialize_config(cfg))
    rng = Rng(cfg.train.seed)
    summary: dict = {"config_hash": digest, "mode": cfg.mode, "seed": cfg.train.seed,
                     "tasks": [t.name for t in stream.tasks]}

    if cfg.mode in ("degm", "ablation"):
        with timed("train"):
            if cfg.mode == "degm":
                graph, log = run_degm(stream, cfg.train, rng, run_id=digest)
            else:
                ablation_rows, graphs, logs = run_ablation(stream, cfg.train, cfg.ablation, rng)
                graph, log = graphs[cfg.ablation], logs[cfg.ablation]
        if cfg.mode == "ablation":
            table("ablation_table.csv", ablation_rows)
        if log.expansion:  # a one-task stream makes no decision
            table("expansion.csv", log.expansion)
        with timed("write"):
            write_table(os.path.join(run_dir, "metrics.csv"), log.rows)
            save_graph(os.path.join(run_dir, "checkpoint"), graph,
                       extra={"config_hash": digest})
            export_v_csv(graph, os.path.join(run_dir, "v_matrix.csv"))
        with timed("eval_table"):
            metric_rows = task_metric_table(graph, stream, kprime=cfg.eval_kprime,
                                            k_eval=cfg.eval_k)
        table("eval_metrics.csv", metric_rows)
        summary["node_counts"] = {
            "basic": len(graph.basics), "specific": len(graph.specifics)}
        summary["mean_nll"] = float(np.mean([r["nll"] for r in metric_rows]))
        summary["mean_sl"] = float(np.mean([r["sl"] for r in metric_rows]))
    elif cfg.mode in ("gr", "gr-hier", "bounds"):
        if cfg.mode == "bounds":
            with timed("train"):
                out = bounds_mod.bounds_run(stream, cfg.train, rng,
                                            sample_size=cfg.bounds_sample_size,
                                            aux_epochs=cfg.bounds_aux_epochs, run_id=digest)
            model, log, artifacts = out.gr_model, out.metrics_log, out.gr_artifacts
            with timed("write"):
                bounds_mod.write_bounds_csv(out.rows, os.path.join(run_dir, "bounds_report.csv"),
                                            n_tasks=len(stream), config_hash=digest)
            table("bound_check.csv", bounds_mod.bound_check_report(out))
            table("accumulated_error.csv", bounds_mod.accumulated_error_proxy(
                artifacts.snapshots, stream, model, rng.spawn("accum")))
            table("curves.csv", bounds_mod.forgetting_curves(None, log, stream.input_dim))
            summary["final_slack"] = out.rows[-1].slack
        else:
            runner = run_gr_hier if cfg.mode == "gr-hier" else run_gr_single
            with timed("train"):
                model, log, artifacts = runner(stream, cfg.train, rng, run_id=digest)
            summary["final_accumulated_risk"] = accumulated_final_risk(log, stream)
        stored = {"task": artifacts.snapshots}
        if cfg.mode == "bounds":
            stored["ref"] = out.reference_models  # read back by diagnose
        with timed("write"):
            write_table(os.path.join(run_dir, "metrics.csv"), log.rows)
            save_single(os.path.join(run_dir, "checkpoint"), model,
                        extra={"config_hash": digest})
            for prefix, models in stored.items():
                for i, m in enumerate(models):
                    save_single(os.path.join(run_dir, "checkpoint", f"{prefix}_{i + 1}"), m,
                                extra={"config_hash": digest, "task_index": i + 1})
    elif cfg.mode == "order-study":
        with timed("train"):
            report = order_experiment(orders, cfg.train, rng)
        table("order_report.csv", report)
        summary["orders"] = [r["order"] for r in report]
    return summary


def _order_streams(cfg: ExperimentConfig, stream: TaskStream) -> list[TaskStream]:
    """One stream per configured ordering, each a permutation of the first."""
    by_name = {t.name: t for t in stream.tasks}
    for i, names in enumerate(cfg.orders):
        missing = [n for n in names if n not in by_name]
        if missing:
            raise ConfigError(f"orders[{i}] references unknown tasks {missing}")
        if sorted(names) != sorted(cfg.orders[0]):
            raise ConfigError(f"orders[{i}] is not a permutation of orders[0]")
    return [TaskStream([by_name[n] for n in names]) for names in cfg.orders]


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
        write_table(out_path, rows, config_hash(cfg))
    return rows


def cmd_diagnose(run_dir: str) -> str:
    """Recompute bound diagnostics at task-end granularity from stored snapshots."""
    config_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(config_path):
        raise FormatError(f"no config.json in {run_dir}")
    cfg = _load_config_file(config_path)
    digest = config_hash(cfg)
    stream = build_stream(cfg)
    snapshots = []
    for i in range(len(stream)):
        snap_dir = os.path.join(run_dir, "checkpoint", f"task_{i + 1}")
        if not os.path.isdir(snap_dir):
            raise FormatError(f"missing snapshot {snap_dir}; diagnose needs a gr/bounds run")
        snapshots.append(load_checkpoint(snap_dir)[1])
    rng = Rng(cfg.train.seed)
    refs = _stored_references(run_dir, len(stream), digest)
    if refs is None:  # gr and gr-hier runs store none
        refs = bounds_mod.fit_references(stream, cfg.train, rng, cfg.bounds_aux_epochs)
    rows = bounds_mod.diagnose_snapshots(stream, cfg.train, snapshots, refs, rng,
                                         cfg.bounds_sample_size, cfg.bounds_aux_epochs)
    out_path = os.path.join(run_dir, "bounds_report.csv")
    bounds_mod.write_bounds_csv(rows, out_path, n_tasks=len(stream), config_hash=digest)
    return out_path


def _stored_references(run_dir: str, n_tasks: int, digest: str) -> list | None:
    """The reference models a bounds run saved as checkpoint/ref_<i>/, or None
    when it saved none. A partial set, or one saved under another config,
    is an error rather than a reason to fit them again."""
    dirs = [os.path.join(run_dir, "checkpoint", f"ref_{i + 1}") for i in range(n_tasks)]
    present = [d for d in dirs if os.path.isdir(d)]
    if not present:
        return None
    if len(present) != n_tasks:
        raise FormatError(f"{run_dir} holds {len(present)} of {n_tasks} reference models")
    refs = []
    for i, ref_dir in enumerate(dirs):
        kind, model, manifest = load_checkpoint(ref_dir)
        extra = manifest.get("extra", {})
        if (kind, extra.get("config_hash"), extra.get("task_index")) != ("single", digest, i + 1):
            raise FormatError(f"{ref_dir} is not the task {i + 1} reference model of "
                              f"config {digest}")
        refs.append(model)
    return refs


def cmd_export_v(checkpoint_dir: str, out_path: str) -> None:
    kind, model, _ = load_checkpoint(checkpoint_dir)
    if kind != "graph":
        raise ContractError("export-v needs a graph checkpoint")
    export_v_csv(model, out_path)


def cmd_gen_synthetic(kind: str, n: int, dim: int, seed: int, out_prefix: str) -> None:
    side = int(round(np.sqrt(dim)))
    if side * side != dim:
        raise ConfigError("gen-synthetic writes IDX images and needs a square dim")
    data = synthetic_task(kind, n, dim, Rng(seed).spawn(f"data:{kind}"))
    save_idx_images(out_prefix + "-images.idx", data.data, side, side)
    save_idx_labels(out_prefix + "-labels.idx", np.zeros(n, dtype=np.int64))


def _load_config_file(path: str, **flags) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    return parse_config(text, **flags)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="degm", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_train = sub.add_parser("train", help="run the configured experiment")

    p_eval = sub.add_parser("eval", help="metric table for a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--kprime", type=int, default=None)
    p_eval.add_argument("--out", default=None)

    p_diag = sub.add_parser("diagnose", help="bound diagnostics for a stored run")
    p_diag.add_argument("run_dir")

    p_export = sub.add_parser("export-v", help="write the task-by-node weight matrix")
    p_export.add_argument("--checkpoint", required=True)
    p_export.add_argument("--out", required=True)

    p_ablate = sub.add_parser("ablate", help="train with an alternative edge policy")
    for p in (p_train, p_ablate):
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
    p_train.add_argument("--desk-scale", action="store_true")

    p_gen = sub.add_parser("gen-synthetic", help="write a synthetic task as IDX files")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--n", type=int, default=1000)
    p_gen.add_argument("--dim", type=int, default=64)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path prefix")

    args = parser.parse_args(argv)
    try:
        if args.verb in ("train", "ablate"):
            cfg = _load_config_file(args.config, seed=args.seed, out_dir=args.out,
                                    desk_scale=getattr(args, "desk_scale", False))
            if args.verb == "ablate" and cfg.mode != "ablation":
                raise ConfigError("ablate needs a config with mode 'ablation'")
            print(cmd_train(cfg))
        elif args.verb == "eval":
            if args.kprime is not None:  # before any work, as eval.kprime in the config
                rule(EVAL, "kprime")(args.kprime, "--kprime")
            cfg = _load_config_file(args.config)
            kprime = args.kprime if args.kprime is not None else cfg.eval_kprime
            # beside the checkpoint, and never over the table train wrote there
            out = args.out or os.path.join(os.path.dirname(args.checkpoint.rstrip("/")),
                                           f"eval_k{kprime}.csv")
            for row in cmd_eval(args.checkpoint, cfg, kprime, out):
                print(row)
        elif args.verb == "diagnose":
            print(cmd_diagnose(args.run_dir))
        elif args.verb == "export-v":
            cmd_export_v(args.checkpoint, args.out)
            print(args.out)
        elif args.verb == "gen-synthetic":
            # before any work, as a synthetic task's n_train, dim and seed in the config
            rule(TASK, "n_train")(args.n, "--n")
            rule(TASK, "dim")(args.dim, "--dim")
            rule(TASK, "seed")(args.seed, "--seed")
            cmd_gen_synthetic(args.kind, args.n, args.dim, args.seed, args.out)
            print(args.out)
    except (ConfigError, ContractError, FormatError, TrainingError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
