"""Experiment configuration and the command-line entry point.

Verbs: train, eval, diagnose, export-v, ablate, gen-synthetic. A run writes
into <out_dir>/<config-hash>/ so identical configs land in identical places;
every table carries the config hash. Config files are JSON; unknown keys are
rejected with their dotted path so typos fail loudly.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
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
from .errors import ConfigError, ContractError, FormatError
from .graph import GraphModel
from .lifelong import (
    Task,
    TaskStream,
    TrainConfig,
    accumulated_final_risk,
    order_experiment,
    require_count,
    require_real,
    run_ablation,
    run_degm,
    run_gr_hier,
    run_gr_single,
)
from .nnkit import Rng, alloc
from .persist import load_checkpoint, save_graph, save_single, write_table
from .select_eval import single_metric_table, task_metric_table

MODES = ("degm", "gr", "gr-hier", "bounds", "order-study", "ablation")
ABLATIONS = ("degm-1", "degm-4", "degm-5", "degm-6", "degm-7")

TRAIN_DEFAULTS = {
    "epochs": 500, "batch": 64, "lr": 1e-4, "objective": "elbo", "kprime": 1,
    "tau": 40.0, "probe_size": 1000, "seed": 0, "specific_epochs": None,
    "latent_dim": 100, "hidden_dim": 200, "likelihood": "bernoulli",
    "hier_latent_dims": [100, 50], "hier_two_layers": True,
}
TASK_KEYS = {"name", "source", "kind", "n_train", "n_test", "dim", "center", "seed",
             "transforms", "train_images", "train_labels", "test_images", "test_labels",
             "labels", "split_groups"}
EVAL_DEFAULTS = {"kprime": 1, "k_eval": 1}
BOUNDS_DEFAULTS = {"sample_size": 10000, "aux_epochs": None}
TOP_KEYS = {"mode", "out_dir", "desk_scale", "ablation", "orders", "tasks", "train",
            "eval", "bounds"}


@dataclass
class ExperimentConfig:
    mode: str
    tasks: list[dict]
    train: TrainConfig
    out_dir: str
    ablation: str | None
    orders: list[list[str]] | None
    eval_kprime: int
    eval_k: int
    bounds_sample_size: int
    bounds_aux_epochs: int | None
    desk_scale: bool
    raw: dict  # validated dict with defaults filled; hashing happens on this


def _reject_unknown(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key!r}")


def parse_config(text: str) -> ExperimentConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, TOP_KEYS, "")

    mode = raw.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    train_raw = dict(TRAIN_DEFAULTS)
    user_train = raw.get("train", {})
    if not isinstance(user_train, dict):
        raise ConfigError("train must be an object")
    _reject_unknown(user_train, set(TRAIN_DEFAULTS), "train.")
    train_raw.update(user_train)
    try:
        train = TrainConfig(**{**train_raw,
                               "hier_latent_dims": tuple(train_raw["hier_latent_dims"])})
    except ConfigError as err:
        raise ConfigError(f"train: {err}") from err
    except TypeError as err:
        raise ConfigError(f"train: {err}") from err

    out_dir = raw.get("out_dir", "runs")
    if not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")
    if not isinstance(raw.get("desk_scale", False), bool):
        raise ConfigError("desk_scale must be true or false")

    tasks = raw.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("tasks must be a nonempty list")
    for i, spec in enumerate(tasks):
        if not isinstance(spec, dict):
            raise ConfigError(f"tasks[{i}] must be an object")
        _reject_unknown(spec, TASK_KEYS, f"tasks[{i}].")
        for key in ("n_train", "n_test", "dim"):
            if key in spec:
                require_count(spec[key], f"tasks[{i}].{key}")
        if "seed" in spec:
            require_count(spec["seed"], f"tasks[{i}].seed", minimum=0)
        if not isinstance(spec.get("name", ""), str):
            raise ConfigError(f"tasks[{i}].name must be a string")
        center = spec.get("center", [0.0, 0.0])
        if not isinstance(center, list) or len(center) != 2:
            raise ConfigError(f"tasks[{i}].center must be a list of two numbers")
        for value in center:
            require_real(value, f"tasks[{i}].center[]")
        transforms = spec.get("transforms", [])
        if not isinstance(transforms, list) or not all(isinstance(t, str) for t in transforms):
            raise ConfigError(f"tasks[{i}].transforms must be a list of strings")
        source = spec.get("source", "synthetic")
        if source not in ("synthetic", "idx"):
            raise ConfigError(f"tasks[{i}].source must be 'synthetic' or 'idx'")
        if source == "synthetic":
            for key in ("kind", "dim"):
                if key not in spec:
                    raise ConfigError(f"tasks[{i}].{key} is required for synthetic tasks")
        else:
            for key in ("train_images", "test_images"):
                if key not in spec:
                    raise ConfigError(f"tasks[{i}].{key} is required for idx tasks")
            for key in ("train_images", "test_images", "train_labels", "test_labels"):
                if not isinstance(spec.get(key, ""), str):
                    raise ConfigError(f"tasks[{i}].{key} must be a path string")

    ablation = raw.get("ablation")
    if mode == "ablation":
        if ablation not in ABLATIONS:
            raise ConfigError(f"ablation must be one of {ABLATIONS}, got {ablation!r}")
    elif ablation is not None:
        raise ConfigError("ablation is only valid with mode 'ablation'")

    orders = raw.get("orders")
    if mode == "order-study":
        if (not isinstance(orders, list) or len(orders) < 2
                or not all(isinstance(order, list) and all(isinstance(n, str) for n in order)
                           for order in orders)):
            raise ConfigError("order-study needs 'orders': a list of at least two lists "
                              f"of task names, got {orders!r}")
    elif orders is not None:
        raise ConfigError("orders is only valid with mode 'order-study'")

    eval_raw = dict(EVAL_DEFAULTS)
    user_eval = raw.get("eval", {})
    if not isinstance(user_eval, dict):
        raise ConfigError("eval must be an object")
    _reject_unknown(user_eval, set(EVAL_DEFAULTS), "eval.")
    eval_raw.update(user_eval)
    for key, value in eval_raw.items():
        require_count(value, f"eval.{key}")

    bounds_raw = dict(BOUNDS_DEFAULTS)
    user_bounds = raw.get("bounds", {})
    if not isinstance(user_bounds, dict):
        raise ConfigError("bounds must be an object")
    _reject_unknown(user_bounds, set(BOUNDS_DEFAULTS), "bounds.")
    bounds_raw.update(user_bounds)
    require_count(bounds_raw["sample_size"], "bounds.sample_size")
    if bounds_raw["aux_epochs"] is not None:
        require_count(bounds_raw["aux_epochs"], "bounds.aux_epochs")

    filled = {
        "mode": mode, "out_dir": out_dir, "desk_scale": raw.get("desk_scale", False),
        "ablation": ablation, "orders": orders, "tasks": tasks,
        "train": train_raw, "eval": eval_raw, "bounds": bounds_raw,
    }
    return ExperimentConfig(
        mode=mode, tasks=tasks, train=train, out_dir=filled["out_dir"],
        ablation=ablation, orders=orders, eval_kprime=eval_raw["kprime"],
        eval_k=eval_raw["k_eval"], bounds_sample_size=bounds_raw["sample_size"],
        bounds_aux_epochs=bounds_raw["aux_epochs"], desk_scale=filled["desk_scale"],
        raw=filled,
    )


def serialize_config(cfg: ExperimentConfig) -> str:
    return json.dumps(cfg.raw, sort_keys=True, indent=1)


def config_hash(cfg: ExperimentConfig) -> str:
    """Digest of every semantically meaningful field (out_dir excluded)."""
    material = {k: v for k, v in cfg.raw.items() if k != "out_dir"}
    blob = json.dumps(material, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:12]


# -- stream construction ------------------------------------------------------------

def _task_data_rng(spec: dict, which: str) -> Rng:
    return Rng(int(spec.get("seed", 0))).spawn(f"data:{spec.get('name', 'task')}:{which}")


def _build_one(spec: dict, desk_scale: bool) -> list[Task]:
    name = spec.get("name", spec.get("kind", "task"))
    transforms = spec.get("transforms", [])
    if spec.get("source", "synthetic") == "synthetic":
        center = tuple(spec["center"]) if "center" in spec else None
        n_train = int(spec.get("n_train", 1000))
        n_test = int(spec.get("n_test", max(1, n_train // 5)))
        train = synthetic_task(spec["kind"], n_train, int(spec["dim"]),
                               _task_data_rng(spec, "train"), center=center)
        test = synthetic_task(spec["kind"], n_test, int(spec["dim"]),
                              _task_data_rng(spec, "test"), center=center)
        pairs = [(name, train, test)]
    else:
        train = load_idx(spec["train_images"])
        test = load_idx(spec["test_images"])
        if "train_labels" in spec:
            train = attach_labels(train, load_idx(spec["train_labels"]))
        if "test_labels" in spec:
            test = attach_labels(test, load_idx(spec["test_labels"]))
        if "split_groups" in spec:
            groups = [set(g) for g in spec["split_groups"]]
            pairs = [(f"{name}-{gname}", tr, te)
                     for gname, tr, te in split_by_labels(train, test, groups)]
        elif "labels" in spec:
            keep = sorted(int(v) for v in spec["labels"])
            tr_mask = np.isin(train.labels, keep)
            te_mask = np.isin(test.labels, keep)
            if not tr_mask.any() or not te_mask.any():
                raise ConfigError(f"task {name!r}: label filter {keep} matches nothing")
            pairs = [(name, train.subset(tr_mask), test.subset(te_mask))]
        else:
            pairs = [(name, train, test)]

    tasks = []
    for task_name, tr, te in pairs:
        tr = transform_chain(tr, transforms)
        te = transform_chain(te, transforms)
        if desk_scale:
            tr, te = downsample(tr), downsample(te)
        tasks.append(Task(task_name, tr, te))
    return tasks


def build_stream(cfg: ExperimentConfig) -> TaskStream:
    tasks = []
    for spec in cfg.tasks:
        tasks.extend(_build_one(spec, cfg.desk_scale))
    return TaskStream(tasks)


# -- commands -----------------------------------------------------------------------------

def _run_dir(cfg: ExperimentConfig) -> str:
    path = os.path.join(cfg.out_dir, config_hash(cfg))
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _blas_threads() -> int | None:
    """The thread count of the loaded OpenBLAS, from its own getter; None
    where no OpenBLAS with a getter is mapped into the process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _env_block(start: resource.struct_rusage) -> dict:
    """The numeric build, the BLAS thread count, the allocator setting, and
    what the command cost the process since ``start``: CPU seconds and minor
    page faults."""
    end = resource.getrusage(resource.RUSAGE_SELF)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.25 only prints its build info
        blas = {}
    return {
        "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(), "malloc_thresholds_set": alloc.THRESHOLDS_SET,
        "user_s": end.ru_utime - start.ru_utime, "sys_s": end.ru_stime - start.ru_stime,
        "minor_faults": end.ru_minflt - start.ru_minflt,
    }


def export_v_csv(graph: GraphModel, path: str) -> None:
    write_table(path, [{"task_id": entry.task_id,
                        **{f"C{k + 1}": float(val) for k, val in enumerate(row)}}
                       for row, entry in zip(graph.v_matrix(), graph.entries)])


def cmd_train(cfg: ExperimentConfig) -> str:
    """Run the configured experiment; returns the run directory."""
    start = resource.getrusage(resource.RUSAGE_SELF)
    # both before the run directory, so bad tasks or orderings leave none
    stream = build_stream(cfg)
    orders = _order_streams(cfg, stream) if cfg.mode == "order-study" else None
    run_dir = _run_dir(cfg)
    digest = config_hash(cfg)
    with open(os.path.join(run_dir, "config.json"), "w") as fh:
        fh.write(serialize_config(cfg))
    rng = Rng(cfg.train.seed)
    summary: dict = {"config_hash": digest, "mode": cfg.mode, "seed": cfg.train.seed,
                     "tasks": [t.name for t in stream.tasks]}

    def table(name: str, rows: list[dict]) -> None:
        write_table(os.path.join(run_dir, name), rows, digest)

    if cfg.mode in ("degm", "ablation"):
        if cfg.mode == "degm":
            graph, log = run_degm(stream, cfg.train, rng, run_id=digest)
        else:
            ablation_rows, graphs, logs = run_ablation(stream, cfg.train, cfg.ablation, rng)
            table("ablation_table.csv", ablation_rows)
            graph, log = graphs[cfg.ablation], logs[cfg.ablation]
        write_table(os.path.join(run_dir, "metrics.csv"), log.rows)
        save_graph(os.path.join(run_dir, "checkpoint"), graph,
                   extra={"config_hash": digest})
        export_v_csv(graph, os.path.join(run_dir, "v_matrix.csv"))
        metric_rows = task_metric_table(graph, stream, kprime=cfg.eval_kprime)
        table("eval_metrics.csv", metric_rows)
        summary["node_counts"] = {
            "basic": len(graph.basics), "specific": len(graph.specifics)}
        summary["mean_nll"] = float(np.mean([r["nll"] for r in metric_rows]))
        summary["mean_sl"] = float(np.mean([r["sl"] for r in metric_rows]))
    elif cfg.mode in ("gr", "gr-hier", "bounds"):
        if cfg.mode == "bounds":
            out = bounds_mod.bounds_run(stream, cfg.train, rng,
                                        sample_size=cfg.bounds_sample_size,
                                        aux_epochs=cfg.bounds_aux_epochs, run_id=digest)
            model, log, artifacts = out.gr_model, out.metrics_log, out.gr_artifacts
            bounds_mod.write_bounds_csv(out.rows, os.path.join(run_dir, "bounds_report.csv"),
                                        n_tasks=len(stream), config_hash=digest)
            table("bound_check.csv", bounds_mod.bound_check_report(out))
            table("accumulated_error.csv", bounds_mod.accumulated_error_proxy(
                artifacts.snapshots, stream, model, rng.spawn("accum")))
            table("curves.csv", bounds_mod.forgetting_curves(None, log, stream.input_dim))
            summary["final_slack"] = out.rows[-1].slack
        else:
            runner = run_gr_hier if cfg.mode == "gr-hier" else run_gr_single
            model, log, artifacts = runner(stream, cfg.train, rng, run_id=digest)
            summary["final_accumulated_risk"] = accumulated_final_risk(log, stream)
        write_table(os.path.join(run_dir, "metrics.csv"), log.rows)
        save_single(os.path.join(run_dir, "checkpoint"), model,
                    extra={"config_hash": digest})
        stored = {"task": artifacts.snapshots}
        if cfg.mode == "bounds":
            stored["ref"] = out.reference_models  # read back by diagnose
        for prefix, models in stored.items():
            for i, m in enumerate(models):
                save_single(os.path.join(run_dir, "checkpoint", f"{prefix}_{i + 1}"), m,
                            extra={"config_hash": digest, "task_index": i + 1})
    elif cfg.mode == "order-study":
        report = order_experiment(orders, cfg.train, rng)
        table("order_report.csv", report)
        summary["orders"] = [r["order"] for r in report]
    summary["env"] = _env_block(start)
    _write_json(os.path.join(run_dir, "summary.json"), summary)
    return run_dir


def _order_streams(cfg: ExperimentConfig, stream: TaskStream) -> list[TaskStream]:
    by_name = {t.name: t for t in stream.tasks}
    orders = []
    for i, names in enumerate(cfg.orders):
        missing = [n for n in names if n not in by_name]
        if missing:
            raise ConfigError(f"orders[{i}] references unknown tasks {missing}")
        orders.append(TaskStream([by_name[n] for n in names]))
    return orders


def cmd_eval(checkpoint_dir: str, cfg: ExperimentConfig, kprime: int,
             out_path: str | None = None) -> list[dict]:
    """Metric table for a stored model on the configured stream."""
    kind, model, _ = load_checkpoint(checkpoint_dir)
    stream = build_stream(cfg)
    metric_table = task_metric_table if kind == "graph" else single_metric_table
    rows = metric_table(model, stream, kprime=kprime)
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
    data = synthetic_task(kind, n, dim, Rng(seed).spawn(f"data:{kind}"))
    side = int(round(np.sqrt(dim)))
    if side * side != dim:
        raise ConfigError("gen-synthetic writes IDX images and needs a square dim")
    save_idx_images(out_prefix + "-images.idx", data.data, side, side)
    save_idx_labels(out_prefix + "-labels.idx", np.zeros(n, dtype=np.int64))


def _load_config_file(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return parse_config(fh.read())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="degm", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_train = sub.add_parser("train", help="run the configured experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.add_argument("--desk-scale", action="store_true")

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
    p_ablate.add_argument("--config", required=True)
    p_ablate.add_argument("--seed", type=int, default=None)
    p_ablate.add_argument("--out", default=None)

    p_gen = sub.add_parser("gen-synthetic", help="write a synthetic task as IDX files")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--n", type=int, default=1000)
    p_gen.add_argument("--dim", type=int, default=64)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output path prefix")

    args = parser.parse_args(argv)
    try:
        if args.verb in ("train", "ablate"):
            cfg = _load_config_file(args.config)
            if args.verb == "ablate" and cfg.mode != "ablation":
                raise ConfigError("ablate needs a config with mode 'ablation'")
            if args.seed is not None:
                cfg.raw["train"]["seed"] = args.seed
                cfg = parse_config(json.dumps(cfg.raw))
            if args.out is not None:
                cfg.out_dir = args.out
                cfg.raw["out_dir"] = args.out
            if getattr(args, "desk_scale", False):
                cfg.raw["desk_scale"] = True
                cfg = parse_config(json.dumps(cfg.raw))
            run_dir = cmd_train(cfg)
            print(run_dir)
        elif args.verb == "eval":
            cfg = _load_config_file(args.config)
            kprime = args.kprime if args.kprime is not None else cfg.eval_kprime
            # beside the checkpoint, and never over the table train wrote there
            out = args.out or os.path.join(os.path.dirname(args.checkpoint.rstrip("/")),
                                           f"eval_k{kprime}.csv")
            rows = cmd_eval(args.checkpoint, cfg, kprime, out)
            for row in rows:
                print(row)
        elif args.verb == "diagnose":
            print(cmd_diagnose(args.run_dir))
        elif args.verb == "export-v":
            cmd_export_v(args.checkpoint, args.out)
            print(args.out)
        elif args.verb == "gen-synthetic":
            cmd_gen_synthetic(args.kind, args.n, args.dim, args.seed, args.out)
            print(args.out)
    except (ConfigError, ContractError, FormatError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
