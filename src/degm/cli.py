"""The command-line entry point: argument parsing, stream construction and
one function per verb.

Verbs: train, eval, diagnose, export-v, ablate, gen-synthetic. A run writes
into <out_dir>/<config-hash>/ so identical configs land in identical places;
it writes the record that its mode's run function (:mod:`degm.runs`)
returns. Every verb writes through ``degm.persist.write_record``. Config
files are JSON, checked by :mod:`degm.config`.
"""

from __future__ import annotations

import argparse
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
from .lifelong import Task, TaskStream
from .nnkit import Rng, runtime
from .persist import RunRecord, load_checkpoint, write_record
from .runs import RUNS, v_rows
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
    """The task stream of the config's specs, their defaults filled by
    degm.config. Each configured ordering must name its tasks and be a
    permutation of the first."""
    tasks = []
    for spec in cfg.tasks:
        for name, train, test in _task_data(spec):
            train, test = (transform_chain(d, spec["transforms"]) for d in (train, test))
            if cfg.desk_scale:
                train, test = downsample(train), downsample(test)
            tasks.append(Task(name, train, test))
    for i, names in enumerate(cfg.orders or ()):
        missing = [n for n in names if n not in {t.name for t in tasks}]
        if missing:
            raise ConfigError(f"orders[{i}] references unknown tasks {missing}")
        if sorted(names) != sorted(cfg.orders[0]):
            raise ConfigError(f"orders[{i}] is not a permutation of orders[0]")
    return TaskStream(tasks)


# -- commands -----------------------------------------------------------------------------

PHASES = ("train", "eval_table", "write")  # summary.json's env["phase_s"] keys; bounds adds one


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
        with open(os.path.join(run_dir, "config.json"), "w") as fh:
            fh.write(serialize_config(cfg))
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
    with open(os.path.join(run_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
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
        _write_file(out_path, rows, config_hash(cfg))
    return rows


def _write_file(path: str, rows: list[dict], digest: str | None = None) -> None:
    """The record of one table, written to ``path``, whatever its file name."""
    write_record(os.path.dirname(path), RunRecord({os.path.basename(path): rows}, unhashed=()),
                 digest)


def cmd_diagnose(run_dir: str) -> str:
    """Recompute bound diagnostics at task-end granularity from stored snapshots."""
    config_path = os.path.join(run_dir, "config.json")
    if not os.path.exists(config_path):
        raise FormatError(f"no config.json in {run_dir}")
    cfg = _load_config_file(config_path)
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
    out_path = os.path.join(run_dir, "bounds_report.csv")
    _write_file(out_path, bounds_mod.report_rows(rows, len(stream)), digest)
    return out_path


def _stored_models(run_dir: str, prefix: str, n_tasks: int, digest: str,
                   kinds: tuple[str, ...]) -> list | None:
    """The models a run saved as checkpoint/<prefix>_<i>/ for each task i (the
    replay model's snapshots under "task", a bounds run's reference models
    under "ref"), or None when it saved none. A partial set, or a model of
    another kind than ``kinds``, another config or another task, is an error
    rather than a reason to fit them again."""
    dirs = [os.path.join(run_dir, "checkpoint", f"{prefix}_{i + 1}") for i in range(n_tasks)]
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


def _eval_path(checkpoint: str, kprime: int) -> str:
    """Where eval writes without --out: eval_k<K'>.csv for a run's
    checkpoint/, else eval_k<K'>_<name>.csv for the checkpoint <name>/; in
    the run directory for a snapshot checkpoint/<name>/. So never inside a
    checkpoint, over the table train wrote or over another checkpoint's."""
    parent, name = os.path.split(os.path.normpath(checkpoint))
    if os.path.basename(parent) == "checkpoint":
        parent = os.path.dirname(parent)
    return os.path.join(parent, f"eval_k{kprime}{'' if name == 'checkpoint' else '_' + name}.csv")


def cmd_export_v(checkpoint_dir: str, out_path: str) -> None:
    kind, model, _ = load_checkpoint(checkpoint_dir)
    if kind != "graph":
        raise ContractError("export-v needs a graph checkpoint")
    _write_file(out_path, v_rows(model))


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
            out = args.out or _eval_path(args.checkpoint, kprime)
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
