"""The command-line entry point: argument parsing, and the mapping from
errors to exit codes.

Verbs: train, eval, diagnose, export-v, ablate, gen-synthetic. Config files
are JSON, read and checked by :mod:`degm.config`. Each verb is one function:
``degm.runs.cmd_*`` for those that read or write a run directory, whose
layout :mod:`degm.runs` alone knows, and ``degm.data.cmd_gen_synthetic``.
"""

from __future__ import annotations

import argparse
import sys

# perfbench calls parse_config, build_stream, cmd_train, cmd_eval and cmd_diagnose as degm.cli's
from .config import EVAL, TASK, load_config_file, parse_config, rule  # noqa: F401
from .data import build_stream, cmd_gen_synthetic  # noqa: F401
from .errors import ConfigError, ContractError, FormatError, TrainingError
from .runs import cmd_diagnose, cmd_eval, cmd_export_v, cmd_train, eval_path


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
            cfg = load_config_file(args.config, seed=args.seed, out_dir=args.out,
                                   desk_scale=getattr(args, "desk_scale", False))
            if args.verb == "ablate" and cfg.mode != "ablation":
                raise ConfigError("ablate needs a config with mode 'ablation'")
            print(cmd_train(cfg))
        elif args.verb == "eval":
            if args.kprime is not None:  # before any work, as eval.kprime in the config
                rule(EVAL, "kprime")(args.kprime, "--kprime")
            cfg = load_config_file(args.config)
            kprime = args.kprime if args.kprime is not None else cfg.eval_kprime
            out = args.out or eval_path(args.checkpoint, kprime)
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
