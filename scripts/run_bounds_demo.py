"""Bound-diagnostics demo: per-epoch risk, KL gap, and discrepancy lower bound
for a replay run with a fixed-variance Gaussian decoder.

Writes bounds_report.csv, bound_check.csv and accumulated_error.csv under <out>.

Usage: python scripts/run_bounds_demo.py --out /tmp/bounds
"""

import argparse
import os

from degm.bounds import accumulated_error_proxy, bounds_run, bound_check_report, write_bounds_csv
from degm.data import synthetic_task
from degm.lifelong import Task, TaskStream, TrainConfig
from degm.nnkit import Rng
from degm.persist import write_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--sample-size", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    dim = 64

    def mk(kind, name, seed):
        return Task(name, synthetic_task(kind, 800, dim, Rng(seed)),
                    synthetic_task(kind, 400, dim, Rng(seed + 1)))

    stream = TaskStream([mk("half-active-top", "top", 300),
                         mk("half-active-bottom", "bottom", 302),
                         mk("bars", "bars", 304)])
    cfg = TrainConfig(epochs=args.epochs, batch=64, lr=2e-3, tau=0.5, probe_size=100,
                      latent_dim=8, hidden_dim=48, likelihood="gaussian", seed=args.seed)
    out = bounds_run(stream, cfg, Rng(args.seed), sample_size=args.sample_size)

    os.makedirs(args.out, exist_ok=True)
    write_bounds_csv(out.rows, os.path.join(args.out, "bounds_report.csv"), len(stream))
    write_table(os.path.join(args.out, "bound_check.csv"), bound_check_report(out))
    proxy = accumulated_error_proxy(out.gr_artifacts.snapshots, stream, out.gr_model,
                                    Rng(args.seed).spawn("accum"))
    write_table(os.path.join(args.out, "accumulated_error.csv"), proxy)

    ends = [r for r in out.rows if r.epoch == cfg.epochs]
    print("task-end discrepancy lower bounds:",
          ["%.4f" % r.disc_lower_bound for r in ends])
    print(f"reports written under {args.out}")


if __name__ == "__main__":
    main()
