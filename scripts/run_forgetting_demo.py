"""Forgetting demo: replay-trained single model vs the expanding graph.

Trains both on a 3-task 14x14 stream (base pattern, inverted, rotated) and
writes tidy per-epoch risk curves to <out>/curves.csv. The single model's
task-1 risk climbs as later tasks arrive; the graph model's stays flat.

Usage: python scripts/run_forgetting_demo.py --out /tmp/forgetting --epochs 30
"""

import argparse
import os

from degm.bounds import forgetting_curves
from degm.data import synthetic_task, transform
from degm.lifelong import Task, TaskStream, TrainConfig, run_degm, run_gr_single
from degm.nnkit import Rng
from degm.persist import write_table


def build_stream(n_train, n_test, dim=196):
    tasks = [Task("bars", synthetic_task("bars", n_train, dim, Rng(100)),
                  synthetic_task("bars", n_test, dim, Rng(101)))]
    for name, tf, seed in (("inverted", "invert", 102), ("rotated", "rotate90", 104)):
        tr = transform(synthetic_task("bars", n_train, dim, Rng(seed)), tf)
        te = transform(synthetic_task("bars", n_test, dim, Rng(seed + 1)), tf)
        tasks.append(Task(name, tr, te))
    return TaskStream(tasks)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True)
    parser.add_argument("--epochs", type=int, default=30)
    parser.add_argument("--n-train", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    stream = build_stream(args.n_train, args.n_train // 4)
    cfg = TrainConfig(epochs=args.epochs, batch=64, lr=1e-3, tau=0.0,
                      probe_size=200, latent_dim=16, hidden_dim=64, seed=args.seed)
    print("training replay baseline ...")
    _, gr_log, _ = run_gr_single(stream, cfg, Rng(args.seed))
    print("training expanding graph ...")
    _, degm_log = run_degm(stream, cfg, Rng(args.seed))

    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "curves.csv")
    write_table(path, forgetting_curves(degm_log, gr_log, stream.input_dim))
    after1 = gr_log.query(task_index=1, eval_task=1)[-1]["square_loss"]
    after3 = gr_log.query(task_index=3, eval_task=1)[-1]["square_loss"]
    print(f"single model task-1 square loss: {after1:.4f} after task 1, "
          f"{after3:.4f} after task 3")
    print(f"curves written to {path}")


if __name__ == "__main__":
    main()
