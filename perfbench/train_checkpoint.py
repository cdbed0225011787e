"""Train the checkpoint that the eval-select workload reads.

    python3 perfbench/train_checkpoint.py <out_dir>

Run it from the root of a degm checkout. It runs ``degm train`` on the
degm-stream config at EVAL_CHECKPOINT_SEED into <out_dir> and prints the run
directory as its last line. The eval-select set-up runs it as a child
process, so that the benchmark process's peak memory covers only the evals.
"""

from __future__ import annotations

import json
import os
import sys

from run import load_program
from workloads import EVAL_CHECKPOINT_SEED, stream_config


def main(argv: list[str]) -> int:
    (out_dir,) = argv
    load_program(os.getcwd())
    cli = sys.modules["degm.cli"]
    cfg = cli.parse_config(json.dumps({**stream_config(EVAL_CHECKPOINT_SEED), "out_dir": out_dir}))
    print(cli.cmd_train(cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
