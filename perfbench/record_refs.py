"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_refs.py

Run it from the root of a checkout whose outputs are trusted. It runs each
workload once on each of its input sets (seeds 0 to INPUT_SETS - 1) and
rewrites perfbench/refs.json. Re-record only when a change to the program is
meant to change its outputs, and say so.
"""

from __future__ import annotations

import json
import os
import shutil

import checks
from run import Session, load_program
from workloads import INPUT_SETS, WORKLOADS

DIGITS = 12  # enough for the checks' relative tolerance, short enough to read


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGITS}g}")
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    return value


def main() -> int:
    root = os.getcwd()
    load_program(root)
    work_root = os.path.join(root, ".perfbench_out", "record-refs")
    refs = {}
    try:
        for name, workload in WORKLOADS.items():
            entry = {"config_digest": checks.workload_digest(workload), "seeds": {}}
            for seed in range(INPUT_SETS):
                session = Session(workload, seed, os.path.join(work_root, f"{name}-{seed}"))
                session.setup(0)
                _, out = session.iterate(0)
                problems = workload.invariants(out, session.stream)
                if problems:
                    raise RuntimeError(f"{name} seed {seed}: {problems}")
                entry["seeds"][str(seed)] = _rounded(checks.compared(out))
                print(f"{name} seed {seed}: recorded", flush=True)
            refs[name] = entry
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    with open(checks.REFS_PATH, "w") as fh:
        json.dump(refs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
