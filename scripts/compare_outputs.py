"""Compare every file two source trees write for the same commands.

    python scripts/compare_outputs.py PARENT CHANGE --config a.json b.json \
        --seeds 0 3 --masks 0 0,1 [--work DIR]

For each config, seed and CPU mask, each tree runs ``degm train`` in a
subprocess (``PYTHONPATH=<tree>/src``, the CPU affinity set to the mask).
A degm or ablation run is then scored by ``degm eval`` at K'=1 and K'=50; a gr,
gr-hier or bounds run by ``degm diagnose``, the train-time
``bounds_report.csv`` kept as ``bounds_report.train.csv``. Every file the
change writes is compared with the parent's, byte for byte, except the
``env`` block of ``summary.json`` and the ``out_dir`` of ``config.json``.
With two or more masks, the files the change writes on each mask are also
compared with those it writes on the first, the same way. Prints the
differing files; exits 1 when there is any, 2 when a command fails, 0
otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

IGNORED = {"summary.json": "env", "config.json": "out_dir"}  # file name -> key left out
KPRIMES = (1, 50)


def _degm(tree: str, mask: set[int], *args: str) -> str:
    """Run one degm verb from ``tree`` on the CPUs ``mask``; returns its stdout."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "degm.cli", *args], env=env, cwd=tree,
                          capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, mask))
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: degm {' '.join(args)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return proc.stdout


def run_commands(tree: str, config: str, seed: int, mask: set[int], out: str) -> None:
    """Every command of one (config, seed, mask) from ``tree``, writing under ``out``."""
    with open(config) as fh:
        mode = json.load(fh)["mode"]
    run_dir = _degm(tree, mask, "train", "--config", config, "--seed", str(seed),
                    "--out", out).strip().splitlines()[-1]
    if mode in ("degm", "ablation"):
        for k in KPRIMES:
            _degm(tree, mask, "eval", "--checkpoint", os.path.join(run_dir, "checkpoint"),
                  "--config", config, "--kprime", str(k))
    elif mode in ("gr", "gr-hier", "bounds"):
        report = os.path.join(run_dir, "bounds_report.csv")
        if os.path.exists(report):
            shutil.copyfile(report, os.path.join(run_dir, "bounds_report.train.csv"))
        _degm(tree, mask, "diagnose", run_dir)


def digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root`` by relative path, the ignored keys
    left out of the JSON files that carry them."""
    found = {}
    for base, _, names in os.walk(root):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                blob = fh.read()
            if name in IGNORED:
                doc = json.loads(blob)
                doc.pop(IGNORED[name], None)
                blob = json.dumps(doc, sort_keys=True).encode()
            found[os.path.relpath(path, root)] = hashlib.sha256(blob).hexdigest()
    return found


def compare(parent: str, change: str) -> list[str]:
    """Relative paths that differ, or that only one side wrote."""
    want, got = digests(parent), digests(change)
    return sorted(p for p in set(want) | set(got) if want.get(p) != got.get(p))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the reference source tree")
    parser.add_argument("change", help="root of the source tree under test")
    parser.add_argument("--config", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--masks", nargs="+", required=True,
                        help="CPU masks, each a comma-separated list such as 0,1")
    parser.add_argument("--work", default=None, help="where the runs are written "
                        "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    try:
        masks = {spec: {int(c) for c in spec.split(",")} for spec in args.masks}
    except ValueError:
        parser.error(f"--masks wants comma-separated CPU numbers, got {args.masks}")
    allowed = os.sched_getaffinity(0)
    for spec, mask in masks.items():
        if not mask <= allowed:
            print(f"error: mask {spec} names CPUs outside this process's {sorted(allowed)}",
                  file=sys.stderr)
            return 2
    work = args.work or tempfile.mkdtemp(prefix="compare_outputs-")
    differing, across, compared = [], [], 0
    try:
        for config in args.config:
            config = os.path.abspath(config)
            stem = os.path.splitext(os.path.basename(config))[0]
            for seed in args.seeds:
                change_runs = {}  # mask -> the change's outputs
                for mask_spec, mask in masks.items():
                    case = os.path.join(stem, f"seed{seed}", f"mask{mask_spec}")
                    outs = {}
                    for label, tree in (("parent", args.parent), ("change", args.change)):
                        outs[label] = os.path.join(work, label, case)
                        run_commands(os.path.abspath(tree), config, seed, mask, outs[label])
                    compared += len(digests(outs["parent"]))
                    for path in compare(outs["parent"], outs["change"]):
                        differing.append(os.path.join(case, path))
                        print(f"differs: {differing[-1]}")
                    change_runs[mask_spec] = outs["change"]
                first, *others = change_runs
                for mask_spec in others:
                    for path in compare(change_runs[first], change_runs[mask_spec]):
                        across.append(os.path.join(stem, f"seed{seed}", f"mask{mask_spec}", path))
                        print(f"differs from mask {first}: {across[-1]}")
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    if len(masks) > 1:
        print(f"{len(across)} files the change writes differ between masks")
    print(f"{len(differing)} of {compared} files differ")
    return 1 if differing or across else 0


if __name__ == "__main__":
    sys.exit(main())
