"""Compare every file two source trees write for the same commands.

    python scripts/compare_outputs.py PARENT CHANGE --config a.json b.json \
        --seeds 0 3 --masks 0 0,1 [--work DIR]

For each config, seed and CPU mask, each tree runs ``degm train`` in a
subprocess (``PYTHONPATH=<tree>/src``, the CPU affinity set to the mask).
A gr, gr-hier or bounds run is then scored by ``degm diagnose``, the
train-time ``bounds_report.csv`` kept as ``bounds_report.train.csv``. The
final model of every run that keeps one is scored by ``degm eval`` at K'=1
and K'=50, under the ``config.json`` the run wrote (its seed, and so its
config hash, is the run's), into ``eval_k1.csv`` and ``eval_k50.csv``:
``checkpoint/``, the graph, of a degm or ablation run, and
``checkpoint/task_<n>/``, the snapshot after the last task, of a gr, gr-hier
or bounds run. Every file in the run
directory ``degm train`` printed for the change is compared with the file
at the same place in the parent's, byte for byte, except the ``env`` block
of ``summary.json`` and the ``out_dir`` of ``config.json``; the two run
directories are named by each tree's config hash, so a change that moves
the hash is still compared file by file. With two or more masks, the files
the change writes on each mask are also compared with those it writes on
the first, the same way. Prints the differing files, and on one line of
their own those that differ only in the config hash (the run directory's
name); the count is out of the files either side wrote. Exits 1 when any
file differs, 2 when a command fails, 0 otherwise.
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
HASH = b"<config_hash>"  # stands for either side's hash when hash-only differences are sought
KPRIMES = (1, 50)
REPLAY_MODES = ("gr", "gr-hier", "bounds")  # their final model is their last snapshot


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


def run_commands(tree: str, config: str, seed: int, mask: set[int], out: str) -> str:
    """Every command of one (config, seed, mask) from ``tree``, writing under
    ``out``; returns the run directory."""
    with open(config) as fh:
        raw = json.load(fh)
    run_dir = _degm(tree, mask, "train", "--config", config, "--seed", str(seed),
                    "--out", out).strip().splitlines()[-1]
    final = os.path.join(run_dir, "checkpoint")
    if raw["mode"] in REPLAY_MODES:
        report = os.path.join(run_dir, "bounds_report.csv")
        if os.path.exists(report):
            shutil.copyfile(report, os.path.join(run_dir, "bounds_report.train.csv"))
        _degm(tree, mask, "diagnose", run_dir)
        final = os.path.join(final, f"task_{len(raw['tasks'])}")
    if os.path.exists(os.path.join(final, "manifest.json")):  # order-study keeps no model
        for k in KPRIMES:
            _degm(tree, mask, "eval", "--checkpoint", final,
                  "--config", os.path.join(run_dir, "config.json"),
                  "--kprime", str(k), "--out", os.path.join(run_dir, f"eval_k{k}.csv"))
    return run_dir


def digests(root: str) -> dict[str, tuple[str, str]]:
    """Two sha256 of every file under the run directory ``root`` by relative
    path, the ignored keys left out of the JSON files that carry them: of the
    file, and of the file with the config hash, the name of ``root``, as
    ``HASH``."""
    config_hash = os.path.basename(os.path.normpath(root)).encode()
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
            found[os.path.relpath(path, root)] = (
                hashlib.sha256(blob).hexdigest(),
                hashlib.sha256(blob.replace(config_hash, HASH)).hexdigest())
    return found


def compare(parent: str, change: str) -> tuple[list[str], list[str], int]:
    """Relative paths that differ in more than the config hash, or that only
    one side wrote; those that differ in the config hash alone; and the
    number of paths either side wrote."""
    want, got = digests(parent), digests(change)
    paths, missing = set(want) | set(got), ("", "")  # the digests of a file not written
    differing = sorted(p for p in paths if want.get(p, missing)[0] != got.get(p, missing)[0])
    hash_only = [p for p in differing if want.get(p, missing)[1] == got.get(p, missing)[1]]
    return [p for p in differing if p not in hash_only], hash_only, len(paths)


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
    differing, hash_only, across, compared = [], [], [], 0
    try:
        for config in args.config:
            config = os.path.abspath(config)
            stem = os.path.splitext(os.path.basename(config))[0]
            for seed in args.seeds:
                change_runs = {}  # mask -> the change's outputs
                for mask_spec, mask in masks.items():
                    case = os.path.join(stem, f"seed{seed}", f"mask{mask_spec}")
                    runs = {label: run_commands(os.path.abspath(tree), config, seed, mask,
                                                os.path.join(work, label, case))
                            for label, tree in (("parent", args.parent), ("change", args.change))}
                    changed, only_hash, count = compare(runs["parent"], runs["change"])
                    compared += count
                    hash_only += [os.path.join(case, path) for path in only_hash]
                    for path in changed:
                        differing.append(os.path.join(case, path))
                        print(f"differs: {differing[-1]}")
                    change_runs[mask_spec] = runs["change"]
                first, *others = change_runs
                for mask_spec in others:
                    changed, only_hash, _ = compare(change_runs[first], change_runs[mask_spec])
                    for path in changed + only_hash:
                        across.append(os.path.join(stem, f"seed{seed}", f"mask{mask_spec}", path))
                        print(f"differs from mask {first}: {across[-1]}")
    except (RuntimeError, OSError, subprocess.SubprocessError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    if hash_only:
        print(f"differ only in the config hash: {' '.join(hash_only)}")
    if len(masks) > 1:
        print(f"{len(across)} files the change writes differ between masks")
    print(f"{len(differing) + len(hash_only)} of {compared} files differ")
    return 1 if differing or hash_only or across else 0


if __name__ == "__main__":
    sys.exit(main())
