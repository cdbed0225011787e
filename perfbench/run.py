"""degm benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload degm-stream --seed 0 --seconds 20 --trace 0

Run it from the root of a degm checkout; it imports the package from ./src.
Load model: closed loop, one command at a time in this one process, BLAS at
its library default (no thread override; the thread count is recorded).

``--trace 0`` times the workload's commands with tracing off and reports the
end-to-end metrics. ``--trace 1`` alternates untraced runs with traced ones
and reports the per-layer metrics, plus the tracing overhead. Every run's
outputs are checked (see checks.py); a run that raises or fails a check
counts as failed. Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
import typing
from time import perf_counter

import checks
import spans
from workloads import INPUT_SETS, WORKLOADS, input_seed

MIN_TIMED = 3  # timed runs per process, even when --seconds has run out
MIN_TRACED = 2  # traced runs per process: counts must repeat between them
TRACED_SETUPS = 2  # with --trace 1 set-up is not reported, only checked to repeat

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {**spans.LAYER_METRICS, "select_eval.accuracy": "ratio",
               "trace.overhead_frac": "ratio"}


def load_program(root: str):
    """Put <root>/src first on the path and import numpy, a dependency whose
    import no degm change can move; returns numpy's import time."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "degm", "cli.py")):
        raise FileNotFoundError(f"no degm sources under {src}; run from the root of a degm checkout")
    sys.path.insert(0, src)
    t0 = perf_counter()
    importlib.import_module("numpy")
    numpy_s = perf_counter() - t0
    cli = importlib.import_module("degm.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"degm was imported from {cli.__file__}, not from {src}")
    return numpy_s


def drop_program() -> None:
    """Forget every loaded degm module and free it, so the next import is fresh."""
    for name in [n for n in sys.modules if n == "degm" or n.startswith("degm.")]:
        del sys.modules[name]
    # typing caches its generic aliases, such as Callable[..., GraphModel],
    # and they would keep every earlier import's modules alive
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    gc.collect()


class Session:
    """Set-up state and one-iteration runner for one workload and seed."""

    def __init__(self, workload, seed: int, work_dir: str):
        self.workload, self.seed, self.work_dir = workload, seed, work_dir
        self.input_seed = input_seed(seed)
        self.cli = None
        self.config = workload.config(self.input_seed)
        self.text = json.dumps({**self.config, "out_dir": work_dir})
        self.state: dict = {}
        self.stream = None
        self.problems: list[str] = []

    def setup(self, rep: int) -> float:
        """Import degm, parse the config, build the stream and any workload
        set-up; returns the time taken. Later runs use the last import and
        the state of the first set-up."""
        self.cli = None
        drop_program()
        setup_dir = os.path.join(self.work_dir, f"setup{rep}")
        t0 = perf_counter()
        self.cli = importlib.import_module("degm.cli")
        cfg = self.cli.parse_config(self.text)
        self.stream = self.cli.build_stream(cfg)
        state = self.workload.prepare(self.cli, setup_dir)
        seconds = perf_counter() - t0
        if self.state:
            # the same set-up twice in one process must give the same outputs, bit for bit
            mine = {k: v for k, v in state.items() if k != "checkpoint"}
            first = {k: v for k, v in self.state.items() if k != "checkpoint"}
            self.problems += [f"set-up {rep} differs from set-up 0: {p}"
                              for p in checks.differences(mine, first)]
            shutil.rmtree(setup_dir, ignore_errors=True)
        else:
            self.state = state
        return seconds

    def iterate(self, k: int) -> tuple[dict, dict]:
        out_dir = os.path.join(self.work_dir, f"run{k}")
        try:
            cfg = self.cli.parse_config(self.text)
            self.cli.build_stream(cfg)  # untimed, so that traced runs cover the set-up calls
            return self.workload.run(self.cli, cfg, self.state, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else 0.0


def _p75(values):
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else _median(values)


def environment(root: str, load_before, load_after) -> dict:
    np = sys.modules.get("numpy")
    blas = {}
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (AttributeError, KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(), "numpy": getattr(np, "__version__", None),
        "blas_name": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                        "MKL_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "loadavg_before": list(load_before), "loadavg_after": list(load_after),
    }


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked through its own API."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: str):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run(args) -> int:
    root = os.getcwd()
    workload = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    try:
        numpy_s = load_program(root)
    except (FileNotFoundError, ImportError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    tracer = spans.Tracer()
    refs = checks.load_refs()

    out_root = os.path.join(root, ".perfbench_out")
    work_dir = os.path.join(out_root, f"{workload.name}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    session = Session(workload, args.seed, work_dir)
    setups: list[float] = []
    try:
        if args.trace:
            setups += [session.setup(rep) for rep in range(TRACED_SETUPS)]
        targets = spans.targets(importlib.import_module("degm.nnkit").grad_enabled)
        originals = spans.snapshot_originals(targets)
        result = measure(args, session, tracer, targets, originals, refs, setups)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    runs, problems, first_out = result
    problems = session.problems + problems
    if args.trace:
        tracer.write(os.path.join(out_root, f"spans-{workload.name}-seed{args.seed}.csv"))

    attempted = len(runs)
    failed = sum(1 for r in runs if r["failed"])
    work = workload.work_rows(session.stream)
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
             f"runs {attempted}  failed {failed}  fail_frac {failed / attempted:.4f} ratio"]
    timed = [r for r in runs if not r["traced"] and not r["failed"] and not r["warmup"]]
    for command in workload.commands:
        times = [r["times"][command] for r in timed]
        rates = [work[command] / t for t in times]
        lines.append(f"  {command}_s  median {_median(times):.6f} s  p75 {_p75(times):.6f} s  "
                     f"n {len(times)}  |  {command}_rows_per_s  median {_median(rates):.1f} "
                     f"rows/s  ({work[command]} rows per run)")
    walls = [sum(r["times"].values()) for r in timed]
    lines.append("  wall_s of each timed run: " + " ".join(f"{w:.4f}" for w in walls))
    total_rows = sum(work.values())
    if args.trace:
        metrics = layer_summary(runs, first_out, walls, problems)
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": _median(walls),
            "setup_s": _median(setups),
            "rows_per_s": _median([total_rows / w for w in walls]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        lines.append(f"  wall_s p75 {_p75(walls):.6f} s n {len(walls)}  |  setup_s: median of "
                     f"{len(setups)} set-ups, min {min(setups):.4f} s max {max(setups):.4f} s  |  numpy import "
                     f"{numpy_s:.4f} s (not in setup_s)")
    for name, unit in units.items():
        lines.append(f"  {name:<40} {metrics[name]!r:>24} {unit}")
    if tracer.missing:
        lines.append(f"  trace targets not found: {tracer.missing}")
    lines.append(f"  metrics.csv sha256 {first_out.get('metrics_sha256')}  "
                 f"input set {session.input_seed} (seed mod {INPUT_SETS}) checked against refs.json")
    for p in problems:
        lines.append(f"  CHECK FAILED: {p}")
    lines.append("env " + json.dumps(environment(root, load_before, os.getloadavg()), sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def measure(args, session, tracer, targets, originals, refs, setups):
    """Run the workload until --seconds have passed; returns (runs, problems, first outputs).
    Without tracing, the workload's set-ups run before the warm-up run and before
    every run, and their times go to ``setups``."""
    runs: list[dict] = []
    problems: list[str] = []
    first_out: dict = {}

    def one(traced: bool, warmup: bool = False):
        if not args.trace:
            # spread over the whole run, so that setup_s sees the same stretch
            # of machine time as wall_s: on a shared 2-core box throughput can
            # drop by a third for seconds at a time, and a burst of set-ups at
            # the start would land in one state or the other
            setups.extend(session.setup(len(setups)) for _ in range(session.workload.setup_reps))
        k = len(runs)
        record = {"traced": traced, "warmup": warmup, "failed": False, "times": {}}
        runs.append(record)
        start = len(tracer.spans)
        try:
            if traced:
                tracer.run_id = f"{session.workload.name}:seed{session.seed}:run{k}"
                tracer.install(targets)
            else:
                tracer.assert_clean(originals)
            try:
                times, out = session.iterate(k)
            finally:
                tracer.uninstall()
            found = run_problems(session, refs, out, first_out)
            if traced:
                record["layers"] = spans.layer_metrics(tracer.spans[start:], start)
        except Exception as err:  # noqa: BLE001 - a failing run is counted and reported, not fatal
            traceback.print_exc()
            found = [f"run {k}: {type(err).__name__}: {err}"]
        else:
            record["times"] = times
            if not first_out:
                first_out.update(out)
        if found:
            record["failed"] = True
            problems.extend(found)

    if not args.trace:
        setups.extend(session.setup(len(setups)) for _ in range(session.workload.setups_first))
    one(traced=False, warmup=True)
    t_start = perf_counter()
    while True:
        done = [r for r in runs if not r["warmup"]]
        traced_n = sum(r["traced"] for r in done)
        untraced_n = len(done) - traced_n
        enough = (traced_n >= MIN_TRACED and untraced_n >= MIN_TRACED) if args.trace \
            else untraced_n >= MIN_TIMED
        if enough and perf_counter() - t_start >= args.seconds:
            break
        one(traced=bool(args.trace) and traced_n <= untraced_n)
    return runs, problems, first_out


def run_problems(session, refs, out: dict, first_out: dict) -> list[str]:
    wl = session.workload
    found = wl.invariants(out, session.stream)
    want = checks.stored_reference(refs, wl, session.input_seed)
    if want is None:
        found.append(f"refs.json has no outputs for input set {session.input_seed} of {wl.name} "
                     f"at this config (fingerprint {checks.workload_digest(wl)})")
    else:
        found += [f"reference: {p}" for p in checks.differences(checks.compared(out), want)]
    if first_out:
        found += [f"differs from the first run: {p}" for p in
                  checks.differences(checks.compared(out), checks.compared(first_out))]
    return found


def layer_summary(runs, first_out, untraced_walls, problems) -> dict:
    traced = [r for r in runs if r["traced"] and "layers" in r]
    if not traced:
        return {name: 0 for name in LAYER_UNITS}
    layers = [r["layers"] for r in traced]
    out = {}
    for name in spans.LAYER_METRICS:
        if name in spans.COUNT_METRICS:
            values = {m[name] for m in layers}
            if len(values) > 1:
                problems.append(f"count {name} differs between traced runs: {sorted(values)}")
            out[name] = layers[0][name]
        else:
            out[name] = _median([m[name] for m in layers])
    out["select_eval.accuracy"] = first_out.get("accuracy", 0.0)
    traced_walls = [sum(r["times"].values()) for r in traced]
    untraced = _median(untraced_walls)
    out["trace.overhead_frac"] = _median(traced_walls) / untraced - 1.0 if untraced else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
