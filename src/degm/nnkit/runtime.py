"""Process-wide settings and probes: glibc malloc thresholds, one OpenBLAS
thread, forked children for independent work (``start``, and ``fork_map`` on
top of it), and the environment block a run records.

One minibatch step of a specific node allocates about 2 MB of [batch, hidden]
float64 temporaries. Under glibc's defaults, arrays above the dynamic mmap
threshold are mapped and unmapped one by one, and the heap is trimmed back to
the OS whenever its free top exceeds twice the largest chunk ever mapped (a
480 KB evaluation array here). Every step then faults the same pages back in.
Fixing both thresholds keeps the step's working set in the heap. Importing
this module sets them, and pins OpenBLAS to one thread; where ``mallopt`` or
OpenBLAS's setter does not exist, that setting is left as it is.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import resource
import signal
import time

import numpy as np

M_TRIM_THRESHOLD = -1  # glibc <malloc.h>
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD_BYTES = 4 << 20
TRIM_THRESHOLD_BYTES = 8 << 20


def set_malloc_thresholds() -> bool:
    """Raise glibc's mmap and trim thresholds; True when both calls succeeded."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_BYTES) == 1
    trim_ok = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD_BYTES) == 1
    return mmap_ok and trim_ok


THRESHOLDS_SET = set_malloc_thresholds()


@functools.cache
def _openblas_function(verb: str):
    """The ``openblas_<verb>_num_threads`` entry point of the OpenBLAS mapped
    into the process, under any of the names numpy's wheels export it by;
    None where no such library or symbol is found. Looked up once per verb:
    numpy, imported above, has mapped its OpenBLAS before the first call."""
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
        for symbol in (f"scipy_openblas_{verb}_num_threads64_",
                       f"openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = (ctypes.c_int,) if verb == "set" else ()
                fn.restype = None if verb == "set" else ctypes.c_int
                return fn
    return None


def blas_threads() -> int | None:
    """The thread count of the loaded OpenBLAS, from its own getter; None
    where no OpenBLAS with a getter is mapped into the process."""
    getter = _openblas_function("get")
    return None if getter is None else int(getter())


def set_blas_threads(n: int) -> bool:
    """Set the thread count of the loaded OpenBLAS; False, and nothing
    changed, where no OpenBLAS with a setter is mapped into the process."""
    setter = _openblas_function("set")
    if setter is None:
        return False
    setter(int(n))
    return True


# OpenBLAS can round a product differently at another thread count, so every
# degm process runs it on one thread: a run's bits then depend neither on the
# CPU count nor on where a piece of work ran, and forked children do not
# contend for the CPUs with BLAS threads of their own.
BLAS_PINNED = set_blas_threads(1)


# -- one process per CPU for independent items -------------------------------

def share_count(items: int) -> int:
    """Processes ``fork_map`` splits ``items`` items over: one per CPU in the
    affinity mask (every CPU where the platform has no mask), no more than
    there are items, and 1 where ``os.fork`` does not exist."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(items, cpus))


def split_shares(costs: list, shares: int) -> list[list[int]]:
    """Item indices per share: longest item first onto the least-loaded share,
    ties to the lower index, each share's items in index order. The split is
    a function of the costs alone, so every run gives each process the same
    items."""
    loads = [0] * shares
    out: list[list[int]] = [[] for _ in range(shares)]
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        k = min(range(shares), key=lambda k: (loads[k], k))
        loads[k] += costs[i]
        out[k].append(i)
    return [sorted(share) for share in out]


class Handle:
    """``fn()`` of one ``start`` call: computed by a forked child, or already
    computed in this process."""

    def __init__(self, pid: int | None = None, read_fd: int | None = None,
                 outcome: tuple[bool, object] | None = None):
        self._pid, self._read_fd = pid, read_fd  # None once reaped
        self._outcome = outcome  # (ok, value or exception)

    def result(self):
        """``fn()``, or the exception it raised, raised unchanged. The first
        call reads the child's payload to EOF and reaps the child; a child
        that ends without sending one raises ``ChildProcessError``."""
        if self._pid is not None:
            pid, self._pid = self._pid, None
            self._outcome = _join(pid, self._read_fd)
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def cancel(self) -> None:
        """Kill and reap the child, unless it was joined already."""
        if self._pid is not None:
            pid, self._pid = self._pid, None
            os.close(self._read_fd)
            t0 = time.perf_counter()
            os.kill(pid, signal.SIGKILL)
            _reap(pid, t0)


def start(fn) -> Handle:
    """Fork one child that computes ``fn()``, and return its handle at once.

    The child sees this process's memory as it was at the fork, and its own
    writes stay its own; ``fn()`` must be picklable, as it comes back over a
    pipe. The caller joins the child with ``Handle.result()``, or kills it
    with ``Handle.cancel()``, and must do one of them on every path. The
    process must hold no threads of its own when the child is forked.

    With one CPU (``share_count(2) == 1``) nothing is forked: ``fn`` runs
    here, before this returns, and what it raises is raised here.
    """
    if share_count(2) == 1:
        return Handle(outcome=(True, fn()))
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        # the child never returns into the caller, and leaves through _exit
        # so that it runs no atexit handler and flushes no inherited buffer
        try:
            os.close(read_fd)
            try:
                payload = pickle.dumps((True, fn()))
            except BaseException as err:  # sent to the parent, which raises it
                try:
                    payload = pickle.dumps((False, err))
                except Exception:
                    payload = pickle.dumps((False, RuntimeError(
                        f"{type(err).__name__} in a forked child: {err}")))
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(0)
    os.close(write_fd)
    return Handle(pid, read_fd)


_reaped: list[tuple[float, float, float, float]] = []  # one entry per _reap


def _reap(pid: int, t0: float) -> int:
    """Reap the child ``pid``, append its own user and system CPU seconds,
    its peak resident memory in MB and the seconds since ``t0``, when this
    process began to wait for it, to ``_reaped``; return its wait status."""
    _, status, child = os.wait4(pid, 0)
    _reaped.append((child.ru_utime, child.ru_stime, child.ru_maxrss / 1024.0,
                    time.perf_counter() - t0))
    return status


def _join(pid: int, read_fd: int) -> tuple[bool, object]:
    """Read a child's outcome to EOF, then reap it; a child that sent none
    fails with ``ChildProcessError``. Reading comes first: a payload larger
    than the pipe buffer blocks the child until it is read."""
    t0 = time.perf_counter()
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        status = _reap(pid, t0)
    if not payload:
        return False, ChildProcessError(f"a forked child (pid {pid}) ended with exit status "
                                        f"{os.waitstatus_to_exitcode(status)} and sent no results")
    return pickle.loads(payload)  # written by this program's own child


def fork_map(fn, costs: list) -> list:
    """``[fn(i) for i in range(len(costs))]``, with the items split between
    this process and one child (``start``) per further CPU (``share_count``).

    ``costs[i]`` is the relative cost of item i; ``split_shares`` turns them
    into a fixed split, and this process computes share 0 itself, so that
    it does not sit idle while the children pay their copy-on-write faults.
    ``fn`` must not depend on what another item did, and its results must be
    picklable (see ``start``). An exception an item raises in a child is
    raised here unchanged. On every path each child is reaped before this
    returns or raises.
    """
    shares = split_shares(costs, share_count(len(costs)))
    if len(shares) < 2:
        return [fn(i) for i in range(len(costs))]
    results: list = [None] * len(costs)
    handles: list[Handle] = []
    try:
        for share in shares[1:]:
            handles.append(start(lambda share=share: [fn(i) for i in share]))
        for i in shares[0]:
            results[i] = fn(i)
        for share, handle in zip(shares[1:], handles):
            for i, result in zip(share, handle.result()):
                results[i] = result
    finally:
        for handle in handles:  # only left unjoined when this process failed
            handle.cancel()
    return results


def usage() -> tuple[resource.struct_rusage, int]:
    """What the process has used so far, and how many children it has
    reaped; the ``start`` of ``env_block``."""
    return resource.getrusage(resource.RUSAGE_SELF), len(_reaped)


def env_block(start: tuple[resource.struct_rusage, int]) -> dict:
    """The numeric build, the BLAS thread count, the allocator setting, and
    what the command cost since ``start`` (from ``usage``): the CPU seconds
    and minor page faults of the process, and of the children it reaped
    since then (``start``'s and ``fork_map``'s), their number, their summed
    CPU seconds, the peak resident memory of the largest (0.0 with none)
    and the seconds the process spent blocked on them."""
    end = resource.getrusage(resource.RUSAGE_SELF)
    since, reaped = start
    children = np.array(_reaped[reaped:], dtype=np.float64).reshape(-1, 4)
    user_s, sys_s, maxrss_mb, wait_s = children.T
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.25 only prints its build info
        blas = {}
    return {
        "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(), "malloc_thresholds_set": THRESHOLDS_SET,
        "user_s": end.ru_utime - since.ru_utime,
        "sys_s": end.ru_stime - since.ru_stime,
        "minor_faults": end.ru_minflt - since.ru_minflt,
        "children": len(children), "children_wait_s": float(wait_s.sum()),
        "children_user_s": float(user_s.sum()), "children_sys_s": float(sys_s.sum()),
        "children_maxrss_mb": float(maxrss_mb.max(initial=0.0)),
    }
