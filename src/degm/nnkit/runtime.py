"""Process-wide settings and probes: glibc malloc thresholds, the BLAS thread
count, forked children for independent work (``start``, and ``fork_map`` on
top of it), and the environment block a run records.

One minibatch step of a specific node allocates about 2 MB of [batch, hidden]
float64 temporaries. Under glibc's defaults, arrays above the dynamic mmap
threshold are mapped and unmapped one by one, and the heap is trimmed back to
the OS whenever its free top exceeds twice the largest chunk ever mapped (a
480 KB evaluation array here). Every step then faults the same pages back in.
Fixing both thresholds keeps the step's working set in the heap. Importing
this module sets them; where ``mallopt`` does not exist (non-glibc platforms)
nothing is changed.
"""

from __future__ import annotations

import ctypes
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


def _openblas_function(verb: str):
    """The ``openblas_<verb>_num_threads`` entry point of the OpenBLAS mapped
    into the process, under any of the names numpy's wheels export it by;
    None where no such library or symbol is found."""
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
                return fn
    return None


def blas_threads() -> int | None:
    """The thread count of the loaded OpenBLAS, from its own getter; None
    where no OpenBLAS with a getter is mapped into the process."""
    getter = _openblas_function("get")
    if getter is None:
        return None
    getter.argtypes = ()
    getter.restype = ctypes.c_int
    return int(getter())


def set_blas_threads(n: int) -> bool:
    """Set the thread count of the loaded OpenBLAS; False, and nothing
    changed, where no OpenBLAS with a setter is mapped into the process."""
    setter = _openblas_function("set")
    if setter is None:
        return False
    setter.argtypes = (ctypes.c_int,)
    setter.restype = None
    setter(int(n))
    return True


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


# OpenBLAS runs one thread in every process while a forked child is
# outstanding, so that the processes do not contend for the CPUs with their
# BLAS threads. The count before the first child comes back with the last join.
_outstanding = 0
_restore_threads: int | None = None


def _pin_blas() -> None:
    global _outstanding, _restore_threads
    if _outstanding == 0:
        old = blas_threads()
        _restore_threads = old if old is not None and set_blas_threads(1) else None
    _outstanding += 1


def _unpin_blas() -> None:
    global _outstanding
    _outstanding -= 1
    if _outstanding == 0 and _restore_threads is not None:
        set_blas_threads(_restore_threads)


class Handle:
    """``fn()`` of one ``start`` call: computed by a forked child, or already
    computed in this process."""

    def __init__(self, pid: int | None = None, read_fd: int | None = None,
                 outcome: tuple[bool, object] | None = None):
        self._pid, self._read_fd = pid, read_fd  # None once reaped
        self.forked = pid is not None
        self.wait_s = 0.0  # spent blocked in result()
        self._outcome = outcome  # (ok, value or exception)

    def result(self):
        """``fn()``, or the exception it raised, raised unchanged. The first
        call reads the child's payload to EOF and reaps the child; a child
        that ends without sending one raises ``ChildProcessError``."""
        if self._pid is not None:
            pid, self._pid = self._pid, None
            t0 = time.perf_counter()
            try:
                self._outcome = _join(pid, self._read_fd)
            except ChildProcessError as err:
                self._outcome = (False, err)
            finally:
                self.wait_s += time.perf_counter() - t0
                _unpin_blas()
        ok, value = self._outcome
        if not ok:
            raise value
        return value

    def cancel(self) -> None:
        """Kill and reap the child, unless it was joined already."""
        if self._pid is not None:
            pid, self._pid = self._pid, None
            os.close(self._read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            _unpin_blas()


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
    _pin_blas()
    try:
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
    except BaseException:
        _unpin_blas()
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


def _join(pid: int, read_fd: int) -> tuple[bool, object]:
    """Read a child's payload to EOF, then reap it. Reading comes first: a
    payload larger than the pipe buffer blocks the child until it is read."""
    try:
        with os.fdopen(read_fd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if not payload:
        raise ChildProcessError(f"a forked child (pid {pid}) ended with exit status "
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


def usage() -> tuple[resource.struct_rusage, resource.struct_rusage]:
    """What the process and its reaped children have used so far; the
    ``start`` of ``env_block``."""
    return resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)


def env_block(start: tuple[resource.struct_rusage, resource.struct_rusage],
              eval_processes: int | None = None, fit_processes: int | None = None,
              fit_wait_s: float | None = None) -> dict:
    """The numeric build, the BLAS thread count, the allocator setting, and
    what the command cost since ``start`` (from ``usage``): the CPU seconds
    and minor page faults of the process, and the CPU seconds of the
    children it reaped, such as ``fork_map``'s shares. ``children_maxrss_mb``
    is the peak resident memory of the largest child the process ever
    reaped, which the kernel does not report per interval. ``eval_processes``
    is the number of processes the eval table was split over,
    ``fit_processes`` the number the bounds fits ran in, and ``fit_wait_s``
    the seconds the process spent blocked on the fits; each is None where
    the command made none."""
    end_self, end_children = usage()
    start_self, start_children = start
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.25 only prints its build info
        blas = {}
    return {
        "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(), "malloc_thresholds_set": THRESHOLDS_SET,
        "user_s": end_self.ru_utime - start_self.ru_utime,
        "sys_s": end_self.ru_stime - start_self.ru_stime,
        "minor_faults": end_self.ru_minflt - start_self.ru_minflt,
        "children_user_s": end_children.ru_utime - start_children.ru_utime,
        "children_sys_s": end_children.ru_stime - start_children.ru_stime,
        "children_maxrss_mb": end_children.ru_maxrss / 1024.0,
        "eval_processes": eval_processes,
        "fit_processes": fit_processes,
        "fit_wait_s": fit_wait_s,
    }
