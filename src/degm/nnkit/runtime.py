"""Process-wide settings and probes: glibc malloc thresholds, the BLAS thread
count, and the environment block a run records.

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
import resource

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


def blas_threads() -> int | None:
    """The thread count of the loaded OpenBLAS, from its own getter; None
    where no OpenBLAS with a getter is mapped into the process."""
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
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def env_block(start: resource.struct_rusage) -> dict:
    """The numeric build, the BLAS thread count, the allocator setting, and
    what the command cost the process since ``start``: CPU seconds and minor
    page faults."""
    end = resource.getrusage(resource.RUSAGE_SELF)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy < 1.25 only prints its build info
        blas = {}
    return {
        "numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": blas_threads(), "malloc_thresholds_set": THRESHOLDS_SET,
        "user_s": end.ru_utime - start.ru_utime, "sys_s": end.ru_stime - start.ru_stime,
        "minor_faults": end.ru_minflt - start.ru_minflt,
    }
