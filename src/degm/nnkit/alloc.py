"""Process-wide glibc malloc thresholds that keep a training step's arrays resident.

One minibatch step of a specific node allocates about 2 MB of [batch, hidden]
float64 temporaries. Under glibc's defaults, arrays above the dynamic mmap
threshold are mapped and unmapped one by one, and the heap is trimmed back to
the OS whenever its free top exceeds twice the largest chunk ever mapped (a
480 KB evaluation array here). Every step then faults the same pages back in.
Fixing both thresholds keeps the step's working set in the heap. Where
``mallopt`` does not exist (non-glibc platforms) nothing is changed.
"""

from __future__ import annotations

import ctypes

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
