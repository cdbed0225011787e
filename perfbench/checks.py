"""Output checks: stored reference values per seed, and run-to-run agreement.

``refs.json`` holds, per workload and seed, the outputs the program gave when
the references were recorded (``record_refs.py``). Floats must agree within
REL_TOL relative (ABS_TOL absolute near zero); everything else exactly. The
sha256 of ``metrics.csv`` is reported, never compared: bit-for-bit identity
stays visible without becoming a gate.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

REL_TOL, ABS_TOL = 1e-6, 1e-9
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")
NOT_COMPARED = ("metrics_sha256",)


def workload_digest(workload) -> str:
    """Fingerprint of the workload's config (at seed 0): references recorded
    for other sizes or settings do not apply."""
    blob = json.dumps(workload.config(0), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def load_refs() -> dict:
    with open(REFS_PATH) as fh:
        return json.load(fh)


def compared(out: dict) -> dict:
    return {k: v for k, v in out.items() if k not in NOT_COMPARED}


def differences(got, want, path: str = "") -> list[str]:
    """Where ``got`` differs from ``want`` beyond the tolerance."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'outputs'}: keys {sorted(got) if isinstance(got, dict) else got}"
                    f" != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}.{k}" if path else k)]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else got} != {len(want)}"]
        return [d for i, (g, w) in enumerate(zip(got, want)) for d in differences(g, w, f"{path}[{i}]")]
    if isinstance(want, float) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != reference {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != reference {want!r}"]


def stored_reference(refs: dict, workload, seed: int):
    """The recorded outputs for this workload and seed, or None."""
    entry = refs.get(workload.name, {})
    if entry.get("config_digest") != workload_digest(workload):
        return None
    return entry.get("seeds", {}).get(str(seed))
