"""Every committed config writes the values recorded in pinned_outputs.json
(by ``record_pinned.py``): each table of ``degm train``, ``summary.json``
but for its env, ``degm eval`` of the final model at K'=1 and K'=50 and, for
the replay modes, ``degm diagnose``'s report.

Every value must equal its pinned one, a table's cells as the text written
and so floats too: a relative tolerance of 0. A run repeats its bits on one
machine, and a last-bit change inside training moves little: with Adam's
learning rate one ulp higher, the 263 pinned values that moved did so by
1.1e-16 to 1.3e-13 relative, so a tolerance of 1e-12 passed that change. On
a machine whose numpy, BLAS or CPU (and so the BLAS kernel) differs from the
recording's, many values differ by another summation order, and a mismatch
says nothing about a change: run this test at the parent commit on that
machine, and if it fails there with the same values, the difference is the
machine's. ``scripts/compare_outputs.py`` compares the two commits' files
directly.
"""

import json

import pytest

from record_pinned import CONFIGS, PIN_PATH, config_outputs, stem

SHOWN = 10  # differences listed in a failure


def differences(got, want, path: str) -> list[str]:
    """Where ``got`` differs from ``want``, or is of another type."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r} "
                    f"!= {sorted(want)}"]
        return [d for k in sorted(want) for d in differences(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{path}[{i}]")]
    if type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != pinned {want!r}"]


@pytest.fixture(scope="module")
def pinned():
    with open(PIN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("config", CONFIGS, ids=stem)
def test_config_writes_its_pinned_values(config, pinned, tmp_path):
    assert stem(config) in pinned["configs"], f"{stem(config)} is not pinned: run record_pinned.py"
    got, env = config_outputs(config, str(tmp_path))
    found = differences(got, pinned["configs"][stem(config)], stem(config))
    assert not found, (
        f"{len(found)} values differ from the pin, recorded with {pinned['recorded_with']}; "
        f"this run: {env}. On another numpy, BLAS or CPU, see the module docstring.\n"
        + "\n".join(found[:SHOWN]))
