"""Acceptance sweep: each statistical criterion's checks over its random inputs.

Runs the checks of criteria 2, 3, 6, 7, 8, 9, 10 and 12 (``tests/criteria.py``,
the functions ``tests/test_acceptance.py`` asserts) at seed 0, the tests'
inputs, and at seeds 1 to 8, each of which moves every random input the
criterion draws. Writes one row per (criterion, check, seed) with the check's
value, threshold, margin and verdict, then prints each criterion's pass
fraction over the 8 other seeds. Takes about 2 minutes on 2 CPUs.

Usage: python scripts/calibrate_acceptance.py --out acceptance_sweep.csv
"""

import argparse
import os
import sys

from degm.persist import write_table

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
from criteria import CRITERIA  # noqa: E402

SEEDS = range(9)  # 0 is the committed inputs


def sweep(criteria: dict, seeds, out: str) -> list[dict]:
    """Run each of ``criteria`` ({number: function}) at each seed and write
    the rows to ``out``."""
    rows = [{"criterion": num, "check": c.name, "seed": seed, "value": c.value,
             "threshold": c.threshold, "margin": c.margin, "pass": c.passed}
            for num, run in criteria.items() for seed in seeds for c in run(seed)]
    write_table(out, rows)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="acceptance_sweep.csv", help="path of the CSV table")
    args = parser.parse_args()
    rows = sweep(CRITERIA, SEEDS, args.out)
    swept = [seed for seed in SEEDS if seed]
    for num in CRITERIA:
        verdicts = {seed: all(r["pass"] for r in rows if (r["criterion"], r["seed"]) == (num, seed))
                    for seed in SEEDS}
        print(f"criterion {num:02d}: seed 0 {'PASS' if verdicts[0] else 'FAIL'}, "
              f"{sum(verdicts[s] for s in swept)} of {len(swept)} other seeds pass")


if __name__ == "__main__":
    main()
