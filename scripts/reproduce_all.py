#!/usr/bin/env python3
"""Run every verification pipeline and collect JSON reports under reports/.

Covers the logarithmic WDVV family (m = 1, 2, 3, 7), the Euler-weighted
checks, both obstruction roots at (alpha, beta) = (2, 1) and (5, 2), and the
two canned reproductions.  Exit status is nonzero if any pipeline fails.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# run from a checkout without an install: the package lives in src/
sys.path.insert(0, str(ROOT / "src"))

from lenardlab.cli import main  # noqa: E402

REPORTS = ROOT / "reports"

RUNS = [
    ("wdvv_m1", ["verify-wdvv", "--potential", "veselov", "--n", "3", "--m", "1",
                 "--points", "100", "--seed", "42"]),
    ("wdvv_m2", ["verify-wdvv", "--potential", "veselov", "--n", "3", "--m", "2",
                 "--points", "100", "--seed", "42", "--euler", "quarter-x"]),
    ("wdvv_m3", ["verify-wdvv", "--potential", "veselov", "--n", "3", "--m", "3",
                 "--points", "100", "--seed", "42"]),
    ("wdvv_m7", ["verify-wdvv", "--potential", "veselov", "--n", "3", "--m", "7",
                 "--points", "100", "--seed", "42"]),
    ("wdvv_reference", ["verify-wdvv", "--potential", "example3-reference",
                        "--points", "100", "--seed", "42", "--euler", "quarter-x"]),
    ("complex_2_1_root1", ["build-complex", "--alpha", "2", "--beta", "1",
                           "--root", "1", "--points", "50", "--seed", "7"]),
    ("complex_2_1_root2", ["build-complex", "--alpha", "2", "--beta", "1",
                           "--root", "2", "--points", "50", "--seed", "7"]),
    ("complex_5_2_root1", ["build-complex", "--alpha", "5", "--beta", "2",
                           "--root", "1", "--points", "50", "--seed", "7"]),
    ("complex_5_2_root2", ["build-complex", "--alpha", "5", "--beta", "2",
                           "--root", "2", "--points", "50", "--seed", "7"]),
    ("reproduce_example3", ["reproduce", "example3", "--points", "50",
                            "--segments", "10", "--seed", "11"]),
    ("reproduce_gd", ["reproduce", "gd", "--points", "50", "--seed", "11"]),
]


def run_all() -> int:
    REPORTS.mkdir(exist_ok=True)
    worst = 0
    for name, argv in RUNS:
        out = REPORTS / f"{name}.json"
        code = main(argv + ["--format", "json", "--out", str(out)])
        print(f"{name:22s} exit={code}  -> {out}")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run_all())
