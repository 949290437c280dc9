#!/usr/bin/env python3
"""Run every verification suite and print the reports.

--quick shrinks each suite to a smoke-test size; the default runs the
full sizes the acceptance tests use: 2.5-4.9 s of wall time on a
shared 2-vCPU host with Python 3.11, 1.4-2.9 s of it in tie-tree-search
(twenty runs; the spread is the other load on the host).  Runs from a
checkout without an install: the repository's ``src`` comes first on
the import path.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from graphshare.verify import SUITE_NAMES, run_suite  # noqa: E402

QUICK = {
    "general-third": {"cases": 60, "max_vertices": 9},
    "tree-half": {"cases": 40, "max_vertices": 9},
    "mutual-edge": {"cases": 40, "max_vertices": 9},
    "lead-invariant": {"cases": 40, "max_vertices": 5},
    "oracle-equivalence": {"cases": 40, "max_vertices": 5},
    "cycle7-family": {"m_values": (1000,)},
    "edge-family": {"k_max": 12},
    "tie-tree-search": {
        "vertices": 7,
        "hill_iters": 10,
        "alternate_iters": 4,
        "refine_top": 1,
        "threshold": Fraction(3, 5),
        "stretch": Fraction(1, 2),
    },
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--suite",
        action="append",
        choices=SUITE_NAMES,
        help="run only this suite (repeatable); default is all",
    )
    args = parser.parse_args()
    names = args.suite or SUITE_NAMES
    failed = []
    for name in names:
        params = QUICK[name] if args.quick else None
        report = run_suite(name, seed=args.seed, size_params=params)
        sys.stdout.write(report.render())
        sys.stdout.write(f"wall_time={report.wall_time:.2f}s\n\n")
        if not report.passed:
            failed.append(name)
    if failed:
        print(f"failing suites: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
