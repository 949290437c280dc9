#!/usr/bin/env python3
"""Regenerate ``reference.json``: the seed-0 output digests that
``run.py`` checks for ``solve-narrow`` and ``verify-suites``.

    python3 perfbench/make_reference.py

Run it only after changing a workload's inputs, and only with a package
whose outputs are known to be right: the digests are the expected
outputs from then on.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SEED = 0
CHECKED = ("solve-narrow", "verify-suites")


def main() -> int:
    reference = {}
    for name in CHECKED:
        workload = WORKLOADS[name](SEED, False)
        outputs = workload.run(tracing.API)
        bad = workload.check(outputs)
        if bad:
            print(f"{name}: checks fail, not writing: {sorted(set(bad.values()))[:3]}")
            return 1
        reference[name] = {
            str(SEED): digest([workload.fingerprint(out) for out in outputs])
        }
        print(f"{name}: {reference[name][str(SEED)]}")
    with open(os.path.join(HERE, "reference.json"), "w") as handle:
        json.dump(reference, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
