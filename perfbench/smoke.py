#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` at its tiny size, untraced and
traced, and checks that each run passes its output checks and prints
every metric that ``BENCHMARK.json`` names, with its unit, both as a
``name=value unit`` line and in the final JSON line.  Takes under a
minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    problems = []
    for workload in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            argv = bench["command"] + [
                "--workload", workload["name"],
                "--seed", "1",
                "--seconds", "1",
                "--trace", str(trace),
                "--tiny",
            ]
            proc = subprocess.run(
                argv, cwd=ROOT, capture_output=True, text=True, timeout=180
            )
            label = f"{workload['name']} trace={trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode} {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: output checks failed")
            for metric in declared:
                name, unit = metric["name"], metric["unit"]
                got = result["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    problems.append(f"{label}: {name} [{unit}] missing from JSON")
                if not any(
                    line.startswith(f"{name}=") and line.endswith(f" {unit}")
                    for line in lines
                ):
                    problems.append(f"{label}: no '{name}=... {unit}' line")
            extra = set(result["metrics"]) - {m["name"] for m in declared}
            if extra:
                problems.append(f"{label}: undeclared metrics {sorted(extra)}")
            print(f"{label}: {len(result['metrics'])} metrics", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
