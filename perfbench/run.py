#!/usr/bin/env python3
"""Benchmark entry point: one workload, its metrics, one JSON line.

    python3 perfbench/run.py --workload solve-narrow --seed 0 --seconds 35 --trace 0

Run from anywhere inside a checkout that has ``src/graphshare``.  The
workload runs in ``MEASURE_WORKERS`` fresh single-threaded ``worker.py``
processes, one after another, that share ``--seconds``: timing jitter
and a process's memory layout moved small-call latencies by up to 25%
from one process to the next, so every figure pools several processes,
and a call's latency is its least time over all of their passes.  All
times are calibrated CPU times (see ``worker.py`` and ``hostspeed.py``).
Set-up time is the median over those processes and ``SETUP_PROBES``
more that stop at the first timed call.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced pass and writes its spans under
``.bench_out/``.  The last stdout line is the JSON result.  The exit
code is 0 when every output check passed, 1 when one failed, and 2 when
the benchmark could not run at all (then nothing is printed on stdout).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "graphshare")
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".bench_out")
MEASURE_WORKERS = 3
SETUP_PROBES = 2
DEADLINE_S = 170  # the whole command must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("batch_cpu_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run."""


def _git_revision() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "none"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:12]


def metadata() -> dict:
    return {
        "host": platform.node(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_rev": _git_revision(),
        "src_sha256": _source_digest(),
    }


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run one worker and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, WORKER] + argv,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-800:]}")
    return json.loads(out.strip().splitlines()[-1])


def run(args) -> tuple[dict, dict]:
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        raise BenchError(f"no graphshare package under {os.path.dirname(PACKAGE)}")
    deadline = time.monotonic() + DEADLINE_S
    base = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", str(args.trace),
    ] + (["--tiny"] if args.tiny else [])
    setups = [
        _spawn(base + ["--seconds", "0", "--setup-only"], deadline)["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        argv = base + ["--seconds", str(args.seconds), "--check", "--spans-out", spans]
        workers = [_spawn(argv, deadline)]
    else:
        share = str(args.seconds / MEASURE_WORKERS)
        workers = [
            _spawn(base + ["--seconds", share] + ["--check"] * (i == 0), deadline)
            for i in range(MEASURE_WORKERS)
        ]
    first = workers[0]
    result = dict(first)
    result["setup_s"] = statistics.median(setups + [w["setup_s"] for w in workers])
    result["attempted"] = sum(w["attempted"] for w in workers)
    # a worker whose outputs differ from the first worker's fails entirely
    result["failed"] = 0
    for index, w in enumerate(workers):
        if w["digest"] != first["digest"] or len(w.get("latencies", ())) != len(
            first.get("latencies", ())
        ):
            result["failed"] += w["attempted"]
            result["failures"].append(f"worker {index} differs from worker 0")
        else:
            result["failed"] += w["failed"]
    for key in ("passes", "raw_cpu", "raw_wall"):
        result[key] = [v for w in workers for v in w[key]]
    if not args.trace:
        # the same call's least time over every worker, as within a worker
        latencies = sorted(map(min, zip(*(w["latencies"] for w in workers))))
        p95 = percentile(latencies, 0.95)
        result.update(
            batch_cpu_s=statistics.median(result["passes"]),
            samples=len(latencies),
            solve_p50_ms=percentile(latencies, 0.50) * 1e3,
            solve_p95_ms=p95 * 1e3,
            above_p95=sum(v > p95 for v in latencies),
            peak_rss_mb=statistics.median(w["peak_rss_mb"] for w in workers),
        )
        del result["latencies"]
    return result, metadata()


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def report(args, result: dict, meta: dict) -> dict:
    """Print the human-readable lines and return the JSON result."""
    print(" ".join(f"{k}={v}" for k, v in meta.items()))
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} "
        f"timed_passes={len(result['passes'])} digest={result['digest'][:16]}"
    )
    if args.trace:
        metrics = {k: (v, _layer_unit(k)) for k, v in result["layers"].items()}
        print(f"untraced_batch_cpu_s={result['untraced_s']!r} s")
        if result["mismatched"]:
            print("exact counts differ between traced passes: "
                  + ", ".join(result["mismatched"]))
    else:
        metrics = {name: (result[name], unit) for name, unit in END_TO_END}
        print(f"solve_samples={result['samples']} above_p95={result['above_p95']}")
    for key in ("passes", "raw_cpu", "raw_wall"):
        print(f"pass_{key}_s=" + ",".join(f"{v:.3f}" for v in result[key]))
    for name, (value, unit) in metrics.items():
        print(f"{name}={value!r} {unit}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"error_rate={failed / attempted!r} ({failed}/{attempted} operations)")
    for failure in result["failures"]:
        print(f"check failed: {failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


_UNITS = {
    "solve.us_per_state": "us",
    "solve.searches_per_instance": "searches/inst",
    "generators.accept_ratio": "ratio",
    "simplex.rows_mean": "rows",
    "simplex.rows_max": "rows",
    "simplex.calls_per_minimize": "calls/minimize",
}


def _layer_unit(name: str) -> str:
    if name in _UNITS:
        return _UNITS[name]
    return "s" if name.endswith(("_s", ".s")) else "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="smoke-test sizes; no reference digests"
    )
    args = parser.parse_args()
    try:
        result, meta = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    summary = report(args, result, meta)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as handle:
        json.dump({"meta": meta, "args": vars(args), "worker": result, **summary},
                  handle, indent=1, default=str)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
