"""One workload in one fresh process; ``run.py`` starts several in turn.

Set-up (interpreter start, imports, input generation, reference
loading) ends just before the first timed call; ``setup_s`` is the CPU
time this process has used by then.  ``--setup-only`` stops there.
Otherwise the worker warms up on the workload's tiny batch, untimed,
and then makes timed passes over the full batch:

- ``--trace 0``: passes with only the ``solve`` latency probe installed,
  until ``--seconds`` of wall time have gone by since the warm-up began
  (at least one).  Each solve call's latency is its least time over the
  passes;
- ``--trace 1``: a pass with the probe, a traced pass, and both again.
  The per-layer numbers come from the first traced pass; the two must
  agree on every exact count.

With ``--check`` the first pass's outputs go through the workload's
output checks.  Every later pass must reproduce the first pass's
outputs exactly, and ``digest`` lets ``run.py`` compare workers.  The
result is one JSON line on stdout.

Every reported time is CPU time of this single-threaded process with
the calibration slices taken out, rescaled to the reference host speed
measured over the same window (see ``hostspeed.py``).  Raw wall and CPU
times of each pass are reported alongside.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import HostSpeed  # noqa: E402

SPEED = HostSpeed()
SPEED.start()  # before the imports, so that set-up is calibrated too

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import graphshare  # noqa: E402

if not os.path.abspath(graphshare.__file__).startswith(SRC + os.sep):
    sys.exit(f"graphshare imported from {graphshare.__file__}, not from {SRC}")

import tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
_wall = time.perf_counter


class Pass:
    """One pass over the batch: outputs, raw times and the speed factor."""

    def __init__(self, workload, recorder):
        with tracing.patched(recorder) as api:
            since = SPEED.mark()
            wall = _wall()
            started = SPEED.clock()
            self.outputs = workload.run(api)
            self.cpu = SPEED.clock() - started
            self.wall = _wall() - wall
        self.factor = SPEED.factor(since)
        self.seconds = self.cpu * self.factor


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    kind = WORKLOADS[args.workload]
    workload = kind(args.seed, args.tiny)
    warmup = kind(args.seed, True)
    with open(REFERENCE) as handle:
        expected = json.load(handle).get(workload.name, {}).get(str(args.seed))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    setup_s = (usage.ru_utime + usage.ru_stime - SPEED.spent) * SPEED.factor(0)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    began = _wall()
    warmup.run(tracing.API)

    ops = len(workload.ops)
    bad = {}
    bad_passes = 0  # passes whose outputs or counts differ from the first
    reference = counts = None

    def record(done: Pass) -> None:
        """Check the first pass, compare later ones with it, then drop the
        outputs so that peak memory does not grow with the pass count."""
        nonlocal bad, bad_passes, reference, counts
        outputs, done.outputs = done.outputs, None
        fingerprints = [workload.fingerprint(out) for out in outputs]
        if reference is None:
            reference, counts = fingerprints, workload.counts(outputs)
            if args.check:
                try:
                    bad = workload.check(outputs)
                except Exception as exc:  # a check that cannot run fails all
                    bad = {i: f"check raised {exc!r}" for i in range(ops)}
                if expected and not args.tiny and digest(reference) != expected:
                    bad = {i: "digest differs from reference.json" for i in range(ops)}
        elif fingerprints != reference or workload.counts(outputs) != counts:
            bad_passes += 1

    passes = []
    result = {"setup_s": setup_s}
    if args.trace == 0:
        per_pass = []
        while not passes or (
            _wall() - began + statistics.fmean(p.wall for p in passes) <= args.seconds
        ):
            probe = tracing.LatencyProbe(SPEED.clock, SPEED.mark)
            done = Pass(workload, probe)
            passes.append(done)
            local = SPEED.local_factors(probe.marks)
            per_pass.append(
                [s * (f or done.factor) for s, f in zip(probe.samples, local)]
            )
            record(done)
        # The i-th solve call of every pass is the same call, so its least
        # time over the passes is its cost without the timing jitter.
        bad_passes += len({len(samples) for samples in per_pass}) > 1
        result["latencies"] = [min(call) for call in zip(*per_pass)]
    else:
        untraced = []
        layers = []
        for _ in range(2):  # alternate, so that drift hits both sides alike
            probe = tracing.LatencyProbe(SPEED.clock, SPEED.mark)
            untraced.append(Pass(workload, probe))
            record(untraced[-1])
            tracer = tracing.Tracer(SPEED.clock)
            done = Pass(workload, tracer)
            passes.append(done)
            record(done)
            metrics = tracing.layer_metrics(tracer.spans)
            for name in metrics:
                if name.endswith(("_s", ".s", "us_per_state")):
                    metrics[name] *= done.factor
            layers.append((metrics, tracer.spans))
        (first, spans), (second, _) = layers
        mismatched = [k for k in tracing.EXACT_COUNTS if first[k] != second[k]]
        bad_passes += bool(mismatched)
        untraced_s = statistics.median(p.seconds for p in untraced)
        first["trace.batch_cpu_s"] = statistics.median(p.seconds for p in passes)
        first["trace.overhead_s"] = first["trace.batch_cpu_s"] - untraced_s
        result.update(layers=first, untraced_s=untraced_s, mismatched=mismatched)
        if args.spans_out:
            with open(args.spans_out, "w") as handle:
                json.dump([span[:5] for span in spans], handle)
    timed = len(passes) * (1 + args.trace)
    result.update(
        digest=digest(reference),
        passes=[p.seconds for p in passes],
        raw_cpu=[p.cpu for p in passes],
        raw_wall=[p.wall for p in passes],
        attempted=ops * timed,
        failed=min(ops * timed, len(bad) + ops * bad_passes),
        failures=sorted(set(bad.values()))[:5]
        + ["a pass differs from the first pass"] * bool(bad_passes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        SPEED.stop()
    sys.exit(status)
