"""The benchmark's traced run rebinds module-level names of the package
(``perfbench/tracing.py``); a refactor that drops one of them breaks
``perfbench/run.py --trace 1`` with an AttributeError."""

from __future__ import annotations

import json
import time
from pathlib import Path

from graphshare.adversary import GraphShape, alternate_optimize, extract_forest
from graphshare.core import TiePolicy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_rebound_names_resolve_to_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert tracing.REBOUND
    for module, attr in tracing.REBOUND:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_tracer_counts_forest_nodes(monkeypatch):
    # the tracer keeps each extracted forest by its class name and counts
    # its nodes through nodes()
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer(time.perf_counter)
    with tracing.patched(tracer):
        alternate_optimize(GraphShape.cycle(7), TiePolicy.FORBID, max_iters=3)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["adversary.extract.calls"] == 4
    assert metrics["adversary.forest_nodes"] == 314
    instances = [span[5] for span in tracer.spans if span[0] == "extract_forest"]
    assert sum(
        len(extract_forest(instance, TiePolicy.FORBID).nodes())
        for instance in instances
    ) == 314


def test_tiny_traced_pass_of_every_workload(monkeypatch):
    # every workload's tiny batch passes its own checks under the tracer,
    # and the trace yields each per-layer metric the benchmark declares
    # (the worker adds the two trace.* names itself)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    from workloads import WORKLOADS

    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    layers = {metric["name"] for metric in declared["per_layer"]}
    layers -= {"trace.batch_cpu_s", "trace.overhead_s"}
    for name, workload_class in WORKLOADS.items():
        workload = workload_class(1, True)
        tracer = tracing.Tracer(time.perf_counter)
        with tracing.patched(tracer) as api:
            outputs = workload.run(api)
        assert workload.check(outputs) == {}, name
        assert layers - set(tracing.layer_metrics(tracer.spans)) == set(), name
