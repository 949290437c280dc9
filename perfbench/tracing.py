"""Spans and timers installed by rebinding package names in this process.

Nothing under ``src/`` is edited: each layer reaches its collaborators
through module-level names (``verify.solve``, ``adversary.solve_lp``,
...), so replacing those names with timing wrappers observes every call
a layer makes.  ``patched`` restores the originals on exit.

A span is ``[name, site, start, end, parent, subject, info]``: ``subject``
is the call's first argument (an instance, a shape, a forest) and
``info`` the class of the exception it raised or what the result-reader
kept (a report, a forest, a row count).  Spans stay in a list in memory and are
only inspected after timing ends, so counting forest nodes or distinct
instances never lands inside a span.
"""

from __future__ import annotations

import contextlib
import statistics

import graphshare
import graphshare.adversary as adversary
import graphshare.generators as generators
import graphshare.verify as verify
from workloads import GATE_SEEDS

# Every name a layer imports from another layer; a span is named after
# the name it wraps.
REBOUND = (
    (verify, "solve"),
    (generators, "solve"),
    (adversary, "solve"),
    (adversary, "solve_lp"),
    (adversary, "extract_forest"),
    (adversary, "lp_minimize"),
    (verify, "resample_on_tie"),
    (verify, "brute_value"),
    (verify, "audit_lines"),
    (verify, "response_map"),
    (verify, "principal_line"),
    (verify, "optimal_responses"),
)

# Public entry points the benchmark itself calls; the workloads look them
# up here so both the tracer and the latency probe can wrap them.
API = {
    "solve": graphshare.solve,
    "run_suite": graphshare.run_suite,
    "alternate_optimize": graphshare.alternate_optimize,
    "hill_climb": graphshare.hill_climb,
}

SUITES = tuple(name for name, _seed in GATE_SEEDS)

SEARCH_NAMES = ("solve", "principal_line", "response_map", "optimal_responses")


def _state_count(args, result):
    return result.state_count


def _lp_rows(args, result):
    return len(args[1]) + len(args[3])


def _resample_rejected(args, result):
    return result[1]


def _keep_result(args, result):
    return result


INFO = {
    "solve": _state_count,
    "solve_lp": _lp_rows,
    "resample_on_tie": _resample_rejected,
    "extract_forest": _keep_result,
    "alternate_optimize": _keep_result,
    "run_suite": _keep_result,
}


class Tracer:
    """Records one span per wrapped call, with its parent span."""

    def __init__(self, clock):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, site: str, fn):
        spans = self.spans
        stack = self._stack
        reader = INFO.get(name)
        _clock = self._clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, site, 0.0, 0.0, parent, args[0] if args else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[3] = _clock()
                span[6] = type(exc)  # not the exception: it holds the frames
                raise
            finally:
                stack.pop()
            span[3] = _clock()
            if reader is not None:
                span[6] = reader(args, result)
            return result

        return traced

    def targets(self):
        for module, attr in REBOUND:
            yield module, attr, self.wrap(attr, module.__name__, getattr(module, attr))

    def api(self) -> dict:
        return {name: self.wrap(name, "bench", fn) for name, fn in API.items()}


class LatencyProbe:
    """Times every ``solve`` call that returns, and nothing else: two clock
    reads, the calibration slice count and two appends per call, for the
    end-to-end latency percentiles.
    A call that raises on a tie stops early and is not a solve latency;
    half of the hill climb's calls do, in a share that depends on its
    seed."""

    def __init__(self, clock, mark):
        self.samples: list[float] = []
        self.marks: list[int] = []
        self._clock = clock
        self._mark = mark

    def wrap(self, fn):
        append = self.samples.append
        append_mark = self.marks.append
        _clock = self._clock
        _mark = self._mark

        def timed(*args, **kwargs):
            mark = _mark()
            started = _clock()
            result = fn(*args, **kwargs)
            append(_clock() - started)
            append_mark(mark)
            return result

        return timed

    def targets(self):
        for module, attr in REBOUND:
            if attr == "solve":
                yield module, attr, self.wrap(getattr(module, attr))

    def api(self) -> dict:
        api = dict(API)
        api["solve"] = self.wrap(API["solve"])
        return api


@contextlib.contextmanager
def patched(recorder):
    """Rebind the layers' imported names to ``recorder``'s wrappers and
    yield the wrapped public API; restore everything on exit."""
    saved = []
    try:
        for module, attr, wrapper in list(recorder.targets()):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        yield recorder.api()
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from one traced pass."""
    child_time = [0.0] * len(spans)
    for _name, _site, start, end, parent, _subject, _info in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def dur(i):
        return spans[i][3] - spans[i][2]

    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def kept(name, kind):
        return [spans[i][6] for i in idx(name) if isinstance(spans[i][6], kind)]

    def total(name):
        return sum(dur(i) for i in idx(name))

    def self_total(name):
        return sum(dur(i) - child_time[i] for i in idx(name))

    solves = idx("solve")
    done = [i for i in solves if isinstance(spans[i][6], int)]
    states = sum(spans[i][6] for i in done)
    ties = sum(spans[i][6] is graphshare.TieEncounteredError for i in solves)
    searches = [i for name in SEARCH_NAMES for i in idx(name)]
    instances = {spans[i][5] for i in searches}
    resamples = idx("resample_on_tie")
    rejected = sum(kept("resample_on_tie", int))
    resample_set = set(resamples)
    certify = [i for i in solves if spans[i][1] == adversary.__name__]
    rows = kept("solve_lp", int)
    lp_calls = len(idx("solve_lp"))
    minimizes = len(idx("lp_minimize"))
    forests = kept("extract_forest", adversary.AnnotatedScenarioForest)
    # the span, not SuiteReport.wall_time: that one is wall-clock time
    suite_time = dict.fromkeys(SUITES, 0.0)
    for i in idx("run_suite"):
        if isinstance(spans[i][6], verify.SuiteReport):
            suite_time[spans[i][6].suite] += dur(i)

    metrics = {
        "solve.calls": len(solves),
        "solve.s": total("solve"),
        "solve.states": states,
        "solve.us_per_state": (
            sum(dur(i) for i in done) / states * 1e6 if states else 0.0
        ),
        "solve.ties_raised": ties,
        "solve.searches_per_instance": (
            len(searches) / len(instances) if instances else 0.0
        ),
        "generators.resample.calls": len(resamples),
        "generators.resample.self_s": self_total("resample_on_tie"),
        "generators.resample.solve_s": sum(
            dur(i) for i in solves if spans[i][4] in resample_set
        ),
        "generators.accept_ratio": (
            len(resamples) / (len(resamples) + rejected) if resamples else 0.0
        ),
        "oracle.brute.calls": len(idx("brute_value")),
        "oracle.brute.s": total("brute_value"),
        "oracle.audit.calls": len(idx("audit_lines")),
        "oracle.audit.s": total("audit_lines"),
        "adversary.extract.calls": len(idx("extract_forest")),
        "adversary.extract.s": total("extract_forest"),
        "adversary.forest_nodes": sum(
            sum(1 for _ in forest.nodes()) for forest in forests
        ),
        "adversary.lp_minimize.calls": minimizes,
        "adversary.lp_minimize.self_s": self_total("lp_minimize"),
        "adversary.certify.calls": len(certify),
        "adversary.certify.s": sum(dur(i) for i in certify),
        "adversary.iterations": sum(
            len(result.trace)
            for result in kept("alternate_optimize", adversary.AdversaryResult)
        ),
        "simplex.solve_lp.calls": lp_calls,
        "simplex.solve_lp.s": total("solve_lp"),
        "simplex.rows_mean": statistics.fmean(rows) if rows else 0.0,
        "simplex.rows_max": max(rows, default=0),
        "simplex.calls_per_minimize": lp_calls / minimizes if minimizes else 0.0,
    }
    for name in SUITES:
        metrics[f"verify.{name}.s"] = suite_time[name]
    return metrics


# Counts that must repeat exactly between runs of the same code.
EXACT_COUNTS = (
    "solve.states",
    "solve.calls",
    "simplex.solve_lp.calls",
    "simplex.rows_max",
    "adversary.forest_nodes",
    "generators.accept_ratio",
)
