"""Named verification suites: each provable claim as an executable check.

Every suite is a pure function of ``(name, seed, size_params)``: a master
generator derives one subseed per case up front, so cases could run in
any order or concurrently without changing the report.  Failures carry a
one-line escaped instance dump that re-parses to the exact offending
instance.  Suites report failures; they do not abort on them.

Five suites are corpus suites, each a draw rule plus a per-instance
check.  The draw rule turns a case's random source into the generator
call that ``resample_on_tie`` retries; the check yields one
``(expected, actual)`` pair per claim the accepted instance fails.  One
runner owns the subseeds, the case ids and the failure records; the
other suites hand their failing instances to the same record builder.

A suite's vertex-count parameter is capped at the vertex cap of the
code it runs, and a larger override is refused, in a message naming
that cap, before the first case is drawn.

Tied draws under the forbid policy are resampled, never counted as
failures: the one-half tree bound assumes distinct subset sums, so a
tied instance is outside the hypothesis, not a counterexample.  Since
the tie policy only names the mover at equal totals, every policy plays
the same game on a resampled instance; so ``general-third`` holds one
forbid answer to the floor of all three policies, and the oracle's
reference value (``oracle-equivalence``) and the line audits
(``lead-invariant``) run once per start under forbid and stand for all
three, while ``solve``, the code under test, still runs under each
policy.  ``general-third`` and ``tree-half`` ask only whether the value
reaches a floor: ``value_at_least`` decides that, and ``solve`` runs
only on a failed floor, for the exact value its failure reports.
``mutual-edge`` builds one forbid search per instance: it solves an
opening's canonical reply only when its scan of the edges first needs
it, and reads both lines of the mutual edge from the same memo.

``SuiteReport.render`` deliberately omits the wall time so that repeated
runs with equal seeds produce byte-identical reports.
"""

from __future__ import annotations

import random
import re
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .adversary import ALTERNATE_VERTEX_CAP, alternate_optimize, hill_climb, tree_shapes
from .core import GraphShareError, Instance, Player, TiePolicy, VertexCap
from .generators import (
    gen_cycle7_family,
    gen_random_connected,
    gen_random_tree,
    resample_on_tie,
)
from .instance_io import format_instance, parse_instance
from .oracle import AUDIT_EXHAUSTIVE_CAP, BRUTE_VERTEX_CAP, audit_lines, brute_value
# response_map and principal_line stay imported: perfbench's tracer rebinds them.
from .solve import (
    SOLVE_VERTEX_CAP,
    _replies,
    _Search,
    format_fraction,
    optimal_responses,
    principal_line,
    response_map,
    solve,
    value_at_least,
)

_ALL_POLICIES = tuple(TiePolicy)


class UnknownSuiteError(GraphShareError):
    """The requested suite name is not one of the defined suites."""

    def __init__(self, name: str):
        known = ", ".join(SUITE_NAMES)
        super().__init__(f"unknown suite {name!r}; known suites: {known}")
        self.name = name


@dataclass(frozen=True)
class CaseFailure:
    """One failed check: the instance, what was expected, what happened."""

    case_id: str
    instance_dump: str
    expected: str
    actual: str


@dataclass(frozen=True)
class SuiteReport:
    """Outcome of one suite run.

    ``records`` holds suite-specific values worth keeping (exact family
    values, best search results) as ``(key, value)`` pairs in a fixed
    order.  ``passed`` is equivalent to ``failures`` being empty.
    """

    suite: str
    seed: int
    cases: int
    failures: tuple[CaseFailure, ...]
    records: tuple[tuple[str, str], ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"suite={self.suite} status={status} "
            f"cases={self.cases} failures={len(self.failures)}"
        )

    def render(self) -> str:
        lines = [f"suite={self.suite}", f"seed={self.seed}", f"cases={self.cases}"]
        for key, value in self.records:
            lines.append(f"{key}={value}")
        for index, failure in enumerate(self.failures):
            prefix = f"failure.{index}"
            lines.append(f"{prefix}.case={failure.case_id}")
            lines.append(f"{prefix}.instance={escape_dump(failure.instance_dump)}")
            lines.append(f"{prefix}.expected={failure.expected}")
            lines.append(f"{prefix}.actual={failure.actual}")
        lines.append(self.summary())
        return "\n".join(lines) + "\n"


def escape_dump(text: str) -> str:
    """Escape an instance dump onto one line (inverse of unescape_dump)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def unescape_dump(text: str) -> str:
    """Undo escape_dump left to right: only ``\\\\`` and ``\\n`` are
    escapes; any other backslash, a trailing one too, is kept."""
    return re.sub(r"\\([\\n])", lambda m: "\n" if m[1] == "n" else "\\", text)


def _subseeds(seed: int, count: int) -> list[int]:
    master = random.Random(seed)
    return [master.randrange(2**32) for _ in range(count)]


# A suite returns its case count, its failing cases as
# ``(case_id, instance, expected, actual)`` and its records.
_SuiteResult = tuple[int, list[tuple[str, Instance, str, str]], list[tuple[str, str]]]

# ---------------------------------------------------------------------------
# corpus suites: a draw rule plus a per-instance check

# A draw rule reads a case's random source, subseed and params, and
# returns the generator call for attempt ``k`` that resample_on_tie takes.
_Call = Callable[[int], Instance]
_Draw = Callable[[random.Random, int, dict], _Call]
# A check yields ``(expected, actual)`` for each claim the instance fails.
_Claims = Iterator[tuple[str, str]]


def _draw_tree(rng: random.Random, sub: int, params: dict) -> _Call:
    n = rng.randint(2, params["max_vertices"])
    return lambda k: gen_random_tree(n, sub + k, params["weight_max"])


def _draw_connected(
    rng: random.Random, sub: int, params: dict, n: int | None = None
) -> _Call:
    """n in [2, max_vertices] unless given, plus up to three extra edges
    (one above 10 vertices)."""
    if n is None:
        n = rng.randint(2, params["max_vertices"])
    cap = n * (n - 1) // 2 - (n - 1)
    extra = rng.randint(0, min(3 if n <= 10 else 1, cap))
    return lambda k: gen_random_connected(n, extra, sub + k, params["weight_max"])


def _draw_general(rng: random.Random, sub: int, params: dict) -> _Call:
    # Mostly small instances; a tail of large ones keeps the bound honest
    # where the search space is deep without dominating the runtime.
    top = params["max_vertices"]
    if rng.random() < 0.9:
        n = rng.randint(2, min(10, top))
    else:
        n = rng.randint(min(11, top), top)
    return _draw_connected(rng, sub, params, n)


def _corpus(
    draw: _Draw, check: Callable[[Instance], _Claims]
) -> Callable[[int, dict], _SuiteResult]:
    """The suite that checks ``cases`` tie-free draws, one subseed each."""

    def suite(seed: int, params: dict) -> _SuiteResult:
        found = []
        for index, sub in enumerate(_subseeds(seed, params["cases"])):
            call = draw(random.Random(sub), sub, params)
            instance, _rejected = resample_on_tie(call)
            case_id = f"{index:04d}-n{instance.vertex_count}"
            found += [(case_id, instance, *claim) for claim in check(instance)]
        return params["cases"], found, []

    return suite


def _check_general_third(instance: Instance) -> _Claims:
    total = instance.total_weight
    w_max = max(instance.weights)
    third = Fraction(1, 3)
    floor = max(third, Fraction(w_max, total), Fraction(total - w_max, 2 * total))
    # The policy picks the mover only on equal totals, and a resampled
    # instance reaches none, so all three policies play the forbid game
    # tree: one decision stands for each of them.  Only a failed floor
    # is solved, for the value its failure reports.
    if value_at_least(instance, TiePolicy.FORBID, floor):
        return
    value = solve(instance, TiePolicy.FORBID).value
    if value < floor:
        for policy in _ALL_POLICIES:
            yield (
                f"value >= {format_fraction(floor)} under {policy.value}",
                f"value={format_fraction(value)}",
            )


def _check_tree_half(instance: Instance) -> _Claims:
    if value_at_least(instance, TiePolicy.FORBID, Fraction(1, 2)):
        return
    value = solve(instance, TiePolicy.FORBID).value
    if value < Fraction(1, 2):
        yield "tree value >= 1/2 under forbid", f"value={format_fraction(value)}"


def _check_mutual_edge(instance: Instance) -> _Claims:
    # One forbid search per instance: an opening's canonical reply is
    # solved when the edge scan first asks for it, and both lines read
    # the same memo.
    search = _Search(instance, TiePolicy.FORBID)
    replies: dict[int, int] = {}

    def reply(v: int) -> int:
        if v not in replies:
            replies[v] = _replies(search, v)[0]
        return replies[v]

    pairs = ((a, b) for a, b in instance.edges if reply(a) == b and reply(b) == a)
    mutual = next(pairs, None)
    if mutual is None:
        every = {v: reply(v) for v in range(instance.vertex_count)}
        yield (
            "a mutual reply edge (replies[a]=b and replies[b]=a)",
            f"replies={every}",
        )
        return
    a, b = mutual
    total = instance.total_weight
    first_at_a = _first_weight(instance, _line(search, a))
    first_at_b = _first_weight(instance, _line(search, b))
    if first_at_a != total - first_at_b:
        yield (
            f"w(F|open {a}) = w(S|open {b}) on mutual edge {a}-{b}",
            f"w(F|open {a})={first_at_a}, w(S|open {b})={total - first_at_b}",
        )


def _line(search: _Search, start: int):
    """``principal_line`` after opening ``start``, read from ``search``."""
    return ((Player.FIRST, start),) + search.line_from(*search.state(1 << start, 0))


def _first_weight(instance: Instance, line) -> int:
    return sum(instance.weights[v] for player, v in line if player is Player.FIRST)


def _check_lead_invariant(instance: Instance) -> _Claims:
    # A resampled instance reaches no tie, so each policy has the forbid
    # audit's lines: each start is audited once, and only its failing
    # claims are kept to replay under every policy.
    w_max = max(instance.weights)
    failing = []
    for start in range(instance.vertex_count):
        claims = []
        for audit in audit_lines(instance, TiePolicy.FORBID, start):
            if audit.max_lead_violation is not None:
                step, leader, lead, weight = audit.max_lead_violation
                claims.append(
                    (
                        "strict leader's lead < leader's last vertex weight",
                        f"step={step} leader={leader.value} lead={lead} "
                        f"last_weight={weight}",
                    )
                )
            if audit.skipped or audit.tie_steps:
                continue
            first = _first_weight(instance, audit.line)
            final_lead = abs(2 * first - instance.total_weight)
            if final_lead >= w_max:
                claims.append(
                    (
                        "final lead < max weight on tie-free lines",
                        f"final_lead={final_lead} w_max={w_max}",
                    )
                )
        failing.append(claims)
    for policy in _ALL_POLICIES:
        for start, claims in enumerate(failing):
            for expected, detail in claims:
                yield expected, f"policy={policy.value} start={start} {detail}"


def _check_oracle_equivalence(instance: Instance) -> _Claims:
    # The oracle's forbid value at each start stands for every policy on
    # a resampled instance; solve, the code under test, runs under each.
    references = [
        brute_value(instance, TiePolicy.FORBID, start)
        for start in range(instance.vertex_count)
    ]
    for policy in _ALL_POLICIES:
        for entry in solve(instance, policy).per_start:
            reference = references[entry.start]
            if reference != entry.value:
                yield (
                    f"solver == oracle at start {entry.start} under {policy.value}",
                    f"solver={format_fraction(entry.value)} "
                    f"oracle={format_fraction(reference)}",
                )


# ---------------------------------------------------------------------------
# fixed families and the tree search


def _suite_cycle7_family(seed: int, params: dict) -> _SuiteResult:
    found = []
    records = []
    d_vertex, e_vertex = 3, 4
    for index, m in enumerate(params["m_values"]):
        instance = gen_cycle7_family(m)
        value = solve(instance, TiePolicy.FORBID).value
        bound = Fraction(m + 69, 3 * m + 95)
        records.append((f"cycle7.M{m}.value", format_fraction(value)))
        records.append((f"cycle7.M{m}.bound", format_fraction(bound)))
        case_id = f"{index:04d}-M{m}"
        if value > bound:
            expected = f"value <= {format_fraction(bound)}"
            actual = f"value={format_fraction(value)}"
            found.append((case_id, instance, expected, actual))
        replies = optimal_responses(instance, TiePolicy.FORBID, d_vertex)
        if e_vertex not in replies:
            expected = f"vertex {e_vertex} among optimal replies to opening {d_vertex}"
            found.append((case_id, instance, expected, f"replies={sorted(replies)}"))
    return len(params["m_values"]), found, records


def _suite_edge_family(seed: int, params: dict) -> _SuiteResult:
    found = []
    k_max = params["k_max"]
    for k in range(1, k_max + 1):
        instance = Instance(weights=(k, k + 1), edges=((0, 1),))
        value = solve(instance, TiePolicy.FORBID).value
        expected = Fraction(k + 1, 2 * k + 1)
        if value != expected:
            claim = f"value == {format_fraction(expected)}"
            actual = f"value={format_fraction(value)}"
            found.append((f"{k:04d}-edge", instance, claim, actual))
    return k_max, found, []


def _suite_tie_tree_search(seed: int, params: dict) -> _SuiteResult:
    """Adversary search over all tree shapes of a fixed size.

    A seeded hill climb scores every shape, then the alternating
    LP search refines the most promising ones.  The best certified
    value must beat the threshold; the stretch goal is recorded
    either way.
    """
    threshold = params["threshold"]
    stretch = params["stretch"]
    policy = TiePolicy.FIRST_MOVES
    shapes = list(tree_shapes(params["vertices"]))
    subs = _subseeds(seed, len(shapes))
    scored = []
    for shape, sub in zip(shapes, subs):
        result = hill_climb(shape, policy, seed=sub, iters=params["hill_iters"])
        scored.append((result.value, shape, result.instance))
    scored.sort(key=lambda item: (item[0], item[1].edges))
    best_value, _shape, best_instance = scored[0]
    for _value, shape, _instance in scored[: params["refine_top"]]:
        refined = alternate_optimize(
            shape, policy, max_iters=params["alternate_iters"]
        )
        if refined.value < best_value:
            best_value, best_instance = refined.value, refined.instance
    records = [
        ("search.shapes", str(len(shapes))),
        ("search.best_value", format_fraction(best_value)),
        ("search.best_instance", escape_dump(format_instance(best_instance))),
        ("search.threshold", format_fraction(threshold)),
        ("search.stretch", format_fraction(stretch)),
        ("search.stretch_met", "yes" if best_value <= stretch else "no"),
    ]
    found = []
    if best_value > threshold:
        expected = f"best certified value <= {format_fraction(threshold)}"
        actual = f"best={format_fraction(best_value)}"
        found.append(("0000-search", best_instance, expected, actual))
    return len(shapes), found, records


# A suite's size cap: the parameter and the vertex cap of the code it runs.
_Cap = tuple[str, VertexCap]
_SOLVER_CAP = ("max_vertices", SOLVE_VERTEX_CAP)

# Suite name -> (suite function, size cap, default sizes and thresholds),
# in the order reports list them.
_SUITES: dict[str, tuple[Callable[[int, dict], _SuiteResult], _Cap | None, dict]] = {
    "general-third": (
        _corpus(_draw_general, _check_general_third),
        _SOLVER_CAP,
        {"cases": 1000, "max_vertices": 14, "weight_max": 10**9},
    ),
    "tree-half": (
        _corpus(_draw_tree, _check_tree_half),
        _SOLVER_CAP,
        {"cases": 500, "max_vertices": 12, "weight_max": 10**9},
    ),
    "mutual-edge": (
        _corpus(_draw_tree, _check_mutual_edge),
        _SOLVER_CAP,
        {"cases": 500, "max_vertices": 12, "weight_max": 10**9},
    ),
    "lead-invariant": (
        _corpus(_draw_connected, _check_lead_invariant),
        ("max_vertices", AUDIT_EXHAUSTIVE_CAP),
        {"cases": 210, "max_vertices": 6, "weight_max": 10**9},
    ),
    "oracle-equivalence": (
        _corpus(_draw_connected, _check_oracle_equivalence),
        ("max_vertices", BRUTE_VERTEX_CAP),
        {"cases": 210, "max_vertices": 6, "weight_max": 10**9},
    ),
    "cycle7-family": (_suite_cycle7_family, None, {"m_values": (1000, 100000)}),
    "edge-family": (_suite_edge_family, None, {"k_max": 50}),
    "tie-tree-search": (
        _suite_tie_tree_search,
        ("vertices", ALTERNATE_VERTEX_CAP),
        {
            "vertices": 9,
            "hill_iters": 25,
            "alternate_iters": 12,
            "refine_top": 2,
            "threshold": Fraction(36, 100),
            "stretch": Fraction(35, 100),
        },
    ),
}

SUITE_NAMES = tuple(_SUITES)


def _check_param(suite: str, key: str, value, default, cap: _Cap | None) -> None:
    """Reject an override whose type differs from its default's (an int
    may stand for a Fraction), any size below 1, a ``max_vertices``
    below 2 and a vertex count above the suite's cap."""
    prefix = f"parameter {key!r} of suite {suite!r} must be"
    if type(default) is Fraction:
        if type(value) not in (int, Fraction):
            raise GraphShareError(f"{prefix} an int or a fraction, got {value!r}")
        return
    sizes = value if type(value) is tuple else (value,)
    if type(value) is not type(default) or any(type(n) is not int for n in sizes):
        kind = "a tuple of ints" if type(default) is tuple else "an int"
        raise GraphShareError(f"{prefix} {kind}, got {value!r}")
    floor = 2 if key == "max_vertices" else 1
    if not sizes or min(sizes) < floor:
        raise GraphShareError(f"{prefix} at least {floor}, got {value!r}")
    if cap and key == cap[0] and value > cap[1]:
        raise GraphShareError(
            f"{prefix} at most {cap[1]}, the {cap[1].what}'s vertex cap; "
            f"got {value!r}"
        )


def run_suite(name: str, seed: int = 0, size_params: dict | None = None) -> SuiteReport:
    """Run one named suite deterministically and return its report.

    ``size_params`` overrides the suite's default sizes/thresholds; a
    key the suite does not define, or a value of another type than the
    default's or out of range, raises GraphShareError.  The report
    depends only on ``(name, seed, size_params)``.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(name)
    suite, cap, defaults = _SUITES[name]
    params = dict(defaults)
    unknown = sorted(set(size_params or ()) - set(params))
    if unknown:
        raise GraphShareError(
            f"unknown parameter {unknown[0]!r} for suite {name!r}; "
            f"known parameters: {', '.join(params)}"
        )
    if size_params:
        for key, value in size_params.items():
            _check_param(name, key, value, params[key], cap)
        params.update(size_params)
    if params.get("weight_max", 0) < params.get("max_vertices", 0):
        raise GraphShareError(
            f"parameter 'weight_max' of suite {name!r} must be at least "
            f"max_vertices={params['max_vertices']}"
        )
    started = time.perf_counter()
    cases, found, records = suite(seed, params)
    elapsed = time.perf_counter() - started
    found.sort(key=lambda case: case[0])
    return SuiteReport(
        suite=name,
        seed=seed,
        cases=cases,
        failures=tuple(
            CaseFailure(case_id, format_instance(instance), expected, actual)
            for case_id, instance, expected, actual in found
        ),
        records=tuple(records),
        wall_time=elapsed,
    )


def reproduce_failure(failure: CaseFailure) -> Instance:
    """Re-parse a failure's instance dump (the reproduction handle)."""
    return parse_instance(unescape_dump(failure.instance_dump))
