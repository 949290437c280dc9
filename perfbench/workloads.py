"""The benchmark's three workloads: inputs, one timed pass, output checks.

Every input comes from the benchmark seed; the package only sees the
generated instances, shapes, suite seeds and size parameters.  A pass
makes the same calls every time, so repeated passes of one run must
produce identical outputs.

Batch sizes are set so that a pass takes a few seconds and its time
varies little from seed to seed: the solve cost of one random instance
spreads by about 50% around its mean and grows about threefold per
vertex, so a pass is many small instances with a thin tail of larger
ones rather than a few large ones.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import graphshare
from graphshare import GraphShape, TiePolicy

WEIGHT_MAX = 20
EXTRA_EDGES = 2
NARROW_POLICIES = (TiePolicy.FIRST_MOVES, TiePolicy.SECOND_MOVES)
BRUTE_MAX_VERTICES = 10
BRUTE_SAMPLE = 16

# (vertex count, trees, connected graphs) per solve-narrow pass.
NARROW_PLAN = ((9, 200, 200), (10, 120, 120), (11, 6, 2), (12, 1, 1))
NARROW_PLAN_TINY = ((9, 2, 2), (10, 1, 1))

# The acceptance gate's seed for each suite; benchmark seed s runs each
# suite at gate seed + 1000 * s, so seed 0 replays the gate's corpora.
GATE_SEEDS = (
    ("oracle-equivalence", 3),
    ("general-third", 11),
    ("tree-half", 7),
    ("mutual-edge", 7),
    ("cycle7-family", 1),
    ("edge-family", 0),
    ("lead-invariant", 3),
)
SUITE_SEED_STRIDE = 1000
SUITE_SIZES = {
    "oracle-equivalence": {"cases": 150},
    "general-third": {"cases": 1200, "max_vertices": 9},
    "tree-half": {"cases": 600, "max_vertices": 10},
    "mutual-edge": {"cases": 600, "max_vertices": 10},
    "lead-invariant": {"cases": 150},
}
SUITE_SIZES_TINY = {
    "oracle-equivalence": {"cases": 4},
    "general-third": {"cases": 8, "max_vertices": 8},
    "tree-half": {"cases": 6, "max_vertices": 8},
    "mutual-edge": {"cases": 6, "max_vertices": 8},
    "cycle7-family": {"m_values": (1000,)},
    "edge-family": {"k_max": 5},
    "lead-invariant": {"cases": 4},
}

# Center 0 with pendant leaves 1 and 2, and legs 0-3-6, 0-4-7, 0-5-8.
GATED_SPIDER = GraphShape(
    9, ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (3, 6), (4, 7), (5, 8))
)
SPIDER_ITERS = 4
HILL_ITERS = 2000
SPIDER_BOUND = Fraction(36, 100)
CYCLE7_ALT_BOUND = Fraction(35, 100)
CYCLE7_HILL_BOUND = Fraction(36, 100)


def _frac(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def digest(fingerprints: list[str]) -> str:
    return hashlib.sha256("\n".join(fingerprints).encode()).hexdigest()


class SolveNarrow:
    """``solve`` under first and second on random trees and connected
    graphs with n from 9 to 12 and weights up to 20."""

    name = "solve-narrow"

    def __init__(self, seed: int, tiny: bool):
        rng = random.Random(seed)
        instances = []
        for n, trees, graphs in NARROW_PLAN_TINY if tiny else NARROW_PLAN:
            for _ in range(trees):
                instances.append(
                    graphshare.gen_random_tree(n, rng.randrange(2**32), WEIGHT_MAX)
                )
            for _ in range(graphs):
                instances.append(
                    graphshare.gen_random_connected(
                        n, EXTRA_EDGES, rng.randrange(2**32), WEIGHT_MAX
                    )
                )
        self.ops = [(inst, pol) for inst in instances for pol in NARROW_POLICIES]
        small = [
            i
            for i, (inst, _) in enumerate(self.ops)
            if inst.vertex_count <= BRUTE_MAX_VERTICES
        ]
        picked = sorted(rng.sample(small, min(BRUTE_SAMPLE, len(small))))
        self.brute = [(i, rng.randrange(self.ops[i][0].vertex_count)) for i in picked]

    def run(self, api) -> list:
        solve = api["solve"]
        out = []
        for instance, policy in self.ops:
            try:
                out.append(solve(instance, policy))
            except Exception as exc:  # a failed operation, counted by check
                out.append(exc)
        return out

    def fingerprint(self, report) -> str:
        """Per-start values and canonical lines; the state count is left
        out because a smaller memo key is meant to change it."""
        if isinstance(report, Exception):
            return repr(report)
        return ";".join(
            f"{entry.start}:{_frac(entry.value)}:"
            + ",".join(f"{who.value}{v}" for who, v in entry.line)
            for entry in report.per_start
        )

    def counts(self, outputs: list) -> dict:
        return {"solve.states": sum(getattr(r, "state_count", 0) for r in outputs)}

    def check(self, outputs: list) -> dict[int, str]:
        bad = {}
        for i, ((instance, policy), report) in enumerate(zip(self.ops, outputs)):
            if isinstance(report, Exception):
                bad[i] = f"raised {report!r}"
                continue
            total = instance.total_weight
            w_max = max(instance.weights)
            floor = max(
                Fraction(1, 3),
                Fraction(w_max, total),
                Fraction(total - w_max, 2 * total),
            )
            if report.value < floor:
                bad[i] = f"value {_frac(report.value)} below floor {_frac(floor)}"
        for i, start in self.brute:
            if i in bad:
                continue
            instance, policy = self.ops[i]
            reference = graphshare.brute_value(instance, policy, start)
            if outputs[i].per_start[start].value != reference:
                bad[i] = f"start {start}: solve != brute_value {_frac(reference)}"
        return bad


class VerifySuites:
    """The acceptance gate's seven non-search suites at reduced size."""

    name = "verify-suites"

    def __init__(self, seed: int, tiny: bool):
        sizes = SUITE_SIZES_TINY if tiny else SUITE_SIZES
        self.ops = [
            (suite, gate + SUITE_SEED_STRIDE * seed, sizes.get(suite))
            for suite, gate in GATE_SEEDS
        ]

    def run(self, api) -> list:
        run_suite = api["run_suite"]
        out = []
        for suite, seed, sizes in self.ops:
            try:
                out.append(run_suite(suite, seed, sizes))
            except Exception as exc:
                out.append(exc)
        return out

    def fingerprint(self, report) -> str:
        if isinstance(report, Exception):
            return repr(report)
        return report.render()

    def counts(self, outputs: list) -> dict:
        return {}

    def check(self, outputs: list) -> dict[int, str]:
        bad = {}
        for i, report in enumerate(outputs):
            if isinstance(report, Exception):
                bad[i] = f"raised {report!r}"
            elif not report.passed:
                bad[i] = report.summary()
        return bad


class AdversarySearch:
    """Both weight searches on the shapes the acceptance gate uses."""

    name = "adversary-search"

    def __init__(self, seed: int, tiny: bool):
        hill_seed = random.Random(seed).randrange(2**32)
        cycle7 = GraphShape.cycle(7)
        self.ops = [
            ("alternate_optimize", GATED_SPIDER, TiePolicy.FIRST_MOVES,
             {"max_iters": 1 if tiny else SPIDER_ITERS}, SPIDER_BOUND),
            ("alternate_optimize", cycle7, TiePolicy.FORBID,
             {"max_iters": 1} if tiny else {}, CYCLE7_ALT_BOUND),
            ("hill_climb", cycle7, TiePolicy.FORBID,
             {"seed": hill_seed, "iters": 50 if tiny else HILL_ITERS},
             CYCLE7_HILL_BOUND),
        ]

    def run(self, api) -> list:
        out = []
        for call, shape, policy, kwargs, _bound in self.ops:
            try:
                out.append(api[call](shape, policy, **kwargs))
            except Exception as exc:
                out.append(exc)
        return out

    def fingerprint(self, result) -> str:
        """Value and weights.  No reference digest is kept for this
        workload: another LP pivot rule may pick another degenerate vertex
        and so another, equally good, instance and trace."""
        if isinstance(result, Exception):
            return repr(result)
        return f"{_frac(result.value)} {result.instance.weights}"

    def counts(self, outputs: list) -> dict:
        return {}

    def check(self, outputs: list) -> dict[int, str]:
        bad = {}
        for i, ((_call, _shape, policy, _kw, bound), result) in enumerate(
            zip(self.ops, outputs)
        ):
            if isinstance(result, Exception):
                bad[i] = f"raised {result!r}"
                continue
            exact = graphshare.solve(result.instance, policy).value
            if exact != result.value:
                bad[i] = f"value {_frac(result.value)} re-certifies as {_frac(exact)}"
            elif result.value > bound:
                bad[i] = f"value {_frac(result.value)} above {_frac(bound)}"
        return bad


WORKLOADS = {w.name: w for w in (SolveNarrow, VerifySuites, AdversarySearch)}
