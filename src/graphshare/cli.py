"""Command-line surface: solve, play, verify, gen, adversary.

Every command is deterministic given its flags, seeds, and input files;
randomized commands require an explicit ``--seed``.  Exit codes: 0 for
success or a passing suite, 1 for a failing suite, 2 for usage or parse
errors, 3 when the forbid policy aborts on a tie.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import IO, Iterable

from .adversary import (
    ALTERNATE_VERTEX_CAP,
    HILL_VERTEX_CAP,
    GraphShape,
    alternate_optimize,
    hill_climb,
    tree_shapes,
)
from .core import (
    GameState,
    GraphShareError,
    Instance,
    Outcome,
    Player,
    TiePolicy,
    TieEncounteredError,
    VertexCap,
    legal_moves,
    mask_to_set,
    mover,
    play_out,
)
from .generators import gen_cycle7_family, gen_random_connected, gen_random_tree
from .instance_io import format_instance, parse_instance
from .solve import (
    SOLVE_WARN_VERTICES,
    canonical_strategy,
    format_fraction,
    format_line,
    solve,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_USAGE = 2
EXIT_TIE = 3

_POLICY_CHOICES = sorted(policy.value for policy in TiePolicy)


class _UsageError(Exception):
    pass


def _read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_instance(handle.read())


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args: argparse.Namespace, out: IO[str]) -> int:
    instance = _read_instance(args.file)
    if args.start is not None and not 0 <= args.start < instance.vertex_count:
        raise _UsageError(f"start vertex {args.start} does not exist")
    if instance.vertex_count > SOLVE_WARN_VERTICES:
        print(
            f"warning: {instance.vertex_count} vertices; exact solving "
            "may take a while",
            file=sys.stderr,
        )
    policy = TiePolicy.from_token(args.policy)
    report = solve(instance, policy)
    if args.start is None:
        out.write(report.render())
        return EXIT_OK
    entry = report.per_start[args.start]
    out.write(f"start.{entry.start}.value={format_fraction(entry.value)}\n")
    out.write(f"start.{entry.start}.line={format_line(entry.line)}\n")
    out.write(f"policy={policy.value}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# play


class _InputEnded(Exception):
    pass


def _vertex_list(vertices: Iterable[int]) -> str:
    """Vertex ids in increasing order, comma-separated; ``-`` for none."""
    return ",".join(map(str, sorted(vertices))) or "-"


def run_play(
    instance: Instance,
    policy: TiePolicy,
    human_side: Player,
    input_stream: IO[str],
    output_stream: IO[str],
) -> Outcome | None:
    """Interactive game on text streams; the engine plays the other side.

    The human is prompted whenever the rules make them the mover;
    illegal entries re-prompt.  Returns the final Outcome, or None when
    the input ends mid-game.  The game loop itself is ``play_out``: this
    function only supplies strategies and narration.
    """
    total = instance.total_weight
    engine = canonical_strategy(instance, policy)
    optimal = solve(instance, policy).value

    def show_state(state: GameState) -> None:
        f, s = state.totals(instance)
        first_set = _vertex_list(mask_to_set(state.first_mask))
        second_set = _vertex_list(mask_to_set(state.second_mask))
        frontier = " ".join(map(str, sorted(legal_moves(instance, state))))
        output_stream.write(
            f"first[{first_set}]={f}/{total} "
            f"second[{second_set}]={s}/{total}\n"
        )
        output_stream.write(f"frontier: {frontier}\n")

    def human(inst: Instance, state: GameState) -> int:
        show_state(state)
        legal = legal_moves(inst, state)
        while True:
            output_stream.write(f"your move ({human_side.value}): ")
            output_stream.flush()
            line = input_stream.readline()
            if not line:
                raise _InputEnded
            token = line.strip()
            try:
                vertex = int(token)
            except ValueError:
                output_stream.write(f"not a vertex id: {token!r}\n")
                continue
            if vertex not in legal:
                takeable = " ".join(map(str, sorted(legal)))
                output_stream.write(
                    f"vertex {vertex} is not takeable now; takeable: {takeable}\n"
                )
                continue
            return vertex

    def engine_move(inst: Instance, state: GameState) -> int:
        vertex = engine(inst, state)
        side = mover(inst, state, policy)
        output_stream.write(
            f"engine ({side.value}) takes {vertex} "
            f"(weight {inst.weights[vertex]})\n"
        )
        return vertex

    strategies = {human_side: human}
    other = Player.SECOND if human_side is Player.FIRST else Player.FIRST
    strategies[other] = engine_move
    try:
        outcome = play_out(
            instance, policy, strategies[Player.FIRST], strategies[Player.SECOND]
        )
    except _InputEnded:
        output_stream.write("input ended; game aborted\n")
        return None
    except TieEncounteredError:
        output_stream.write(
            "totals tied: the forbid policy cannot continue; game aborted\n"
        )
        raise
    output_stream.write(
        f"final: first[{_vertex_list(outcome.first_set)}]="
        f"{format_fraction(outcome.first_value)} "
        f"second[{_vertex_list(outcome.second_set)}]="
        f"{format_fraction(1 - outcome.first_value)}\n"
    )
    human_score = (
        outcome.first_value
        if human_side is Player.FIRST
        else 1 - outcome.first_value
    )
    engine_optimal = optimal if human_side is Player.FIRST else 1 - optimal
    relation = (
        "matches"
        if human_score == engine_optimal
        else ("beats" if human_score > engine_optimal else "falls short of")
    )
    output_stream.write(
        f"your share {format_fraction(human_score)} {relation} the optimal "
        f"{format_fraction(engine_optimal)} for your side\n"
    )
    return outcome


def _cmd_play(args: argparse.Namespace, out: IO[str]) -> int:
    instance = _read_instance(args.file)
    policy = TiePolicy.from_token(args.policy)
    side = Player.FIRST if args.human == "first" else Player.SECOND
    run_play(instance, policy, side, sys.stdin, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _parse_param(token: str):
    if "=" not in token:
        raise _UsageError(f"--param needs key=value, got {token!r}")
    key, text = token.split("=", 1)
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return key, Fraction(int(num), int(den))
        if "," in text:
            return key, tuple(int(part) for part in text.split(","))
        return key, int(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"cannot parse --param value {text!r}") from None


def _cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    params = dict(_parse_param(token) for token in args.param or [])
    report = run_suite(args.suite, seed=args.seed, size_params=params or None)
    out.write(report.render())
    return EXIT_OK if report.passed else EXIT_SUITE_FAIL


# ---------------------------------------------------------------------------
# gen


def _parse_kind(kind: str, seed: int | None) -> Instance:
    name, _, rest = kind.partition(":")
    try:
        if name == "cycle7":
            return gen_cycle7_family(int(rest))
        if name == "tree":
            if seed is None:
                raise _UsageError("--seed is required for kind tree")
            return gen_random_tree(int(rest), seed, 10**9)
        if name == "connected":
            n_text, extra_text = rest.split(",", 1)
            if seed is None:
                raise _UsageError("--seed is required for kind connected")
            return gen_random_connected(int(n_text), int(extra_text), seed, 10**9)
        if name == "edge":
            a_text, b_text = rest.split(",", 1)
            return Instance(weights=(int(a_text), int(b_text)), edges=((0, 1),))
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"bad --kind argument {kind!r}: {exc}") from exc
    raise _UsageError(
        f"unknown kind {name!r}; expected cycle7:<M>, tree:<n>, "
        "connected:<n>,<extra>, or edge:<a>,<b>"
    )


def _cmd_gen(args: argparse.Namespace, out: IO[str]) -> int:
    instance = _parse_kind(args.kind, args.seed)
    text = format_instance(instance)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# adversary


# Each --method's search, its vertex cap and its iteration budget's
# parameter name.
_METHODS = {
    "alt": (alternate_optimize, ALTERNATE_VERTEX_CAP, "max_iters"),
    "hill": (hill_climb, HILL_VERTEX_CAP, "iters"),
}


def _parse_shapes(token: str, cap: VertexCap) -> list[GraphShape]:
    """The shapes a ``--shape`` token names.  Their vertex count comes
    from the token and is checked against ``cap`` before any shape is
    built or enumerated."""
    name, _, rest = token.partition(":")
    if name not in ("cycle7", "cycle", "tree-enum", "edge"):
        raise _UsageError(
            f"unknown shape {token!r}; expected cycle7, cycle:<n>, "
            "tree-enum:<n>, or edge"
        )
    try:
        n = {"cycle7": 7, "edge": 2}.get(name) or int(rest)
        cap.check(n)
        if name == "edge":
            return [GraphShape.single_edge()]
        if name == "tree-enum":
            return list(tree_shapes(n))
        return [GraphShape.cycle(n)]
    except ValueError as exc:
        raise _UsageError(f"bad --shape argument {token!r}: {exc}") from exc


def _cmd_adversary(args: argparse.Namespace, out: IO[str]) -> int:
    search, cap, budget = _METHODS[args.method]
    policy = TiePolicy.from_token(args.policy)
    options = {}
    if args.method == "hill":
        if args.seed is None:
            raise _UsageError("--seed is required for method hill")
        options["seed"] = args.seed
    # Without --iters each search keeps its own default budget.
    if args.iters is not None:
        if args.iters < 1:
            raise _UsageError(f"--iters must be at least 1, got {args.iters}")
        options[budget] = args.iters
    shapes = _parse_shapes(args.shape, cap)
    # the first shape wins a tie on value
    result = min(
        (search(shape, policy, **options) for shape in shapes),
        key=lambda found: found.value,
    )
    if args.trace:
        for record in result.trace:
            candidate_text = (
                "-"
                if record.candidate_value is None
                else format_fraction(record.candidate_value)
            )
            print(
                f"trace.{record.iteration}.lp_bound={format_fraction(record.lp_bound)}"
                f" candidate={candidate_text}"
                f" best={format_fraction(record.best_value)}",
                file=sys.stderr,
            )
    out.write(format_instance(result.instance))
    out.write(f"value={format_fraction(result.value)}\n")
    out.write(f"method={args.method}\n")
    out.write(f"policy={policy.value}\n")
    out.write(f"shape={args.shape}\n")
    out.write(f"shapes_searched={len(shapes)}\n")
    out.write(f"stop_reason={result.stop_reason}\n")
    if args.seed is not None:
        out.write(f"seed={args.seed}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphshare",
        description="Exact solver and verifier for the concurrent "
        "graph sharing game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file exactly")
    p_solve.add_argument("file")
    p_solve.add_argument("--policy", choices=_POLICY_CHOICES, default="forbid")
    p_solve.add_argument("--start", type=int, default=None)

    p_play = sub.add_parser("play", help="play against the engine")
    p_play.add_argument("file")
    p_play.add_argument("--human", choices=("first", "second"), required=True)
    p_play.add_argument("--policy", choices=_POLICY_CHOICES, default="forbid")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--param", action="append", metavar="K=V")

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("-o", "--output", default=None)

    p_adv = sub.add_parser("adversary", help="search for worst-case weights")
    p_adv.add_argument("--shape", required=True)
    p_adv.add_argument("--policy", choices=_POLICY_CHOICES, default="forbid")
    p_adv.add_argument("--method", choices=tuple(_METHODS), default="alt")
    p_adv.add_argument("--seed", type=int, default=None)
    p_adv.add_argument("--iters", type=int, default=None)
    p_adv.add_argument(
        "--trace",
        action="store_true",
        help="write the winning search's iteration records to stderr",
    )

    return parser


_COMMANDS = {
    "solve": _cmd_solve,
    "play": _cmd_play,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
    "adversary": _cmd_adversary,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except TieEncounteredError:
        print("aborted: totals tied under the forbid policy", file=sys.stderr)
        return EXIT_TIE
    except (_UsageError, GraphShareError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
