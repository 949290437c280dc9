"""Command-line surface: solve, play, verify, gen, adversary.

Every command is deterministic given its flags, seeds, and input files;
randomized commands require an explicit ``--seed``.  Exit codes: 0 for
success or a passing suite, 1 for a failing suite, 2 for usage or parse
errors, 3 when the forbid policy aborts on a tie, and 141 (128 + SIGPIPE,
what a shell reports for other tools) when the reader closes the output
pipe early, as ``| head`` does; that exit is silent.
"""

from __future__ import annotations

import argparse
import os
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
    play_out,
)
from .generators import gen_cycle7_family, gen_random_connected, gen_random_tree
from .instance_io import format_instance, parse_instance
from .solve import (
    SOLVE_VERTEX_CAP,
    SOLVE_WARN_VERTICES,
    canonical_strategy,
    format_fraction,
    solve,
)
from .verify import run_suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_USAGE = 2
EXIT_TIE = 3
EXIT_PIPE = 141

_POLICY_CHOICES = sorted(policy.value for policy in TiePolicy)


def _read_instance(path: str) -> Instance:
    with open(path, "r", encoding="utf-8-sig") as handle:
        return parse_instance(handle.read())


def _check_seed(seed: int | None, label: str, name: str, seeded: tuple) -> None:
    """The one ``--seed`` rule: ``seeded`` variants require it, others refuse it."""
    if seed is None and name in seeded:
        raise GraphShareError(f"--seed is required for {label} {name}")
    if seed is not None and name not in seeded:
        only = " or ".join(seeded)
        raise GraphShareError(f"--seed is for {label} {only} only, not {name}")


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args: argparse.Namespace, out: IO[str]) -> int:
    instance = _read_instance(args.file)
    if args.start is not None and not 0 <= args.start < instance.vertex_count:
        raise GraphShareError(f"start vertex {args.start} does not exist")
    # above the cap the solver refuses, with no warning first
    if SOLVE_WARN_VERTICES < instance.vertex_count <= SOLVE_VERTEX_CAP:
        print(
            f"warning: {instance.vertex_count} vertices; exact solving "
            "may take a while",
            file=sys.stderr,
        )
    policy = TiePolicy(args.policy)
    report = solve(instance, policy)
    if args.start is None:
        out.write(report.render())
        return EXIT_OK
    out.write(report.per_start[args.start].render())
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
    function only supplies strategies and narration.  The optimal share
    is the one engine's play against itself: its first move searches all
    openings, so a tie under forbid raises TieEncounteredError first.
    """
    total = instance.total_weight
    engine = canonical_strategy(instance, policy)
    optimal = play_out(instance, policy, engine, engine).first_value

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

    engine_side = Player.SECOND if human_side is Player.FIRST else Player.FIRST

    def engine_move(inst: Instance, state: GameState) -> int:
        vertex = engine(inst, state)
        output_stream.write(
            f"engine ({engine_side.value}) takes {vertex} "
            f"(weight {inst.weights[vertex]})\n"
        )
        return vertex

    strategies = {human_side: human, engine_side: engine_move}
    try:
        outcome = play_out(
            instance, policy, strategies[Player.FIRST], strategies[Player.SECOND]
        )
    except _InputEnded:
        output_stream.write("input ended; game aborted\n")
        return None
    output_stream.write(
        f"final: first[{_vertex_list(outcome.first_set)}]="
        f"{format_fraction(outcome.first_value)} "
        f"second[{_vertex_list(outcome.second_set)}]="
        f"{format_fraction(1 - outcome.first_value)}\n"
    )
    def side_share(first_value: Fraction) -> Fraction:
        return first_value if human_side is Player.FIRST else 1 - first_value

    human_score, engine_optimal = side_share(outcome.first_value), side_share(optimal)
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
    policy = TiePolicy(args.policy)
    side = Player.FIRST if args.human == "first" else Player.SECOND
    run_play(instance, policy, side, sys.stdin, out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _parse_param(token: str):
    if "=" not in token:
        raise GraphShareError(f"--param needs key=value, got {token!r}")
    key, text = token.split("=", 1)
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return key, Fraction(int(num), int(den))
        if "," in text:
            # a trailing comma closes a tuple, as in Python: "1000," is (1000,)
            return key, tuple(int(part) for part in text.removesuffix(",").split(","))
        return key, int(text)
    except (ValueError, ZeroDivisionError):
        raise GraphShareError(f"cannot parse --param value {text!r}") from None


def _cmd_verify(args: argparse.Namespace, out: IO[str]) -> int:
    params = {}
    for key, value in map(_parse_param, args.param or []):
        if key in params:
            raise GraphShareError(f"--param {key} given twice")
        params[key] = value
    report = run_suite(args.suite, seed=args.seed, size_params=params or None)
    out.write(report.render())
    return EXIT_OK if report.passed else EXIT_SUITE_FAIL


# ---------------------------------------------------------------------------
# gen


# Each --kind's numbers, in the form a parse error names.
_KIND_FORMS = {
    "cycle7": "<M>",
    "tree": "<n>",
    "connected": "<n>,<extra>",
    "edge": "<a>,<b>",
}


def _parse_kind(kind: str, seed: int | None) -> Instance:
    """The instance a ``--kind`` token names.  The kind name is checked
    first, then ``--seed``, then the numbers' form, all before the
    generator runs; the generator's own refusals name their value."""
    name, _, rest = kind.partition(":")
    if name not in _KIND_FORMS:
        raise GraphShareError(
            f"unknown kind {name!r}; expected cycle7:<M>, tree:<n>, "
            "connected:<n>,<extra>, or edge:<a>,<b>"
        )
    _check_seed(seed, "kind", name, ("tree", "connected"))
    form = _KIND_FORMS[name]
    try:
        numbers = tuple(int(text) for text in rest.split(","))
    except ValueError:
        numbers = ()
    if len(numbers) != form.count("<"):
        raise GraphShareError(f"bad --kind argument {kind!r}: expected {name}:{form}")
    try:
        if name == "cycle7":
            return gen_cycle7_family(*numbers)
        if name == "tree":
            return gen_random_tree(*numbers, seed, 10**9)
        if name == "connected":
            return gen_random_connected(*numbers, seed, 10**9)
        return Instance(weights=numbers, edges=((0, 1),))
    except ValueError as exc:
        raise GraphShareError(f"bad --kind argument {kind!r}: {exc}") from exc


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
    name, colon, rest = token.partition(":")
    if name not in ("cycle7", "cycle", "tree-enum", "edge"):
        raise GraphShareError(
            f"unknown shape {token!r}; expected cycle7, cycle:<n>, "
            "tree-enum:<n>, or edge"
        )
    fixed = {"cycle7": 7, "edge": 2}
    if name in fixed and colon:
        raise GraphShareError(f"bad --shape argument {token!r}: {name} takes no count")
    try:
        n = fixed.get(name) or int(rest)
        cap.check(n)
        if name == "edge":
            return [GraphShape.single_edge()]
        if name == "tree-enum":
            return list(tree_shapes(n))
        return [GraphShape.cycle(n)]
    except ValueError as exc:
        raise GraphShareError(f"bad --shape argument {token!r}: {exc}") from exc


def _cmd_adversary(args: argparse.Namespace, out: IO[str]) -> int:
    search, cap, budget = _METHODS[args.method]
    policy = TiePolicy(args.policy)
    _check_seed(args.seed, "method", args.method, ("hill",))
    options = {} if args.seed is None else {"seed": args.seed}
    # Without --iters each search keeps its own default budget.
    if args.iters is not None:
        if args.iters < 1:
            raise GraphShareError(f"--iters must be at least 1, got {args.iters}")
        options[budget] = args.iters
    shapes = _parse_shapes(args.shape, cap)
    # the first shape wins a tie on value
    result = min(
        (search(shape, policy, **options) for shape in shapes),
        key=lambda found: found.value,
    )
    if args.trace:
        for record in result.trace:
            print(
                f"trace.{record.iteration}.lp_bound={format_fraction(record.lp_bound)}"
                f" candidate={format_fraction(record.candidate_value)}"
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


def _discard_output(stream: IO[str]) -> None:
    """Point ``stream``'s descriptor, if it has one, at ``os.devnull``,
    so the interpreter's last flush of the unwritten output stays quiet
    (the SIGPIPE note in Python's ``signal`` documentation)."""
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.command](args, sys.stdout)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
        return status
    except BrokenPipeError:
        _discard_output(sys.stdout)
        return EXIT_PIPE
    except TieEncounteredError:
        print("aborted: totals tied under the forbid policy", file=sys.stderr)
        return EXIT_TIE
    except (GraphShareError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
