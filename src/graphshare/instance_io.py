"""Plain-text instance format.

Layout (after dropping blank lines and lines starting with ``#``):

    line 1: ``n m``        vertex count and edge count
    line 2: ``w0 .. wn-1`` the n vertex weights
    next m lines: ``u v``  one edge per line

Vertices are ``0 .. n-1``.  Errors carry the physical line number of the
offending input line; structural problems (weights, duplicate or loop
edges, disconnectedness) raise the matching core error.
"""

from __future__ import annotations

from .core import GraphShareError, Instance


class InstanceSyntaxError(GraphShareError):
    """Malformed instance text; ``line`` is the 1-based physical line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _records(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((number, stripped.split()))
    return out


def _ints(line: int, tokens: list[str], what: str) -> list[int]:
    values = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise InstanceSyntaxError(line, f"{what}: {token!r} is not an integer")
    return values


def parse_instance(text: str) -> Instance:
    records = _records(text)
    if not records:
        raise InstanceSyntaxError(1, "empty instance")
    line, header = records[0]
    if len(header) != 2:
        raise InstanceSyntaxError(line, "expected header 'n m'")
    n, m = _ints(line, header, "header")
    if n < 1:
        raise InstanceSyntaxError(line, f"vertex count {n} must be positive")
    if m < 0:
        raise InstanceSyntaxError(line, f"edge count {m} must be nonnegative")
    if len(records) < 2:
        raise InstanceSyntaxError(line, "missing weights line")
    wline, wtokens = records[1]
    if len(wtokens) != n:
        raise InstanceSyntaxError(wline, f"expected {n} weights, got {len(wtokens)}")
    weights = _ints(wline, wtokens, "weight")
    body = records[2:]
    if len(body) < m:
        last = body[-1][0] if body else wline
        raise InstanceSyntaxError(last, f"expected {m} edge lines, got {len(body)}")
    if len(body) > m:
        raise InstanceSyntaxError(body[m][0], "unexpected content after edge list")
    edges = []
    for eline, tokens in body:
        if len(tokens) != 2:
            raise InstanceSyntaxError(eline, "expected edge 'u v'")
        u, v = _ints(eline, tokens, "edge endpoint")
        if not (0 <= u < n and 0 <= v < n):
            raise InstanceSyntaxError(eline, f"edge ({u}, {v}) out of range")
        edges.append((u, v))
    return Instance(weights=tuple(weights), edges=tuple(edges))


def format_instance(instance: Instance) -> str:
    lines = [
        f"{instance.vertex_count} {len(instance.edges)}",
        " ".join(str(w) for w in instance.weights),
    ]
    for u, v in instance.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
