"""Instance file I/O.

Line-oriented ASCII format (DIMACS-flavoured, ids 1-based in files):

    c <comment>          ignored
    p edge <n> <m>       exactly once, first non-comment line
    n <v> <w>            optional integer node weight, default 1
    e <u> <v>            exactly m lines, u != v

Nodes are dense 0-based internally; the reader/writer shift by one.
"""

from __future__ import annotations

import io
from typing import IO, Iterator, Sequence

from .errors import InstanceFormatError
from .graph import NODE_LIMIT, WEIGHT_LIMIT, Graph, build_graph


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise InstanceFormatError(line_no, f"{what} is not an integer: {token!r}") from None


def read_instance(stream: IO[str] | str) -> tuple[Graph, list[int]]:
    """Parse an instance file into (Graph, weights).

    Accepts a text stream or a string.  Raises InstanceFormatError with the
    offending 1-based line number on any malformed input, including any
    non-ASCII character.  The edge lines stream straight into
    :func:`build_graph`; no edge list is held.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    weights: list[int] = []
    lines = _parse(stream, weights)
    n = next(lines)
    return build_graph(n, lines), weights


def _parse(stream: IO[str], weights: list[int]) -> Iterator:
    """Yield the node count once the problem line is read, then each edge
    as a 0-based pair; weight lines fill ``weights`` on the way, wherever
    they stand.  The edge count is checked when the stream ends."""
    n = -1
    m_declared = -1
    weighted: set[int] = set()
    edge_lines = 0
    last_line = 0

    for line_no, raw in enumerate(stream, start=1):
        last_line = line_no
        if not raw.isascii():
            raise InstanceFormatError(line_no, "non-ASCII text")
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        kind = parts[0]
        if kind == "p":
            if n >= 0:
                raise InstanceFormatError(line_no, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise InstanceFormatError(line_no, f"malformed problem line: {raw.strip()!r}")
            n = _parse_int(parts[2], line_no, "node count")
            m_declared = _parse_int(parts[3], line_no, "edge count")
            if n < 0 or m_declared < 0:
                raise InstanceFormatError(line_no, "negative count in problem line")
            if n > NODE_LIMIT:
                raise InstanceFormatError(line_no, f"node count {n} exceeds {NODE_LIMIT}")
            weights.extend([1] * n)
            yield n
        elif kind == "n":
            if n < 0:
                raise InstanceFormatError(line_no, "weight line before problem line")
            if len(parts) != 3:
                raise InstanceFormatError(line_no, f"malformed weight line: {raw.strip()!r}")
            v = _parse_int(parts[1], line_no, "node id")
            w = _parse_int(parts[2], line_no, "node weight")
            if not (1 <= v <= n):
                raise InstanceFormatError(line_no, f"node id {v} out of range 1..{n}")
            if v - 1 in weighted:
                raise InstanceFormatError(line_no, f"duplicate weight for node {v}")
            if abs(w) > WEIGHT_LIMIT:
                raise InstanceFormatError(line_no, f"weight magnitude exceeds {WEIGHT_LIMIT}")
            weighted.add(v - 1)
            weights[v - 1] = w
        elif kind == "e":
            if n < 0:
                raise InstanceFormatError(line_no, "edge line before problem line")
            if len(parts) != 3:
                raise InstanceFormatError(line_no, f"malformed edge line: {raw.strip()!r}")
            u = _parse_int(parts[1], line_no, "node id")
            v = _parse_int(parts[2], line_no, "node id")
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceFormatError(line_no, f"edge ({u}, {v}) out of range 1..{n}")
            if u == v:
                raise InstanceFormatError(line_no, f"self-loop at node {u}")
            edge_lines += 1
            if edge_lines > m_declared:
                raise InstanceFormatError(line_no, f"more than {m_declared} edge lines")
            yield u - 1, v - 1
        else:
            raise InstanceFormatError(line_no, f"unknown line type {kind!r}")

    if n < 0:
        raise InstanceFormatError(last_line + 1, "missing problem line")
    if edge_lines != m_declared:
        raise InstanceFormatError(
            last_line + 1, f"expected {m_declared} edge lines, found {edge_lines}"
        )


def write_instance(
    g: Graph, weights: Sequence[int], comments: Sequence[str] = ()
) -> str:
    """Serialize (Graph, weights) to instance-file text.

    Comment lines come first, then the problem line, weight lines for nodes
    whose weight differs from the default 1, and the edges with u < v in
    ascending order.  Output is canonical: reading it back yields an equal
    graph and weight vector.
    """
    if len(weights) != g.n:
        raise ValueError("weight vector length does not match node count")
    out = []
    for comment in comments:
        out.append(f"c {comment}" if comment else "c")
    out.append(f"p edge {g.n} {g.m}")
    for v, w in enumerate(weights):
        if w != 1:
            out.append(f"n {v + 1} {w}")
    for u, v in g.edges():
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"
