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
from bisect import bisect_right
from typing import IO, Iterable, Sequence

from .errors import InstanceFormatError
from .graph import NODE_LIMIT, WEIGHT_LIMIT, Graph, _graph_from_lists, check_weights

# Entries the reader's name table holds before it is emptied: all ids of an
# alpha <= 3 file of up to 2^23 edges (m >= about n^2/6), yet no string per
# node of a sparse file.
NAME_LIMIT = 1 << 13
# Digits of the largest node id.  A longer id token takes the full checks,
# since int() refuses one of over 4,300 digits.
ID_DIGITS = len(str(NODE_LIMIT))


def _parse_int(token: str, line_no: int, what: str) -> int:
    # int() would read the digit separator in "1_0" as 10.
    if "_" not in token:
        try:
            return int(token, 10)
        except ValueError:
            pass
    raise InstanceFormatError(line_no, f"{what} is not an integer: {token!r}")


def read_instance(stream: IO[str] | str) -> tuple[Graph, list[int]]:
    """Parse an instance file into (Graph, weights).

    Accepts a text stream or a string, whose LF, CRLF and CR line ends read
    alike, as in a file opened in text mode.  Raises InstanceFormatError
    with the offending 1-based line number on any malformed input,
    including any non-ASCII character.

    One loop reads the lines in turn and holds no edge list: each edge's
    ends go straight into per-node lists of shared ids.  A dict from id
    token to that node's shared int answers most edge lines.  A token it
    lacks enters it if it is a plain decimal id in 1..n, and the dict is
    emptied once it holds NAME_LIMIT entries, so a sparse file with many
    ids keeps it small.  An edge line with a token still missing (``+1``,
    ``1_0``, an id out of range) or with both ends one node goes through
    the full checks, so each error keeps its message and line number."""
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    n = -1
    m_declared = -1
    weighted: set[int] = set()
    edge_lines = 0
    line_no = 0
    names: dict[str, int] = {}
    for raw in stream:
        line_no += 1
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
            weights = [1] * n
            # ids[k] = k - 1 is file id k's node: one int object that
            # every tuple shares.
            ids = list(range(-1, n))
            nbrs = [[] for _ in range(n)]
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
            _, a, b = parts
            u = names.get(a)
            v = names.get(b)
            if u is None or v is None or u == v:
                if len(names) >= NAME_LIMIT:
                    names.clear()
                if u is None and len(a) <= ID_DIGITS and a.isdigit() and 0 < (k := int(a)) <= n:
                    u = names[a] = ids[k]
                if v is None and len(b) <= ID_DIGITS and b.isdigit() and 0 < (k := int(b)) <= n:
                    v = names[b] = ids[k]
                if u is None or v is None or u == v:
                    u = _parse_int(a, line_no, "node id")
                    v = _parse_int(b, line_no, "node id")
                    if not (1 <= u <= n and 1 <= v <= n):
                        raise InstanceFormatError(line_no, f"edge ({u}, {v}) out of range 1..{n}")
                    if u == v:
                        raise InstanceFormatError(line_no, f"self-loop at node {u}")
                    u, v = ids[u], ids[v]
            edge_lines += 1
            if edge_lines > m_declared:
                raise InstanceFormatError(line_no, f"more than {m_declared} edge lines")
            nbrs[u].append(v)
            nbrs[v].append(u)
        else:
            raise InstanceFormatError(line_no, f"unknown line type {kind!r}")

    if n < 0:
        raise InstanceFormatError(line_no + 1, "missing problem line")
    if edge_lines != m_declared:
        raise InstanceFormatError(
            line_no + 1, f"expected {m_declared} edge lines, found {edge_lines}"
        )
    return _graph_from_lists(nbrs), weights


def dump_instance(
    g: Graph, weights: Sequence[int], out: IO[str], comments: Iterable[str] = ()
) -> None:
    """Write (Graph, weights) to the text stream ``out`` as instance-file
    text, one node's edge lines per write.

    Comment lines come first, then the problem line, weight lines for nodes
    whose weight differs from the default 1, and the edges with u < v in
    ascending order.  Output is canonical: reading it back yields an equal
    graph and weight vector.  Raises ValueError on weights that break
    :func:`graph.check_weights`'s contract, which the reader also enforces,
    and on a comment that is not one line of ASCII text (it holds ``\\n``,
    ``\\r`` or a non-ASCII character).
    """
    check_weights(g, weights)
    for comment in comments:
        if "\n" in comment or "\r" in comment or not comment.isascii():
            raise ValueError(f"comment is not one line of ASCII text: {comment!r}")
        out.write(f"c {comment}\n" if comment else "c\n")
    out.write(f"p edge {g.n} {g.m}\n")
    for v, w in enumerate(weights):
        if w != 1:
            out.write(f"n {v + 1} {w}\n")
    names = [str(v + 1) for v in range(g.n)]
    for u, name in enumerate(names):
        nbrs = g.neighbors(u)
        above = nbrs[bisect_right(nbrs, u) :]
        if above:
            sep = f"\ne {name} "
            out.write(sep[1:] + sep.join([names[v] for v in above]) + "\n")


def write_instance(
    g: Graph, weights: Sequence[int], comments: Iterable[str] = ()
) -> str:
    """:func:`dump_instance`'s text as a string."""
    out = io.StringIO()
    dump_instance(g, weights, out, comments)
    return out.getvalue()
