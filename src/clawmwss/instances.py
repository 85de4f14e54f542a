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
from operator import eq
from typing import IO, Iterable, Sequence

from .errors import InstanceFormatError
from .graph import NODE_LIMIT, WEIGHT_LIMIT, Graph, _graph_from_lists

# Characters of text the reader takes per batch of lines.  A batch of edge
# lines is checked and converted whole, so its token strings are alive at
# once: at m = 2^14, 64 KiB batches raise the parse's traced peak by about
# 23 bytes per edge, and 1 KiB batches by nothing measurable.
BATCH_HINT = 1 << 10


def _parse_int(token: str, line_no: int, what: str) -> int:
    # int() would read the digit separator in "1_0" as 10.
    if "_" not in token:
        try:
            return int(token, 10)
        except ValueError:
            pass
    raise InstanceFormatError(line_no, f"{what} is not an integer: {token!r}")


def _edge_batch(batch: list[str], n: int, room: int) -> list[int] | None:
    """The 1-based ends u, v of each line of a batch, in one flat list, if
    every line is ``e <u> <v>`` with both ids in 1..n and u != v, and there
    are at most ``room`` lines; otherwise None, and the line loop reads the
    batch.

    A line holds no ``\\n`` but the one that ends it, so when the text of
    k lines starts with ``e`` and holds k - 1 ``\\ne``, each line starts
    with ``e``.  With 3k tokens, every third one ``e``, and the rest ints,
    which hold no ``e``, the k line-first tokens fill the k ``e`` places, so
    each line is ``e`` and two ints."""
    k = len(batch)
    if k > room:
        return None
    text = "".join(batch)
    if not (text.isascii() and text.startswith("e") and text.count("\ne") == k - 1):
        return None
    if "_" in text:  # int() reads digit separators; the line loop refuses them
        return None
    tokens = text.split()
    if len(tokens) != 3 * k or tokens[0::3].count("e") != k:
        return None
    del tokens[0::3]
    try:
        ends = list(map(int, tokens))
    except ValueError:
        return None
    if min(ends) < 1 or max(ends) > n or any(map(eq, ends[0::2], ends[1::2])):
        return None
    return ends


def read_instance(stream: IO[str] | str) -> tuple[Graph, list[int]]:
    """Parse an instance file into (Graph, weights).

    Accepts a text stream or a string, whose LF, CRLF and CR line ends read
    alike, as in a file opened in text mode.  Raises InstanceFormatError
    with the offending 1-based line number on any malformed input,
    including any non-ASCII character.

    Lines are read in batches of about BATCH_HINT characters.  Once an
    edge line has been read, each batch is first offered to
    :func:`_edge_batch`; one it refuses goes through the line loop from its
    first line, so errors and their line numbers do not depend on the
    batching.  Either route checks each edge once and appends its ends to
    per-node lists of shared ids; no edge list is held."""
    if isinstance(stream, str):
        stream = io.StringIO(stream, newline=None)
    n = -1
    m_declared = -1
    weighted: set[int] = set()
    edge_lines = 0
    line_no = 0

    for batch in iter(lambda: stream.readlines(BATCH_HINT), []):
        if edge_lines:
            ends = _edge_batch(batch, n, m_declared - edge_lines)
            if ends is not None:
                edge_lines += len(batch)
                line_no += len(batch)
                for u, v in zip(ends[0::2], ends[1::2]):
                    nbrs[ids[u]].append(ids[v])
                    nbrs[ids[v]].append(ids[u])
                continue
        for raw in batch:
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
                u = _parse_int(parts[1], line_no, "node id")
                v = _parse_int(parts[2], line_no, "node id")
                if not (1 <= u <= n and 1 <= v <= n):
                    raise InstanceFormatError(line_no, f"edge ({u}, {v}) out of range 1..{n}")
                if u == v:
                    raise InstanceFormatError(line_no, f"self-loop at node {u}")
                edge_lines += 1
                if edge_lines > m_declared:
                    raise InstanceFormatError(line_no, f"more than {m_declared} edge lines")
                nbrs[ids[u]].append(ids[v])
                nbrs[ids[v]].append(ids[u])
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
    graph and weight vector.  Raises ValueError on a comment that is not one
    line of ASCII text (it holds ``\\n``, ``\\r`` or a non-ASCII character).
    """
    if len(weights) != g.n:
        raise ValueError("weight vector length does not match node count")
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
