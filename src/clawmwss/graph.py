"""Immutable simple undirected graph with a counted adjacency oracle.

The solvers in this package are analysed by the number of adjacency queries
they make, so every pairwise adjacency decision on a solve path is charged
to a per-context counter: one by one through :meth:`Graph.adjacent`, or by
a batch primitive, which charges exactly the pairs it decides.  Direct
structure access (the neighbor tuples and sets) is free and intentionally not
counted; it is only used where the algorithm genuinely reads stored data
rather than asking "is u adjacent to v?".  A graph keeps
one adjacency store, an ascending tuple of neighbor ids per node, and
answers a query by bisection in O(log d) time for a node of degree d.  The
store takes one 8-byte word per arc plus a 40-byte tuple header per node:
the tuples share one int object per node id.  The parser streams its edges
into :func:`build_graph`; the generators build the tuples directly and hand
them to :class:`Graph`, keeping both properties.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

NodeWeights = Sequence[int]

# Weights above this in magnitude are rejected so that any 3-node sum fits
# comfortably in signed 64-bit arithmetic.
WEIGHT_LIMIT = 1 << 61

# Instance headers declaring more nodes than this are rejected before any
# per-node storage is allocated.
NODE_LIMIT = 1 << 20


class QueryCounter:
    """Monotone tally of adjacency-oracle calls for one solve context."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def __repr__(self) -> str:
        return f"QueryCounter({self.count})"


class Graph:
    """Immutable simple graph on nodes 0..n-1.

    One ascending tuple of neighbor ids per node is the only adjacency
    store, at 8 bytes per arc; the oracle bisects it in O(log d) time,
    :meth:`neighbors` returns it as is, :meth:`neighbor_set` builds a
    frozenset of it on demand, and ``n`` and ``m`` are read off it.  The
    query counter belongs to a solve context: concurrent solves over the
    same structure should each use their own view from :meth:`with_counter`.
    """

    __slots__ = ("n", "m", "_nbrs", "counter")

    def __init__(self, nbrs: list[tuple[int, ...]]):
        self.n = len(nbrs)
        self.m = sum(map(len, nbrs)) // 2
        self._nbrs = nbrs
        self.counter = QueryCounter()

    def adjacent(self, u: int, v: int) -> bool:
        """Counted adjacency oracle: true iff {u, v} is an edge."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise IndexError(f"node id out of range: ({u}, {v})")
        self.counter.count += 1
        nbrs = self._nbrs[u]
        i = bisect_left(nbrs, v)
        return i < len(nbrs) and nbrs[i] == v

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Ascending neighbor ids of v: the store itself (not counted)."""
        return self._nbrs[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """Neighbor ids of v as a set, built on each call (not counted)."""
        return frozenset(self._nbrs[v])

    def with_counter(self) -> "Graph":
        """Shallow view sharing structure but owning a fresh query counter
        at 0."""
        return Graph(self._nbrs)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from a stream of edges.

    Duplicate edges (in either orientation) are collapsed; self-loops and
    out-of-range ids are rejected.  The edges are read once and never held:
    each end is appended to a per-node list as one of n shared int objects,
    and each list is then replaced by the ascending tuple of its distinct
    members, so the finished store holds n ints however many edges were
    streamed.
    """
    if n < 0:
        raise ValueError(f"negative node count: {n}")
    ids = list(range(n))
    nbrs: list = [[] for _ in ids]
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        nbrs[u].append(ids[v])
        nbrs[v].append(ids[u])
    # Replacing in place frees each list as soon as its tuple exists.
    for v, s in enumerate(nbrs):
        nbrs[v] = tuple(sorted(set(s)))
    return Graph(nbrs)


def is_clique_or_witness(g: Graph, nodes: Sequence[int]) -> tuple[int, int] | None:
    """Return None if the given nodes are pairwise adjacent, else one
    non-adjacent pair (the first in scan order).

    Costs O(k^2) adjacency queries for k nodes.  Empty and singleton sets
    are cliques vacuously.  Row u, the pairs of u with the nodes after it,
    is decided by one set difference and charged its length; a row that
    fails is scanned pair by pair, which charges the pairs up to the first
    non-neighbour, exactly as a scan alone would.
    """
    for i, u in enumerate(nodes):
        row = nodes[i + 1 :]
        if 0 <= u < g.n and not set(row).difference(g._nbrs[u]):
            g.counter.count += len(row)
            continue
        for v in row:
            if not g.adjacent(u, v):
                return (u, v)
    return None


class OrderedCliquePrefix:
    """A clique in a fixed order plus one adjacency bitmask per probe.

    ``order`` keeps the clique in the order it was given as z_0..z_{p-1}.
    Bit i of ``mask(u)`` is set iff probe u is adjacent to z_i, so
    ``mask(u).bit_count()`` is the number of clique nodes u covers.
    ``build`` asks nothing: a probe's mask is built the first time a search
    needs it, at p adjacency queries, and kept, so a search pays only for
    the probes it reaches.  Per probe pair, ``first_free`` costs O(p/30)
    big-int digit operations, where the paper's binary search over prefix
    counts costs O(log p) steps.
    """

    __slots__ = ("g", "order", "masks")

    def __init__(self, g: Graph, order: tuple[int, ...]):
        self.g = g
        self.order = order
        self.masks: dict[int, int] = {}

    @classmethod
    def build(cls, g: Graph, clique: Sequence[int]) -> "OrderedCliquePrefix":
        return cls(g, tuple(clique))

    def mask(self, u: int) -> int:
        """Probe u's adjacency bitmask over ``order``: p queries on first
        use, none after."""
        mask = self.masks.get(u)
        if mask is None:
            mask = sum(1 << i for i, z in enumerate(self.order) if self.g.adjacent(u, z))
            self.masks[u] = mask
        return mask

    def first_free(self, a: int, b: int) -> int | None:
        """The first clique node in ``order`` adjacent to neither probe (the
        lowest zero bit of ``mask(a) | mask(b)``), or None."""
        covered = self.mask(a) | self.mask(b)
        i = (~covered & (covered + 1)).bit_length() - 1
        return self.order[i] if i < len(self.order) else None


def is_null_to(g: Graph, a: Sequence[int], b: Sequence[int]) -> tuple[int, int] | None:
    """Return None if no edge crosses between disjoint sets a and b, else one
    crossing edge (u, v) with u in a, v in b."""
    for u in a:
        for v in b:
            if g.adjacent(u, v):
                return (u, v)
    return None


# Only tests call this; it stays here because perfbench traces it here by name.
def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the distinct nodes of ``keep``, plus the old-id ->
    new-id map.

    New ids are assigned in ascending order of old id, so the map is
    monotone increasing.
    """
    kept = sorted(set(keep))
    idmap = {old: new for new, old in enumerate(kept)}
    edges = (
        (u, idmap[w])
        for u, old in enumerate(kept)
        for w in g.neighbors(old)
        if old < w and w in idmap
    )
    return build_graph(len(kept), edges), idmap


def total_weight(weights: NodeWeights, nodes: Iterable[int]) -> int:
    return sum(weights[v] for v in nodes)


def check_weights(g: Graph, weights: NodeWeights) -> None:
    """Enforce the library weight contract: one plain ``int`` per node (not
    a ``bool``), each of magnitude at most WEIGHT_LIMIT."""
    if len(weights) != g.n:
        raise ValueError(
            f"weight vector length {len(weights)} does not match node count {g.n}"
        )
    for v, w in enumerate(weights):
        if type(w) is not int:
            raise ValueError(f"weight of node {v} is not an int: {w!r}")
        if abs(w) > WEIGHT_LIMIT:
            raise ValueError(f"weight of node {v} exceeds {WEIGHT_LIMIT} in magnitude")

