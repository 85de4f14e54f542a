"""Immutable simple undirected graph with a counted adjacency oracle.

The solvers in this package are analysed by the number of adjacency queries
they make, so every pairwise adjacency decision on a solve path is charged
to a per-context counter: one by one through :meth:`Graph.adjacent`, or by
a batch primitive, which charges the pairs it decides.  A weighted solve
charges each pair once: it runs on a view from
:func:`asking_each_pair_once`, which shares the graph's store and counter
and charges only the pairs that the solve has not decided before.  The claw
check (``structure.find_claw``) takes the same view over all nodes and,
when the graph is dense enough for its table, decides neighbour pairs on
bitmasks of the neighbour ids, read free from the store; ``solve
--validate`` and ``check`` then hand that one table on to the solve.  Direct
structure access (the neighbor tuples and sets) is free and intentionally not
counted; it is only used where the algorithm genuinely reads stored data
rather than asking "is u adjacent to v?".  The solve path has two such
reads: ``cardinality.stable_pair`` reads a node's degree, or else counts
its neighbors among the searched nodes, to pick the first node with a
non-neighbor, and ``structure.classify`` intersects three anchors' tuples
to name a claw center before each three-anchor pass.  A graph keeps one
adjacency store, an ascending tuple of neighbor ids per node, and answers a
query by bisection in O(log d) time for a node of degree d.  The store
takes one 8-byte word per arc plus a 40-byte tuple header per node: the
tuples share one int object per node id.  :func:`build_graph` and the
reader, which checks each edge itself, fill per-node lists of shared ids
that one private step turns into the tuples; the line-graph and
triangle-free-complement generators build the tuples directly and hand
them to :class:`Graph`, keeping both properties.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import reduce
from operator import or_
from typing import Iterable, Sequence

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

    def _charge_rows(self, nodes: Sequence[int], rows: int) -> None:
        """Charge the pairs of the first ``rows`` nodes of ``nodes`` with
        the nodes after them, decided in a batch."""
        self.counter.count += sum(range(len(nodes) - rows, len(nodes)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class _PairTable(Graph):
    """A solve's view of a graph that charges each pair of ``keep`` once.

    It shares the graph's store and query counter.  Every query is answered
    from the store, but only a pair the view has not decided before is
    charged.  ``_rows[i]`` is the bitmask of the kept positions j whose pair
    with the i-th kept node is decided; a node counts as decided with
    itself, and both rows of a pair are set, so a batch of pairs is charged
    and recorded by a few big-int operations per node, with one popcount
    each.  ``_bit[j]`` is 1 << j.  For k kept nodes the full rows take
    about k^2 / 8 bytes and ``_bit`` half that: sized by ``keep``, never by
    ``n``.
    """

    __slots__ = ("_pos", "_bit", "_rows")

    def __init__(self, g: Graph, keep: Sequence[int]):
        # Graph.__init__ would give the view a counter of its own.
        self.n, self.m, self._nbrs, self.counter = g.n, g.m, g._nbrs, g.counter
        # ``keep`` is range(n), or the ascending list of the kept ids.
        self._pos = None if isinstance(keep, range) else {v: i for i, v in enumerate(keep)}
        self._bit = [1 << i for i in range(len(keep))]
        self._rows = list(self._bit)

    def adjacent(self, u: int, v: int) -> bool:
        pos, rows, bit = self._pos, self._rows, self._bit
        if pos is None:
            i, j = u, v
        else:
            i, j = pos[u], pos[v]
        if not rows[i] & bit[j]:
            rows[i] |= bit[j]
            rows[j] |= bit[i]
            self.counter.count += 1
        nbrs = self._nbrs[u]
        k = bisect_left(nbrs, v)
        return k < len(nbrs) and nbrs[k] == v

    def _charge_rows(self, nodes: Sequence[int], rows: int) -> None:
        """Charge and record the undecided pairs with an end among the
        first ``rows`` nodes of the distinct ``nodes``."""
        pos, table, bit = self._pos, self._rows, self._bit
        at = nodes if pos is None else [pos[v] for v in nodes]
        head = sum(bit[i] for i in at[:rows])
        every = head + sum(bit[i] for i in at[rows:])
        # A pair inside the head is undecided in both of its rows.
        twice = 0
        for i in at[:rows]:
            known = table[i]
            twice += 2 * (every & ~known).bit_count() - (head & ~known).bit_count()
            table[i] = known | every
        for i in at[rows:]:
            table[i] |= head
        self.counter.count += twice // 2

    def _charge_masks(self, masks: list[int], last: int) -> None:
        """Charge and record the undecided pairs among the neighbours of
        each node c <= ``last``, where ``masks[c]`` is the bitmask of c's
        neighbour ids, or 0 for a node whose pairs are not asked.  Only for
        a table over all of the graph's nodes."""
        rows = self._rows
        # Row x gains the masks of its neighbours up to ``last``.
        grown = [
            reduce(or_, map(masks.__getitem__, nbrs[: bisect_right(nbrs, last)]), row)
            for row, nbrs in zip(rows, self._nbrs)
        ]
        # Each undecided pair is new in the rows of both its ends.
        self.counter.count += sum((new ^ old).bit_count() for new, old in zip(grown, rows)) // 2
        rows[:] = grown


def asking_each_pair_once(g: Graph, keep: Sequence[int]) -> Graph:
    """``g`` as one solve over ``keep`` should ask it: a view that charges
    each pair of ``keep`` at most once when the subgraph is dense enough
    for its table, else ``g`` itself.

    The test is k^2 <= 8 m_k + 4k for k kept nodes spanning m_k edges.  A
    graph with alpha <= 3 passes it: its complement has no K4, so by Turan
    m_k >= k^2 / 6 - k / 2.  So the table's k^2 bits are O(m_k + k).
    ``keep`` is range(g.n), or the ascending list of the kept ids.  A table
    over all of its graph's nodes is returned as it is, whatever ``keep``,
    so a claw check and the solve after it share one table.
    """
    if isinstance(g, _PairTable) and g._pos is None:
        return g
    k = len(keep)
    if isinstance(keep, range):
        m_k = g.m
    else:
        kept = set(keep)
        m_k = sum(len(kept.intersection(g._nbrs[v])) for v in keep) // 2
    return _PairTable(g, keep) if k * k <= 8 * m_k + 4 * k else g


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
    return _graph_from_lists(nbrs)


def _graph_from_lists(nbrs: list) -> Graph:
    """The Graph of per-node lists of checked, shared ids, sorted in place."""
    for v, s in enumerate(nbrs):
        nbrs[v] = tuple(sorted(set(s)))
    return Graph(nbrs)


def is_clique_or_witness(g: Graph, nodes: Sequence[int]) -> tuple[int, int] | None:
    """Return None if the given nodes are pairwise adjacent, else one
    non-adjacent pair (the first in scan order).

    Costs O(k^2) adjacency queries for k nodes.  Empty and singleton sets
    are cliques vacuously.  Row u, the pairs of u with the nodes after it,
    is decided by one set difference.  The rows before the first that fails
    are charged together, through ``g._charge_rows``: their lengths, or on
    a solve's pair table their pairs not decided before.  The failing row
    is scanned pair by pair, which charges the pairs up to the first
    non-neighbour, exactly as a scan alone would.
    """
    for i, u in enumerate(nodes[:-1]):
        row = nodes[i + 1 :]
        if 0 <= u < g.n and not set(row).difference(g._nbrs[u]):
            continue
        g._charge_rows(nodes, i)
        for v in row:
            if not g.adjacent(u, v):
                return (u, v)
    g._charge_rows(nodes, len(nodes))
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


def total_weight(weights: Sequence[int], nodes: Iterable[int]) -> int:
    return sum(weights[v] for v in nodes)


def check_weights(g: Graph, weights: Sequence[int]) -> None:
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

