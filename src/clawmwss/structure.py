"""Claw detection and the anchor classification used by both solvers.

Given a stable set T of size 2 or 3 (the "anchors"), every remaining node is
adjacent to none, exactly one, or exactly two of them; a node adjacent to all
three anchors would be the center of a claw.  The resulting partition is the
structural input of the stable-set constructions.

``find_claw`` is the full claw-freeness check behind ``solve --validate`` and
``check``, with the witness fixed by scan order (center ascending, then the
lexicographically smallest leaf triple), where the scan stops.  On a graph
dense enough for ``graph.asking_each_pair_once``'s pair table (every graph
with alpha <= 3) it charges each neighbour pair of a center of degree >= 3
once, at most C(n, 2) in all, and decides the pairs on neighbour bitmasks;
the two commands pass that table on to the solve, so the solve charges no
pair the check decided.  On a sparser graph it charges sum C(deg, 2) over
the centers of degree >= 3, decided on a snapshot of neighbor sets.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ClawWitnessError
from .graph import Graph, _PairTable, asking_each_pair_once


@dataclass(frozen=True)
class Claw:
    """An induced claw: center adjacent to three pairwise non-adjacent leaves."""

    center: int
    leaves: tuple[int, int, int]


@dataclass(frozen=True)
class Classification:
    """Partition of the nodes outside the anchor set T.

    parts[key]  the nodes adjacent to exactly the anchors in ``key``, in
                scan order; the keys are the sorted anchor tuples of size
                < 3: () detached, (v,) exclusive to v, (u, v) shared
    """

    anchors: tuple[int, ...]
    parts: dict[tuple[int, ...], tuple[int, ...]]

    @property
    def detached(self) -> tuple[int, ...]:
        return self.parts[()]

    def exclusive_to(self, v: int) -> tuple[int, ...]:
        return self.parts[(v,)]

    def shared_by(self, u: int, v: int) -> tuple[int, ...]:
        return self.parts[(u, v) if u < v else (v, u)]


def classify(
    g: Graph,
    nodes: Sequence[int],
    anchors: Iterable[int],
    *,
    known: Classification | None = None,
) -> Classification:
    """Classify ``nodes`` minus T by adjacency to each anchor of the stable
    set T, which lies inside ``nodes``, up to the first node adjacent to no
    anchor.

    One pass over ``nodes`` in the given order, so each part keeps that
    order, at most |T| adjacency queries per node.  The pass returns at its
    first detached node, the only one the cardinality phase reads, so the
    partition covers only the nodes up to it (all of them when there is
    none).  T must be a stable set of 2 or 3 nodes and is not rechecked:
    the cardinality phase builds every anchor set from strictly ascending
    ids and stable (``stable_set_min_alpha4`` asserts its result).  For
    |T| = 3 raises ClawWitnessError, before it asks anything, if some node
    is adjacent to all three anchors: the first such node of ``nodes``,
    found in the intersection of the anchors' stored neighbor tuples, is
    the center of a claw whose leaves are T.  That read is uncounted, like
    ``stable_pair``'s: it only names a claw, and on the claw-free input the
    solvers assume it finds none.  It takes O(deg) time, plus a scan of
    ``nodes`` when the anchors share a neighbor.

    ``known`` is an earlier partition in the same graph: a node it filed
    reads its adjacency to the anchors of both partitions from its part's
    key there, so a node costs a query only per anchor it cannot answer.
    """
    t = tuple(sorted(anchors))
    t_members = set(t)
    if len(t) == 3:
        a, b, c = map(g.neighbors, t)
        centers = set(a).intersection(b, c)
        center = next((x for x in nodes if x in centers), None) if centers else None
        if center is not None:
            raise ClawWitnessError(center, t)
    parts: dict[tuple[int, ...], list[int]] = {
        key: [] for r in range(3) for key in combinations(t, r)
    }
    if known is None:
        answers, reused = {}, set()
    else:
        answers = {x: key for key, part in known.parts.items() for x in part}
        reused = t_members.intersection(known.anchors)
    for x in nodes:
        if x in t_members:
            continue
        old = answers.get(x)
        key = tuple(
            a for a in t if (a in old if old is not None and a in reused else g.adjacent(x, a))
        )
        parts[key].append(x)
        if not key:
            break

    return Classification(anchors=t, parts={key: tuple(part) for key, part in parts.items()})


def find_claw(g: Graph) -> Claw | None:
    """Find an induced claw, or None if the graph is claw-free.

    The witness is the first claw in scan order, center ascending, then
    the lexicographically smallest leaf triple, and the scan stops there.
    This is a validation routine, not part of the solve path.

    The graph is read through ``asking_each_pair_once(g, range(g.n))``.
    When that is a pair table (every alpha <= 3 graph gets one), the pairs
    are decided on bitmasks of neighbour ids, read free from the store,
    and then the table charges and records each neighbour pair of each
    center of degree >= 3, up to and including the claw's center, that it
    has not decided before.  So a claw-free graph costs at most C(n, 2)
    queries in all, and pairs that an earlier stage on the same table
    decided cost none.

    Otherwise the graph is too sparse for the table, and each center of
    degree d >= 3 charges C(d, 2) up front and decides each pair by
    membership in a snapshot of neighbor sets taken at the start.  Row i,
    built the first time the scan needs it, is the bitmask of the positions
    j > i in ``g.neighbors(c)`` not adjacent to position i; for a
    non-adjacent pair (i, j) the third leaf is then the lowest set bit of
    ``row i & row j``.
    """
    view = asking_each_pair_once(g, range(g.n))
    if isinstance(view, _PairTable):
        return _claw_on_masks(view)
    # Presized set copies, as the solve's bisecting oracle would pay O(log d)
    # on each of the sum C(d, 2) pairs.  A pair is tested from its lower id,
    # so each node keeps only its neighbors above it: half the copies' size.
    # Nodes with none share one empty set.
    empty: frozenset[int] = frozenset()
    above = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        higher = nbrs[bisect_right(nbrs, v) :]
        above.append(frozenset(set(higher)) if higher else empty)
    counter = g.counter
    for center in range(g.n):
        nbrs = g.neighbors(center)
        d = len(nbrs)
        if d < 3:
            continue
        counter.count += d * (d - 1) // 2
        rows: list[int | None] = [None] * d

        def row(i: int) -> int:
            bits = 0
            near = above[nbrs[i]]
            for j in range(i + 1, d):
                if nbrs[j] not in near:
                    bits |= 1 << j
            rows[i] = bits
            return bits

        for i in range(d - 2):
            later = rows[i]
            if later is None:
                later = row(i)
            while later:
                low = later & -later
                j = low.bit_length() - 1
                common = rows[j]
                if common is None:
                    common = row(j)
                common &= later
                if common:
                    k = (common & -common).bit_length() - 1
                    return Claw(center, (nbrs[i], nbrs[j], nbrs[k]))
                later ^= low
    return None


def _claw_on_masks(t: _PairTable) -> Claw | None:
    """``find_claw`` on a pair table over all of the graph's nodes: the
    scan first, then the charge of every center up to the claw's."""
    store, bit = t._nbrs, t._bit
    full = (1 << t.n) - 1
    # wide[c]: c's neighbour bitmask, or 0 when c has degree < 3 and so
    # is no center; far[v]: the nodes neither v nor adjacent to v.
    wide, far = [], []
    for v, nbrs in enumerate(store):
        nb = sum(map(bit.__getitem__, nbrs))
        wide.append(nb if len(nbrs) >= 3 else 0)
        far.append(full ^ nb ^ bit[v])
    claw = _first_claw_on_masks(store, wide, far)
    t._charge_masks(wide, t.n if claw is None else claw.center)
    return claw


def _first_claw_on_masks(
    store: list[tuple[int, ...]], wide: list[int], far: list[int]
) -> Claw | None:
    """The first claw in scan order, on ``_claw_on_masks``'s bitmasks.

    At center c, for each leaf x ascending, Q = N(c) & far[x] holds the
    other two leaves of a claw iff it is not a clique.  Only Q's nodes
    outside the last Q verified a clique at c are verified, each against
    all of Q, so a Q inside that clique is skipped.
    """
    for center, head in enumerate(wide):
        rest = head
        for x in store[center]:
            fresh = rest & far[x]
            if not fresh:
                continue
            q = head & far[x]
            while fresh:
                low = fresh & -fresh
                if q & far[low.bit_length() - 1]:
                    return _first_claw_at(center, x, q, far)
                fresh ^= low
            rest = head & ~q
    return None


def _first_claw_at(center: int, x: int, q: int, far: list[int]) -> Claw | None:
    """The least claw at ``center`` with least leaf ``x``, given that Q =
    ``q`` is not a clique and no earlier leaf has a claw, so Q's
    non-adjacent pairs lie above x: y ascending in Q above x, and z the
    lowest node of Q above y not adjacent to y."""
    ys = q & -(2 << x)
    while ys:
        low = ys & -ys
        zs = q & far[low.bit_length() - 1] & -(low << 1)
        if zs:
            return Claw(center, (x, low.bit_length() - 1, (zs & -zs).bit_length() - 1))
        ys ^= low
    return None
