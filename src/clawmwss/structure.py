"""Claw detection and the anchor classification used by both solvers.

Given a stable set T of size 2 or 3 (the "anchors"), every remaining node is
adjacent to none, exactly one, or exactly two of them; a node adjacent to all
three anchors would be the center of a claw.  The resulting partition is the
structural input of the stable-set constructions.

``find_claw`` is the full claw-freeness check behind ``solve --validate`` and
``check``: O(sum deg^2) adjacency queries, exactly sum C(deg, 2) over nodes of
degree >= 3 on a claw-free graph, charged per center and decided on a snapshot
of neighbor sets, with the witness fixed by scan order (center ascending, then
the lexicographically smallest leaf triple), where the scan stops.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import ClawWitnessError
from .graph import Graph


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

    For each center c of degree d >= 3, charges ``g.counter`` the C(d, 2)
    neighbor pairs up front and decides each pair by membership in a
    snapshot of neighbor sets taken at the start.  Row i, built the first
    time the scan needs it, is the bitmask of the positions j > i in
    ``g.neighbors(c)`` not adjacent to position i; for a non-adjacent pair
    (i, j) the third leaf is then the lowest set bit of ``row i & row j``.
    A claw-free graph costs exactly sum C(d, 2) queries over centers of
    degree >= 3, as many as asking each pair through ``g.adjacent``, i.e.
    O(sum deg^2); this is a validation routine, not part of the solve path.

    The witness is the first claw in scan order, center ascending, then
    the lexicographically smallest leaf triple, and the scan stops there.
    """
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
