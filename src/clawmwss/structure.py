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
from typing import Iterable, Iterator, Sequence

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

    exclusive[v]  nodes adjacent to anchor v and to no other anchor
    shared[(u,v)] nodes adjacent to exactly the anchor pair u, v (u < v)
    detached      nodes adjacent to no anchor
    """

    anchors: tuple[int, ...]
    exclusive: dict[int, tuple[int, ...]]
    shared: dict[tuple[int, int], tuple[int, ...]]
    detached: tuple[int, ...]

    def exclusive_to(self, v: int) -> tuple[int, ...]:
        return self.exclusive[v]

    def shared_by(self, u: int, v: int) -> tuple[int, ...]:
        return self.shared[(u, v) if u < v else (v, u)]


def classify(
    g: Graph,
    nodes: Sequence[int],
    anchors: Iterable[int],
    *,
    known: Classification | None = None,
    stop_at_detached: bool = False,
) -> Classification:
    """Classify ``nodes`` minus T by adjacency to each anchor of the stable
    set T, which lies inside ``nodes``.

    One pass over ``nodes`` in the given order, so each part keeps that
    order, at most |T| adjacency queries per node.  T must be
    stable and is not rechecked: the cardinality phase builds every anchor
    set stable (``stable_set_min_alpha4`` asserts its result).  For |T| = 3
    raises ClawWitnessError if some node is adjacent to all three anchors
    (that node is the center of a claw whose leaves are T).

    ``known`` is an earlier partition of the same ``nodes``, in the same
    order: a node's adjacency to an anchor of both partitions is read from
    it when it covers that node, so a node costs a query only per anchor it
    cannot answer.  With ``stop_at_detached`` the pass returns at its first
    detached node, and the partition covers only the nodes up to it.  For
    |T| = 3 it first raises the claw that the full pass would: the first
    node of ``nodes`` adjacent to all three anchors, found in the
    intersection of their stored neighbor tuples.  That read is uncounted,
    like ``stable_pair``'s: it only names a claw, and on the claw-free
    input the solvers assume it finds none.  It takes O(deg) time, plus a
    scan of ``nodes`` when the anchors share a neighbor.
    """
    t = tuple(sorted(anchors))
    t_members = set(t)
    if len(t_members) != len(t):
        raise ValueError(f"duplicate anchor in {list(t)}")
    if len(t) not in (2, 3):
        raise ValueError(f"anchor set must have size 2 or 3, got {len(t)}")

    exclusive: dict[int, list[int]] = {v: [] for v in t}
    shared: dict[tuple[int, int], list[int]] = {
        pair: [] for pair in combinations(t, 2)
    }
    detached: list[int] = []
    if stop_at_detached and len(t) == 3:
        a, b, c = map(g.neighbors, t)
        centers = set(a).intersection(b, c)
        center = next((x for x in nodes if x in centers), None) if centers else None
        if center is not None:
            raise ClawWitnessError(center, t)
    # Each part of ``known`` keeps node order, as this pass does, so the
    # parts are read in step with it: ``heads`` maps the next unread node
    # of each part to the part's anchor hits and its unread rest.
    heads: dict[int, tuple[tuple[int, ...], Iterator[int]]] = {}
    reused = set() if known is None else t_members.intersection(known.anchors)
    if reused:
        for hits, part in (
            *(((v,), part) for v, part in known.exclusive.items()),
            *known.shared.items(),
            ((), known.detached),
        ):
            _advance(heads, hits, iter(part))
    for x in nodes:
        entry = heads.pop(x, None) if heads else None
        if entry is not None:
            _advance(heads, *entry)
        if x in t_members:
            continue
        if entry is None:
            hits = tuple(a for a in t if g.adjacent(x, a))
        else:
            seen = entry[0]
            hits = tuple(
                a for a in t if (a in seen if a in reused else g.adjacent(x, a))
            )
        if len(hits) == 0:
            detached.append(x)
            if stop_at_detached:
                break
        elif len(hits) == 1:
            exclusive[hits[0]].append(x)
        elif len(hits) == 2:
            shared[hits].append(x)
        else:
            raise ClawWitnessError(x, t)

    return Classification(
        anchors=t,
        exclusive={v: tuple(nodes) for v, nodes in exclusive.items()},
        shared={pair: tuple(nodes) for pair, nodes in shared.items()},
        detached=tuple(detached),
    )


def _advance(
    heads: dict[int, tuple[tuple[int, ...], Iterator[int]]],
    hits: tuple[int, ...],
    rest: Iterator[int],
) -> None:
    """File the part ``rest`` under its next node in ``heads``, if it has one."""
    head = next(rest, None)
    if head is not None:
        heads[head] = (hits, rest)


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
    above = []
    for v in range(g.n):
        nbrs = g.neighbors(v)
        above.append(frozenset(set(nbrs[bisect_right(nbrs, v) :])))
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
