"""Unweighted machinery: build a stable set of size min(alpha(G), 4).

The constructions assume a claw-free input graph; they run in O(m) adjacency
queries.  The callers of the set searches prove their preconditions once, and
the checks that only a claw can fail (in ``extend_to_four``,
``mwss_type_cycle6`` and ``mwss_type_iii``) run in every build.  ``python -O``
strips only the uncounted result asserts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .errors import ClawWitnessError
from .graph import Graph, OrderedCliquePrefix, is_clique_or_witness, is_null_to
from .oracles import is_stable_set
from .structure import Classification, classify


@dataclass(frozen=True)
class StableSetReport:
    """A stable set whose size equals min(alpha(G), 4).

    When alpha(G) = 3, ``classification`` is the ``classify`` partition of
    ``nodes`` that ``extend_to_four`` searched: it has no detached node, so
    it covers every node.  Otherwise it is None.  It takes no part in
    equality.
    """

    nodes: tuple[int, ...]
    classification: Classification | None = field(default=None, compare=False, repr=False)

    @property
    def exact_alpha(self) -> int | None:
        """alpha(G) when it is at most 3, else None."""
        return len(self.nodes) if len(self.nodes) < 4 else None


def stable_pair(g: Graph, nodes: Sequence[int]) -> tuple[int, int] | None:
    """A non-adjacent pair of ``nodes``, or None when they form a clique.

    Picks the first node with a non-neighbor among ``nodes`` (read from its
    degree, else from its neighbor set, uncounted) and its first
    non-neighbor there; for ascending ``nodes`` that non-neighbor always
    has the larger id.
    """
    others = len(nodes) - 1
    for v in nodes:
        if len(g.neighbors(v)) < others or len(g.neighbor_set(v).intersection(nodes)) < others:
            for u in nodes:
                if u != v and not g.adjacent(v, u):
                    return (v, u)
    return None


def three_sets_stable(
    g: Graph, xs: Sequence[int], ys: Sequence[int], zs: Sequence[int]
) -> tuple[int, int, int] | None:
    """Stable triple with one node from each of X, Y and the clique Z.

    X, Y, Z must be disjoint local sets with Z a clique, inside a claw-free
    graph; the caller proves the first two (the sets are parts of one
    ``classify`` partition and Z passed ``is_clique_or_witness``).  A pair
    (x, y) of non-adjacent nodes extends into Z exactly when the number of
    clique members their neighborhoods cover leaves a gap; the first such
    pair in scan order wins.  The counts are the popcounts of the probes'
    clique masks, and a gap in the counts forces one in the masks, so
    ``first_free`` always returns the completing node: the one with the
    smallest position in Z.  Only the probes of a non-adjacent pair get a
    mask, so the search asks at most |X| * |Y| pair queries plus p per
    probe it reaches.  Before asking about a pair it adds the popcounts of
    the masks already built, an unbuilt mask counting 0; each is a lower
    bound on the probe's count, so when the sum reaches p the pair leaves
    no gap, adjacent or not, and is skipped unasked.  The pair that wins is
    the same, and no mask is built that the unskipped scan would not build.
    Returns None when no triple exists.
    """
    clique = OrderedCliquePrefix.build(g, zs)
    p = len(zs)
    masks = clique.masks
    for x in xs:
        for y in ys:
            if masks.get(x, 0).bit_count() + masks.get(y, 0).bit_count() >= p or g.adjacent(x, y):
                continue
            if clique.mask(x).bit_count() + clique.mask(y).bit_count() < p:
                return (x, y, clique.first_free(x, y))
    return None


def four_sets_stable(
    g: Graph, xs: Sequence[int], ys: Sequence[int], zs: Sequence[int], ws: Sequence[int]
) -> tuple[int, int, int, int] | None:
    """Stable 4-set with one node from each of X, Y, Z, W.

    Additional preconditions over the triple case: X null to Y and W null
    to the clique Z; ``extend_to_four`` proves them before the call.  For
    each candidate w the sets X, Y shrink to w's non-neighbors, and
    minimizing clique coverage within the restricted sets decides
    extendability; as in ``three_sets_stable`` the coverage counts are mask
    popcounts and ``first_free`` names the gap node.  Masks are built only
    for the members of some w's restricted sets.
    """
    if not xs or not ys or not zs:
        return None
    clique = OrderedCliquePrefix.build(g, zs)
    p = len(zs)

    def covered(u: int) -> int:
        return clique.mask(u).bit_count()

    for w in ws:
        x_free = [x for x in xs if not g.adjacent(x, w)]
        if not x_free:
            continue
        y_free = [y for y in ys if not g.adjacent(y, w)]
        if not y_free:
            continue
        xbar = min(x_free, key=covered)
        ybar = min(y_free, key=covered)
        if covered(xbar) + covered(ybar) < p:
            return (xbar, ybar, clique.first_free(xbar, ybar), w)
    return None


def _grow(g: Graph, cls: Classification) -> tuple[int, ...] | None:
    """A stable set one node larger than ``cls.anchors``, from the first
    rule that gives one: a detached node joins the anchors, or else the
    first non-adjacent pair inside an exclusive set, in anchor order,
    replaces its anchor.  None when neither rule applies."""
    if cls.detached:
        return tuple(sorted((*cls.anchors, cls.detached[0])))
    for v in cls.anchors:
        witness = is_clique_or_witness(g, cls.exclusive_to(v))
        if witness is not None:
            return tuple(sorted((*witness, *(a for a in cls.anchors if a != v))))
    return None


def extend_to_three(g: Graph, cls: Classification) -> tuple[int, int, int] | None:
    """Grow the stable pair ``cls.anchors``, classified by ``cls``, to a
    stable triple, or None when the classified nodes induce alpha 2.

    ``_grow`` reads no node after the first detached one, so ``cls`` may
    stop there.  Check order is fixed for determinism: after ``_grow``'s
    detached-node and exclusive-set rules, a triple must take one node from
    each classification set and the three-set search decides.
    """
    grown = _grow(g, cls)
    if grown is not None:
        return grown
    s, t = cls.anchors
    triple = three_sets_stable(g, cls.shared_by(s, t), cls.exclusive_to(s), cls.exclusive_to(t))
    return None if triple is None else tuple(sorted(triple))


def extend_to_four(g: Graph, cls: Classification) -> tuple[int, int, int, int] | None:
    """Grow the stable triple ``cls.anchors``, classified by ``cls``, to a
    stable 4-set, or None when alpha(G) = 3.

    After ``_grow``'s detached-node and exclusive-set rules, a 4-set (if any)
    alternates with the anchors along a path that contains either two anchors
    (5 nodes) or all three (7 nodes); both shapes reduce to the set searches.
    The 7-node search needs W null to Z and X null to Y, which only
    claw-freeness guarantees; both are checked, each pair of sets once over
    the three middles, and a crossing edge raises ClawWitnessError.
    """
    grown = _grow(g, cls)
    if grown is not None:
        return grown
    s, t, u = cls.anchors
    # Path with two anchors a, b: (x, a, y, b, z).
    for a, b in ((s, t), (s, u), (t, u)):
        triple = three_sets_stable(
            g, cls.exclusive_to(a), cls.shared_by(a, b), cls.exclusive_to(b)
        )
        if triple is not None:
            c = next(x for x in (s, t, u) if x != a and x != b)
            return tuple(sorted((*triple, c)))
    # Path with all three anchors, b in the middle: (x, a, w, b, y, c, z).
    # b = s and b = t both run when the (s, t)-shared set is non-empty.  Then
    # b = t's (ws, zs) check is b = s's, and b = u's two checks are b = s's
    # (xs, ys) with the sets swapped and b = t's (xs, ys): each repeat would
    # ask again a pair of sets already proved null to each other.
    st_checked = bool(cls.shared_by(s, t))
    for b in (s, t, u):
        a, c = (x for x in (s, t, u) if x != b)
        ws = cls.shared_by(a, b)
        if not ws:
            continue
        xs, ys, zs = cls.exclusive_to(a), cls.shared_by(b, c), cls.exclusive_to(c)
        repeat = b == u and st_checked
        crossing = None if b == t or repeat else is_null_to(g, ws, zs)
        if crossing is not None:
            w, z = crossing
            raise ClawWitnessError(w, (a, b, z))
        crossing = None if repeat else is_null_to(g, xs, ys)
        if crossing is not None:
            x, y = crossing
            raise ClawWitnessError(y, (x, b, c))
        quad = four_sets_stable(g, xs, ys, zs, ws)
        if quad is not None:
            return tuple(sorted(quad))
    return None


def stable_set_min_alpha4(g: Graph, nodes: Sequence[int] | None = None) -> StableSetReport:
    """Stable set of size min(alpha, 4) of the claw-free subgraph of g
    induced by ``nodes`` (None: all of g), which must be a sequence of
    strictly ascending ``int`` ids of g, else ValueError.

    The search asks only adjacencies among ``nodes`` and builds no graph.
    Its two ``classify`` passes ask each (node, anchor) adjacency at most
    once: ``classify`` stops at its first detached node, and the triple's
    pass reads each node's answers for the anchors the two share from the
    pair's part that holds it.
    So a node costs at most 3 anchor queries over both passes when the
    triple adds that detached node to the pair, and 4 or 5 when the triple
    keeps one pair anchor or none; a cycle costs the same few queries at
    any length.  Claw-freeness is assumed and only incidentally detected
    (as ClawWitnessError); the triple's pass reports the first node
    adjacent to all three anchors before it asks anything, and
    ``structure.find_claw`` checks claw-freeness up front.
    """
    if nodes is None:
        nodes = range(g.n)
    if not isinstance(nodes, Sequence):
        kind = type(nodes).__name__
        raise ValueError(f"nodes must be a sequence of strictly ascending int ids, got a {kind}")
    # A range is decided by its two ends, so it is checked in O(1).
    prev = -1
    for v in nodes[:: max(len(nodes) - 1, 1)] if isinstance(nodes, range) else nodes:
        if type(v) is not int or not prev < v < g.n:
            raise ValueError(f"nodes must be strictly ascending int ids in range({g.n}), got {v!r}")
        prev = v
    if not nodes:
        return StableSetReport(())
    pair = stable_pair(g, nodes)
    if pair is None:
        return StableSetReport((nodes[0],))
    known = classify(g, nodes, pair)
    triple = extend_to_three(g, known)
    if triple is None:
        report = StableSetReport(tuple(sorted(pair)))
    else:
        cls = classify(g, nodes, triple, known=known)
        quad = extend_to_four(g, cls)
        report = StableSetReport(triple, cls) if quad is None else StableSetReport(quad)
    assert is_stable_set(g, report.nodes), "internal error: result not stable"
    return report
