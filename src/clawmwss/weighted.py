"""Weighted machinery: maximum-weight stable set when alpha(G) <= 3.

The core subroutine finds the best stable triple across two probe sets and a
clique.  The clique is ordered by non-increasing weight and each probe keeps
one adjacency bitmask over that order, so the heaviest clique node
compatible with a probe pair is the lowest zero bit of the OR of their
masks.  The paper finds it by binary search over prefix neighbor counts,
which claw-freeness makes monotone: O(log p) steps per pair for a p-node
clique.  The lowest zero bit costs O(p/30) big-int digit operations per pair
instead.  A probe's mask is built the first time a pair needs it, at the p
queries of its prefix counts, so probes the search never reaches cost
nothing, and the answer stays exact when a claw breaks the monotone
predicate.  The top-level solver enumerates the handful of shapes a size-3
stable set can take relative to a maximum stable triple; the anchor
partition comes from the cardinality phase.  The solve runs on
``graph.asking_each_pair_once``'s view, so no pair is charged twice,
whichever stage decided it first.

The solve keeps one running best, a ``_Best``, and every search offers its
candidates into it and returns None.  The searches are output-sensitive:
they walk nodes heaviest first, a node's best partner is its first
non-neighbour, and a search stops once no candidate left can reach the
best found so far by any search of the solve.  They ask at most the pairs
of a full scan, often far fewer.

All ties go to the smaller sorted node tuple, so outputs are reproducible.
Pruning skips only candidates strictly lighter than the running best, so
the optimum is the least (-weight, sorted tuple) over all candidates,
whatever the order of the searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Sequence

from .cardinality import stable_set_min_alpha4
from .errors import ClawWitnessError
from .graph import (
    Graph,
    OrderedCliquePrefix,
    asking_each_pair_once,
    check_weights,
    is_clique_or_witness,
    is_null_to,
    total_weight,
)
from .oracles import is_stable_set
from .structure import Classification


@dataclass(frozen=True)
class AlphaAtLeast4:
    """Outcome: the graph has a stable set of size 4, search stopped."""

    witness: tuple[int, int, int, int]


@dataclass(frozen=True)
class Optimal:
    """Outcome: a maximum-weight stable set with its total weight."""

    nodes: tuple[int, ...]
    weight: int
    dropped_negative: int = 0


SolveOutcome = AlphaAtLeast4 | Optimal


class _Best:
    """Running best candidate of a solve: higher weight wins, ties go to the
    lexicographically smaller node tuple."""

    __slots__ = ("nodes", "weight")

    def __init__(self) -> None:
        self.nodes: tuple[int, ...] | None = None
        self.weight = 0

    def offer(self, nodes: tuple[int, ...], weight: int) -> None:
        """Compare ``nodes`` as given; every caller passes a sorted tuple."""
        if (
            self.nodes is None
            or weight > self.weight
            or (weight == self.weight and nodes < self.nodes)
        ):
            self.nodes = nodes
            self.weight = weight

    def beats(self, weight: int) -> bool:
        """True when the best so far is strictly heavier than ``weight``, so
        no candidate of that weight can win, not even on a tie."""
        return self.nodes is not None and weight < self.weight


def _by_weight(weights: Sequence[int], nodes: Iterable[int]) -> list[int]:
    """``nodes`` sorted by (-weight, id): heaviest first, ties by id."""
    return sorted(nodes, key=lambda v: (-weights[v], v))


def _offer_pairs(
    g: Graph, weights: Sequence[int], nodes: Iterable[int], best: _Best, extra: tuple[int, ...] = ()
) -> None:
    """Offer each node's best non-adjacent partner among ``nodes``, joined
    by ``extra``.

    A pair {a, b} is offered as ``tuple(sorted((a, b, *extra)))`` at its
    weight plus the weight of ``extra``, whose nodes the caller proves
    non-adjacent to each other and to every node of ``nodes``.  Nodes are
    scanned in (-weight, id) order, and each node asks only the partners
    after it in that order, stopping at the first non-neighbour: no later
    partner is heavier, and among equal weights the smaller id gives the
    smaller sorted set, also with ``extra`` added (of two equal-size sorted
    sets, the one holding the least element of their symmetric difference is
    smaller).  A pair that comes earlier in the order is covered by its other
    node's scan.  A scan, or the whole search, stops once the weight falls
    strictly below ``best``, so only candidates that cannot win are skipped.
    At most C(k, 2) queries for k nodes.
    """
    order = _by_weight(weights, nodes)
    w_extra = total_weight(weights, extra)
    for i, a in enumerate(order):
        wa = weights[a] + w_extra
        for j in range(i + 1, len(order)):
            b = order[j]
            w = wa + weights[b]
            if best.beats(w):
                if j == i + 1:
                    return  # every later pair is lighter still
                break
            if not g.adjacent(a, b):
                best.offer(tuple(sorted((a, b, *extra))), w)
                break


def weighted_three_sets(
    g: Graph,
    weights: Sequence[int],
    xs: Sequence[int],
    ys: Sequence[int],
    zs: Sequence[int],
    best: _Best,
) -> None:
    """Offer the maximum-weight stable triple over X x Y x the clique Z,
    sorted, into ``best``; triples strictly lighter than ``best`` may be
    skipped.

    Z is sorted by (-weight, id), so for each non-adjacent probe pair the
    heaviest compatible clique node is ``first_free`` of the pair.  X and Y
    are walked in the same order, and both loops stop once x, y and the
    heaviest clique node weigh strictly less than ``best``, so at most
    |X| * |Y| pairs are asked, plus p queries for the mask of each probe of
    a non-adjacent pair.  Ties go to the smaller sorted triple, whatever the
    roles: the loops reach its pair, and a free clique node before its z
    would give a smaller sorted triple as heavy.  The caller proves that X,
    Y, Z are disjoint parts of one ``classify`` partition and that Z is a
    clique (in ``extend_to_four`` or ``mwss_type_cycle6``).
    """
    if not xs or not ys or not zs:
        return
    order = _by_weight(weights, zs)
    clique = OrderedCliquePrefix.build(g, order)
    top_z = weights[order[0]]
    ys = _by_weight(weights, ys)
    for x in _by_weight(weights, xs):
        wx = weights[x]
        for y in ys:
            if best.beats(wx + weights[y] + top_z):
                if y == ys[0]:
                    return  # every later x is lighter still
                break
            if g.adjacent(x, y):
                continue
            z = clique.first_free(x, y)
            if z is not None:
                best.offer(tuple(sorted((x, y, z))), wx + weights[y] + weights[z])


def mwss_small(g: Graph, weights: Sequence[int], pool: Sequence[int], best: _Best) -> None:
    """Offer the best stable sets of size 1 and 2 inside the pool.

    At most C(k, 2) adjacency queries for k pool nodes: each node stops at
    its first non-neighbour (see ``_offer_pairs``).  Node counts are
    O(sqrt(m)) whenever alpha <= 3.
    """
    for v in pool:
        best.offer((v,), weights[v])
    _offer_pairs(g, weights, pool, best)


def mwss_intersecting(g: Graph, weights: Sequence[int], cls: Classification, best: _Best) -> None:
    """Offer the best stable triples meeting the stable triple T of ``cls``.

    For each anchor v the other two members must be non-neighbors of v, so
    v joined to each pool node's best non-adjacent partner covers every
    stable triple containing v (other anchors stay in the pool: triples
    with two or three anchors surface in several iterations, which is
    harmless).  Singles and pairs through v are not offered: ``mwss_small``
    offers the best of those over all kept nodes.  The pool is read from the
    classification, which already asked every anchor adjacency: the other
    two anchors, their exclusive sets and their shared set.  T is not
    rechecked: ``stable_set_min_alpha4`` builds it stable and asserts so.
    """
    for v in cls.anchors:
        b, c = (a for a in cls.anchors if a != v)
        pool = (b, c, *cls.exclusive_to(b), *cls.exclusive_to(c), *cls.shared_by(b, c))
        _offer_pairs(g, weights, pool, best, (v,))


def mwss_type_path6(g: Graph, weights: Sequence[int], cls: Classification, best: _Best) -> None:
    """Offer the best stable triple alternating with the anchors along a
    6-node path.

    The path (a, x, b, y, c, z) forces x into the (a,b)-shared set, y into
    the (b,c)-shared set and z into the exclusive set of c; all six anchor
    orders are tried.
    """
    for a, b, c in permutations(cls.anchors):
        weighted_three_sets(
            g, weights, cls.shared_by(a, b), cls.shared_by(b, c), cls.exclusive_to(c), best
        )


def mwss_type_cycle6(g: Graph, weights: Sequence[int], cls: Classification, best: _Best) -> None:
    """Offer the best stable triple alternating with the anchors along a
    6-cycle.

    The triple takes one node from each shared set.  When the (t,u)-shared
    set is a clique one search suffices; otherwise a non-adjacent pair in it
    splits the (s,u)-shared set into two cliques by claw-freeness, and one
    search per clique covers all completions.  A split failure certifies a
    claw in the input.
    """
    s, t, u = cls.anchors
    x_side = cls.shared_by(s, t)
    y_mid = cls.shared_by(t, u)
    z_side = cls.shared_by(s, u)

    witness = is_clique_or_witness(g, y_mid)
    if witness is None:
        searches = [(x_side, z_side, y_mid)]
    else:
        v, v_prime = witness
        half1: list[int] = []
        half2: list[int] = []
        for q in z_side:
            hit1 = g.adjacent(q, v)
            hit2 = g.adjacent(q, v_prime)
            if hit1 and hit2:
                raise ClawWitnessError(q, (s, v, v_prime))
            if not hit1 and not hit2:
                raise ClawWitnessError(u, (q, v, v_prime))
            (half1 if hit1 else half2).append(q)
        bad = is_clique_or_witness(g, half1)
        if bad is not None:
            raise ClawWitnessError(u, (bad[0], bad[1], v_prime))
        bad = is_clique_or_witness(g, half2)
        if bad is not None:
            raise ClawWitnessError(u, (bad[0], bad[1], v))
        searches = [(x_side, y_mid, half1), (x_side, y_mid, half2)]

    for xs, ys, zs in searches:
        weighted_three_sets(g, weights, xs, ys, zs, best)


def mwss_type_iii(g: Graph, weights: Sequence[int], cls: Classification, best: _Best) -> None:
    """Offer the best stable triple whose anchor alternation includes a
    2-node path.

    The lone anchor a contributes a node from its exclusive set; the other
    two anchors b, c sit on either two short paths, one 4-node path, or a
    4-cycle.  The first two shapes reduce to the triple search; in the
    4-cycle shape the exclusive set of a has no edges to the (b,c)-shared
    set, so its heaviest node joins each non-adjacent pair of that set.
    The two short paths take one node from each exclusive set, so one
    search serves every lone anchor: ``weighted_three_sets`` ignores roles.
    """
    s, t, u = cls.anchors
    weighted_three_sets(g, weights, *(cls.exclusive_to(a) for a in (t, u, s)), best)
    for a, b, c in ((s, t, u), (t, s, u), (u, s, t)):
        f_a = cls.exclusive_to(a)
        shared_bc = cls.shared_by(b, c)
        weighted_three_sets(g, weights, shared_bc, cls.exclusive_to(c), f_a, best)
        weighted_three_sets(g, weights, shared_bc, cls.exclusive_to(b), f_a, best)
        if f_a and len(shared_bc) >= 2:
            crossing = is_null_to(g, f_a, shared_bc)
            if crossing is not None:
                raise ClawWitnessError(crossing[1], (crossing[0], b, c))
            z = min(f_a, key=lambda node: (-weights[node], node))
            _offer_pairs(g, weights, shared_bc, best, (z,))


def mwss_alpha3(g: Graph, weights: Sequence[int]) -> SolveOutcome:
    """Solve the maximum-weight stable set problem when alpha(G) <= 3.

    Negative-weight nodes never help, so both phases search the subgraph
    induced by the non-negative nodes in place (all of ``range(g.n)`` when
    no weight is negative): the cardinality phase
    either certifies alpha >= 4 there with a witness or pins alpha, and the
    weighted phase offers into one running best: the empty set, all small
    stable sets, stable sets meeting a maximum stable triple, and the three
    disjoint-triple shapes.  No graph is built and every node id,
    in the outcome and in a ClawWitnessError, is an id of g.  Both phases
    charge g's counter each pair at most once whenever the kept nodes
    could have alpha <= 3 (see ``graph.asking_each_pair_once``).

    Raises ValueError unless ``weights`` holds one ``int`` (not a ``bool``)
    per node, each of magnitude at most 2^61.
    """
    check_weights(g, weights)
    if min(weights, default=0) >= 0:
        keep: Sequence[int] = range(g.n)
    else:
        keep = [v for v in range(g.n) if weights[v] >= 0]
    g = asking_each_pair_once(g, keep)
    report = stable_set_min_alpha4(g, keep)
    if report.exact_alpha is None:
        return AlphaAtLeast4(report.nodes)

    best = _Best()
    best.offer((), 0)
    mwss_small(g, weights, keep, best)
    if report.exact_alpha == 3:
        cls = report.classification
        assert not cls.detached, "alpha = 3 leaves no detached nodes"
        mwss_intersecting(g, weights, cls, best)
        mwss_type_path6(g, weights, cls, best)
        mwss_type_cycle6(g, weights, cls, best)
        mwss_type_iii(g, weights, cls, best)

    assert is_stable_set(g, best.nodes), "internal error: result not stable"
    assert total_weight(weights, best.nodes) == best.weight, "internal error: weight mismatch"
    return Optimal(nodes=best.nodes, weight=best.weight, dropped_negative=g.n - len(keep))
