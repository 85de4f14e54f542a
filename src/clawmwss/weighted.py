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
stable set can take relative to a maximum stable triple and returns the
best candidate overall; the anchor partition comes from the cardinality
phase, so no anchor adjacency is asked twice.

The pair searches are output-sensitive: they walk nodes heaviest first, a
node's best partner is its first non-neighbour, and a search stops once no
candidate left can reach its best weight.  They ask at most the pairs of a
full scan, often far fewer, and return the same answer.

All ties break lexicographically on node tuples so outputs are reproducible.
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

# A search result: (sorted node tuple, total weight).
Found = tuple[tuple[int, ...], int]


class _Best:
    """Running best candidate: higher weight wins, ties go to the
    lexicographically smaller node tuple."""

    __slots__ = ("nodes", "weight")

    def __init__(self) -> None:
        self.nodes: tuple[int, ...] | None = None
        self.weight = 0

    def offer(self, nodes: tuple[int, ...], weight: int) -> None:
        """Compare ``nodes`` as given.  Every caller passes a sorted tuple
        except ``weighted_three_sets``, which breaks ties on (x, y, z)."""
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

    def add(self, found: Found | None) -> None:
        """Offer a search result, with its nodes sorted."""
        if found is not None:
            self.offer(tuple(sorted(found[0])), found[1])

    def result(self) -> Found | None:
        return None if self.nodes is None else (self.nodes, self.weight)


def _by_weight(weights: Sequence[int], nodes: Iterable[int]) -> list[int]:
    """``nodes`` sorted by (-weight, id): heaviest first, ties by id."""
    return sorted(nodes, key=lambda v: (-weights[v], v))


def _offer_pairs(g: Graph, weights: Sequence[int], nodes: Iterable[int], best: _Best) -> None:
    """Offer each node's best non-adjacent partner among ``nodes``.

    Nodes are scanned in (-weight, id) order, and each node asks only the
    partners after it in that order, stopping at the first non-neighbour: no
    later partner is heavier, and among equal weights the smaller id gives
    the smaller sorted pair.  A pair that comes earlier in the order is
    covered by its other node's scan.  A scan, or the whole search, stops
    once the pair weight falls strictly below ``best``, so only candidates
    that cannot win are skipped.  At most C(k, 2) queries for k nodes.
    """
    order = _by_weight(weights, nodes)
    for i, a in enumerate(order):
        wa = weights[a]
        for j in range(i + 1, len(order)):
            b = order[j]
            w = wa + weights[b]
            if best.beats(w):
                if j == i + 1:
                    return  # every later pair is lighter still
                break
            if not g.adjacent(a, b):
                best.offer((a, b) if a < b else (b, a), w)
                break


def weighted_three_sets(
    g: Graph, weights: Sequence[int], xs: Sequence[int], ys: Sequence[int], zs: Sequence[int]
) -> tuple[tuple[int, int, int], int] | None:
    """Maximum-weight stable triple (x, y, z) over X x Y x the clique Z.

    Z is sorted by (-weight, id), so for each non-adjacent probe pair the
    heaviest compatible clique node is ``first_free`` of the pair.  X and Y
    are walked in the same order, and both loops stop once x, y and the
    heaviest clique node weigh strictly less than the best triple, so at
    most |X| * |Y| pairs are asked, plus p queries for the mask of each
    probe of a non-adjacent pair.  Returns the best triple with its
    weight, or None when no stable triple exists.
    The caller proves that X, Y, Z are disjoint parts of one ``classify``
    partition and that Z is a clique (in ``extend_to_four`` or
    ``mwss_type_cycle6``).
    """
    if not xs or not ys or not zs:
        return None
    order = _by_weight(weights, zs)
    clique = OrderedCliquePrefix.build(g, order)
    top_z = weights[order[0]]
    ys = _by_weight(weights, ys)
    best = _Best()
    for x in _by_weight(weights, xs):
        wx = weights[x]
        for y in ys:
            if best.beats(wx + weights[y] + top_z):
                if y == ys[0]:
                    return best.result()  # every later x is lighter still
                break
            if g.adjacent(x, y):
                continue
            z = clique.first_free(x, y)
            if z is not None:
                best.offer((x, y, z), wx + weights[y] + weights[z])
    return best.result()


def mwss_small(g: Graph, weights: Sequence[int], pool: Iterable[int]) -> Found | None:
    """Best stable set of size 1 or 2 inside the pool.

    None when the pool is empty.  At most C(k, 2) adjacency queries for k
    pool nodes: each node stops at its first non-neighbour (see
    ``_offer_pairs``).  Node counts are O(sqrt(m)) whenever alpha <= 3.
    """
    nodes = list(pool)
    best = _Best()
    for v in nodes:
        best.offer((v,), weights[v])
    _offer_pairs(g, weights, nodes, best)
    return best.result()


def mwss_intersecting(g: Graph, weights: Sequence[int], cls: Classification) -> Found | None:
    """Best stable set meeting the stable triple T of ``cls``.

    For each anchor v the remaining members must be non-neighbors of v, so
    v plus the best small stable set among them covers every stable set
    containing v (other anchors stay in the pool: sets with two or three
    anchors surface in several iterations, which is harmless).  The pool is
    read from the classification, which already asked every anchor
    adjacency: the other two anchors, their exclusive sets and their shared
    set.  T is not rechecked: ``stable_set_min_alpha4`` builds it stable and
    asserts so.
    """
    best = _Best()
    for v in cls.anchors:
        b, c = (a for a in cls.anchors if a != v)
        pool = sorted((b, c, *cls.exclusive_to(b), *cls.exclusive_to(c), *cls.shared_by(b, c)))
        best.offer((v,), weights[v])
        sub = mwss_small(g, weights, pool)
        if sub is not None:
            best.add(((v,) + sub[0], weights[v] + sub[1]))
    return best.result()


def mwss_type_path6(g: Graph, weights: Sequence[int], cls: Classification) -> Found | None:
    """Best stable triple alternating with the anchors along a 6-node path.

    The path (a, x, b, y, c, z) forces x into the (a,b)-shared set, y into
    the (b,c)-shared set and z into the exclusive set of c; all six anchor
    orders are tried.
    """
    best = _Best()
    for a, b, c in permutations(cls.anchors):
        best.add(
            weighted_three_sets(
                g, weights, cls.shared_by(a, b), cls.shared_by(b, c), cls.exclusive_to(c)
            )
        )
    return best.result()


def mwss_type_cycle6(g: Graph, weights: Sequence[int], cls: Classification) -> Found | None:
    """Best stable triple alternating with the anchors along a 6-cycle.

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

    best = _Best()
    for xs, ys, zs in searches:
        best.add(weighted_three_sets(g, weights, xs, ys, zs))
    return best.result()


def mwss_type_iii(g: Graph, weights: Sequence[int], cls: Classification) -> Found | None:
    """Best stable triple whose anchor alternation includes a 2-node path.

    The lone anchor a contributes a node from its exclusive set; the other
    two anchors b, c sit on either two short paths, one 4-node path, or a
    4-cycle.  The first two shapes reduce to the triple search; in the
    4-cycle shape the exclusive set of a has no edges to the (b,c)-shared
    set, so the heaviest node and the heaviest non-adjacent pair combine
    freely.
    """
    best = _Best()
    for a in cls.anchors:
        b, c = (x for x in cls.anchors if x != a)
        f_a = cls.exclusive_to(a)
        shared_bc = cls.shared_by(b, c)
        best.add(
            weighted_three_sets(g, weights, cls.exclusive_to(b), cls.exclusive_to(c), f_a)
        )
        best.add(weighted_three_sets(g, weights, shared_bc, cls.exclusive_to(c), f_a))
        best.add(weighted_three_sets(g, weights, shared_bc, cls.exclusive_to(b), f_a))
        if f_a and len(shared_bc) >= 2:
            crossing = is_null_to(g, f_a, shared_bc)
            if crossing is not None:
                raise ClawWitnessError(crossing[1], (crossing[0], b, c))
            z = min(f_a, key=lambda node: (-weights[node], node))
            pair = _Best()
            _offer_pairs(g, weights, shared_bc, pair)
            if pair.nodes is not None:
                best.add((pair.nodes + (z,), pair.weight + weights[z]))
    return best.result()


def mwss_alpha3(g: Graph, weights: Sequence[int]) -> SolveOutcome:
    """Solve the maximum-weight stable set problem when alpha(G) <= 3.

    Negative-weight nodes never help, so both phases search the subgraph
    induced by the non-negative nodes in place: the cardinality phase
    either certifies alpha >= 4 there with a witness or pins alpha, and the
    weighted phase takes the best candidate over: stable sets meeting a
    maximum stable triple, the three disjoint-triple shapes, all small
    stable sets, and the empty set.  No graph is built and every node id,
    in the outcome and in a ClawWitnessError, is an id of g.

    Raises ValueError unless ``weights`` holds one ``int`` (not a ``bool``)
    per node, each of magnitude at most 2^61.
    """
    check_weights(g, weights)
    keep = [v for v in range(g.n) if weights[v] >= 0]
    report = stable_set_min_alpha4(g, keep)
    if report.alpha_at_least_4:
        return AlphaAtLeast4(report.nodes)

    best = _Best()
    best.offer((), 0)
    best.add(mwss_small(g, weights, keep))
    if report.exact_alpha == 3:
        cls = report.classification
        assert not cls.detached, "alpha = 3 leaves no detached nodes"
        for found in (
            mwss_intersecting(g, weights, cls),
            mwss_type_path6(g, weights, cls),
            mwss_type_cycle6(g, weights, cls),
            mwss_type_iii(g, weights, cls),
        ):
            best.add(found)

    assert is_stable_set(g, best.nodes), "internal error: result not stable"
    assert total_weight(weights, best.nodes) == best.weight, "internal error: weight mismatch"
    return Optimal(nodes=best.nodes, weight=best.weight, dropped_negative=g.n - len(keep))
