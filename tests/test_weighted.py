import itertools
import tracemalloc

import pytest

from clawmwss import (
    AlphaAtLeast4,
    ClawWitnessError,
    Optimal,
    build_graph,
    generate,
    mwss_alpha3,
    stable_set_min_alpha4,
)
from clawmwss import cardinality, graph, weighted
from clawmwss.gen import GenSpec, SplitMix64, sample_spec
from clawmwss.graph import Graph, induced_subgraph
from clawmwss.oracles import (
    brute_alpha_min4,
    brute_mwss,
    is_stable_set,
)
from clawmwss.structure import classify
from clawmwss.weighted import (
    OrderedCliquePrefix,
    _Best,
    _offer_pairs,
    mwss_intersecting,
    mwss_small,
    mwss_type_cycle6,
    mwss_type_iii,
    mwss_type_path6,
    weighted_three_sets,
)

from helpers import (
    alpha3_instances,
    bench_instances,
    complete,
    cycle,
    cycle_power,
    first_claw,
    prefix_rows,
    random_clawfree,
    random_graph,
    with_lightest_negative,
)
from test_result_lines import _corpus


def _search(search, g, weights, *parts, **options):
    """Run one weighted search into a fresh running best: the best
    (nodes, weight) it offered, or None."""
    best = _Best()
    search(g, weights, *parts, best, **options)
    return None if best.nodes is None else (best.nodes, best.weight)


def _greedy_clique(g, start):
    members = [start]
    for v in range(g.n):
        if v != start and all(v in g.neighbor_set(u) for u in members):
            members.append(v)
    return sorted(members)


def test_clique_masks_match_neighbor_sets():
    # Any graph, claw or not: the masks mirror adjacency bit by bit, and
    # first_free is the first clique node in order adjacent to neither probe.
    rng = SplitMix64(60)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 18), rng.randint(10, 90))
        clique = _greedy_clique(g, rng.below(g.n))
        k = rng.below(len(clique))
        order = clique[k:] + clique[:k]
        probes = [v for v in range(g.n) if v not in clique]
        clique_masks = OrderedCliquePrefix.build(g, order)
        assert clique_masks.order == tuple(order)
        for u in probes:
            for i, z in enumerate(order):
                assert bool(clique_masks.mask(u) >> i & 1) == (z in g.neighbor_set(u))
        for a in probes:
            for b in probes:
                free = [
                    z
                    for z in order
                    if z not in g.neighbor_set(a) and z not in g.neighbor_set(b)
                ]
                assert clique_masks.first_free(a, b) == (free[0] if free else None)


def test_probe_mask_costs_p_queries_once():
    # Clique order (0, 1, 2); probe 3 sees only 0, probe 4 only 2.
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (2, 4)])
    view = g.with_counter()
    clique = OrderedCliquePrefix.build(view, [0, 1, 2])
    assert view.counter.count == 0
    assert clique.mask(3) == 0b001
    assert view.counter.count == 3
    assert clique.mask(3) == 0b001 and clique.first_free(3, 3) == 1
    assert view.counter.count == 3
    assert clique.first_free(3, 4) == 1 and clique.mask(4) == 0b100
    assert view.counter.count == 6


def test_weighted_three_sets_stops_after_first_non_adjacent_pair():
    # Z = {6, 7, 8, 9} is a clique and there are no other edges.  The
    # heaviest pair (0, 3) is non-adjacent and the heaviest clique node is
    # free, and every other (x, y) with the top clique weight is strictly
    # lighter, so the search asks that one pair plus two masks: 1 + 2p.
    xs, ys, zs = [0, 1, 2], [3, 4, 5], [6, 7, 8, 9]
    g = build_graph(10, list(itertools.combinations(zs, 2)))
    weights = [9, 5, 4, 9, 5, 4, 9, 3, 2, 1]
    view = g.with_counter()
    assert _search(weighted_three_sets, view, weights, xs, ys, zs) == ((0, 3, 6), 27)
    assert view.counter.count == 1 + 2 * len(zs)


def test_weighted_three_sets_prefers_heaviest_reachable():
    # Z = {z1 (weight 5), z2 (weight 3)}, edge z1-z2, and x blocked on z1:
    # the first uncovered prefix is at z2.
    g = build_graph(4, [(2, 3), (0, 2)])  # x=0, y=1, z1=2, z2=3
    weights = [1, 1, 5, 3]
    found = _search(weighted_three_sets, g, weights, [0], [1], [2, 3])
    assert found == ((0, 1, 3), 5)


def test_weighted_three_sets_vacuous_inputs():
    g = cycle(7)
    assert _search(weighted_three_sets, g, [1] * 7, [], [2], [4]) is None
    assert _search(weighted_three_sets, g, [1] * 7, [0], [2], []) is None


def _role_configs(cls):
    s, t, u = cls.anchors
    for a, b in ((s, t), (s, u), (t, u)):
        yield cls.exclusive_to(a), cls.shared_by(a, b), cls.exclusive_to(b)
    for a, b, c in ((s, t, u), (t, s, u), (s, u, t)):
        yield cls.shared_by(a, b), cls.shared_by(b, c), cls.exclusive_to(c)
    # Every rotation of the exclusive-set triple, which mwss_type_iii
    # searches in one of them only.
    for a, b, c in ((s, t, u), (t, u, s), (u, s, t)):
        yield cls.exclusive_to(a), cls.exclusive_to(b), cls.exclusive_to(c)


def _brute_best_triple(g, weights, xs, ys, zs):
    """(weight, sorted triple) of the heaviest stable triple, ties to the
    smallest sorted triple, or None."""
    triples = (tuple(sorted(t)) for t in itertools.product(xs, ys, zs) if is_stable_set(g, t))
    weighed = ((sum(weights[v] for v in t), t) for t in triples)
    return min(weighed, key=lambda cand: (-cand[0], cand[1]), default=None)


def test_weighted_three_sets_matches_brute_force():
    # Soak test: every role assignment on thousands of instances, exact
    # weight and tie agreement with the exhaustive triple scan, with the
    # drawn weights and again with weights 1..2, which make many ties.
    rng = SplitMix64(69)
    checked = 0
    for g, weights, _, report in itertools.islice(alpha3_instances(SplitMix64(61), 25), 1700):
        cls = classify(g, range(g.n), report.nodes)
        for ws in (weights, [rng.randint(1, 2) for _ in range(g.n)]):
            for xs, ys, zs in _role_configs(cls):
                found = _search(weighted_three_sets, g, ws, xs, ys, zs)
                brute = _brute_best_triple(g, ws, xs, ys, zs)
                assert found == (None if brute is None else (brute[1], brute[0]))
                checked += 1
    assert checked >= 30_000


def _seeded_best(rng, g, lo, hi):
    """A running best holding a random candidate: a sorted tuple of one to
    three nodes, stable or not, at a weight drawn from 3 * lo .. 3 * hi, as
    if an earlier search of the solve had offered it.  Returns the best and
    that candidate as (nodes, weight)."""
    nodes = tuple(sorted({rng.below(g.n) for _ in range(1 + rng.below(3))}))
    weight = rng.randint(3 * lo, 3 * hi)
    best = _Best()
    best.offer(nodes, weight)
    return best, (nodes, weight)


def _least(*candidates):
    """The least (-weight, nodes) among (nodes, weight) candidates, or None
    when every one is None: the candidate a running best must end on."""
    return min(filter(None, candidates), key=lambda c: (-c[1], c[0]), default=None)


def _check_three_sets_on_random_graphs(seed, lo, hi):
    # Each instance runs from a fresh best and again from a seeded one.
    rng = SplitMix64(seed)
    for _ in range(1500):
        g = random_graph(rng, rng.randint(3, 14), rng.randint(10, 90))
        weights = [rng.randint(lo, hi) for _ in range(g.n)]
        zs = _greedy_clique(g, rng.below(g.n))
        xs, ys = [], []
        for v in range(g.n):
            if v not in zs:
                (xs if rng.below(2) else ys).append(v)
        found = _search(weighted_three_sets, g, weights, xs, ys, zs)
        brute = _brute_best_triple(g, weights, xs, ys, zs)
        brute = None if brute is None else (brute[1], brute[0])
        assert found == brute
        best, seed_cand = _seeded_best(rng, g, lo, hi)
        weighted_three_sets(g, weights, xs, ys, zs, best)
        assert (best.nodes, best.weight) == _least(seed_cand, brute)


def test_weighted_three_sets_exact_without_claw_freeness():
    # On arbitrary graphs the prefix predicate need not be monotone; the
    # search must still return the brute-force best triple.
    _check_three_sets_on_random_graphs(65, -5, 5)


def test_weighted_three_sets_exact_on_ties():
    # Weights 1..3 make many triples tie: the search may skip only triples
    # strictly lighter than its best, so the smallest sorted triple must
    # survive, also against a best that an earlier search left.
    _check_three_sets_on_random_graphs(68, 1, 3)


def test_prefix_predicate_is_monotone():
    # Once a prefix leaves a gap for a pair, every longer prefix does too.
    for g, weights, _, report in itertools.islice(alpha3_instances(SplitMix64(62), 25), 150):
        cls = classify(g, range(g.n), report.nodes)
        for xs, ys, zs in _role_configs(cls):
            if not zs:
                continue
            order = sorted(zs, key=lambda z: (-weights[z], z))
            rows = prefix_rows(g, order, itertools.chain(xs, ys))
            p = len(order)
            for x in xs:
                for y in ys:
                    if y in g.neighbor_set(x):
                        continue
                    row_x, row_y = rows[x], rows[y]
                    seen_true = False
                    for i in range(1, p + 1):
                        holds = row_x[i] + row_y[i] < i
                        assert holds or not seen_true, "predicate not monotone"
                        seen_true = seen_true or holds


def test_fixed_pair_gets_heaviest_completion():
    # With singleton probe sets the search must return the heaviest clique
    # node compatible with the pair (linear-scan oracle).
    for g, weights, _, report in itertools.islice(alpha3_instances(SplitMix64(63), 25), 200):
        cls = classify(g, range(g.n), report.nodes)
        for xs, ys, zs in _role_configs(cls):
            if not zs:
                continue
            for x in xs:
                for y in ys:
                    if y in g.neighbor_set(x):
                        continue
                    found = _search(weighted_three_sets, g, weights, [x], [y], zs)
                    compatible = [
                        z
                        for z in zs
                        if z not in g.neighbor_set(x) and z not in g.neighbor_set(y)
                    ]
                    if not compatible:
                        assert found is None
                    else:
                        assert found is not None
                        best_w = max(weights[z] for z in compatible)
                        assert found[1] == weights[x] + weights[y] + best_w


def test_mwss_small_examples():
    g = build_graph(1, [])
    assert _search(mwss_small, g, [7], [0]) == ((0,), 7)
    k5 = complete(5)
    assert _search(mwss_small, k5, [1, 2, 3, 4, 5], range(5)) == ((4,), 5)
    assert _search(mwss_small, k5, [1, 2, 3, 4, 5], []) is None


def _brute_best_small(g, weights, pool, sizes):
    best = None
    for size in sizes:
        for nodes in itertools.combinations(sorted(pool), size):
            if not is_stable_set(g, nodes):
                continue
            cand = (sum(weights[v] for v in nodes), nodes)
            if best is None or cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                best = cand
    return None if best is None else (best[1], best[0])


def test_mwss_small_matches_brute_force():
    rng = SplitMix64(64)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 16), rng.randint(0, 100))
        weights = [rng.randint(-10, 10) for _ in range(g.n)]
        pool = [v for v in range(g.n) if rng.below(4)]
        assert _search(mwss_small, g, weights, pool) == _brute_best_small(g, weights, pool, (1, 2))


def _brute_best_joined(g, weights, pool, extra):
    """(nodes, weight) of the best stable pair of ``pool`` joined by
    ``extra``, ties to the smallest sorted tuple, or None."""
    found = _brute_best_small(g, weights, pool, (2,))
    if found is not None:
        # Every pair gains the same extra nodes, which keeps the tie order.
        return tuple(sorted(found[0] + extra)), found[1] + sum(weights[v] for v in extra)


def test_pair_searches_match_brute_force_on_ties():
    # Tie-heavy weights: mwss_small and _offer_pairs, alone and joined by a
    # node that misses the whole pool (as in mwss_intersecting and
    # mwss_type_iii), from a fresh best and from a seeded one, end on the
    # least (-weight, sorted tuple) over the brute-force candidates and the
    # seed, with at most C(k, 2) queries for k pool nodes.
    rng = SplitMix64(69)
    for lo, hi in ((0, 2), (-3, 3)):
        for _ in range(400):
            g = random_graph(rng, rng.randint(1, 16), rng.randint(0, 100))
            weights = [rng.randint(lo, hi) for _ in range(g.n)]
            z = rng.below(g.n)
            missed = g.neighbor_set(z) | {z}
            for extra in ((), (z,)):
                pool = [v for v in range(g.n) if rng.below(4) and not (extra and v in missed)]
                k = len(pool)
                brute = _brute_best_joined(g, weights, pool, extra)

                view = g.with_counter()
                if not extra:
                    small = _brute_best_small(g, weights, pool, (1, 2))
                    assert _search(mwss_small, view, weights, pool) == small
                    assert view.counter.count <= k * (k - 1) // 2
                    view = g.with_counter()
                assert _search(_offer_pairs, view, weights, pool, extra=extra) == brute
                assert view.counter.count <= k * (k - 1) // 2

                best, seed_cand = _seeded_best(rng, g, lo, hi)
                _offer_pairs(g, weights, pool, best, extra)
                assert (best.nodes, best.weight) == _least(seed_cand, brute)


def test_mwss_small_stops_at_first_non_neighbour():
    # An edgeless pool with distinct weights: the two heaviest nodes form
    # the best pair, and every other pair is lighter, so one query decides.
    g = build_graph(50, [])
    weights = [(7 * v) % 50 + 1 for v in range(50)]
    view = g.with_counter()
    assert _search(mwss_small, view, weights, range(50)) == ((7, 14), 99)
    assert view.counter.count == 1


def test_mwss_intersecting_c7():
    c7 = cycle(7)
    cls = classify(c7, range(c7.n), (0, 2, 4))
    nodes, weight = _search(mwss_intersecting, c7, [1] * 7, cls)
    assert weight == 3 and is_stable_set(c7, nodes)
    nodes, weight = _search(mwss_intersecting, c7, [i + 1 for i in range(7)], cls)
    assert (nodes, weight) == ((2, 4, 6), 15)


def test_mwss_intersecting_prefers_heavy_anchor():
    # The search offers triples only; the heavy anchor alone comes from
    # mwss_small, which offers into the same best first in a solve.
    c6 = cycle(6)
    cls = classify(c6, range(c6.n), (0, 2, 4))
    weights = [10, -5, -7, -5, -7, -5]
    assert _search(mwss_intersecting, c6, weights, cls) == ((0, 2, 4), -4)
    best = _Best()
    mwss_small(c6, weights, range(c6.n), best)
    mwss_intersecting(c6, weights, cls, best)
    assert (best.nodes, best.weight) == ((0,), 10)


def test_mwss_alpha3_reaches_a_corpus_optimum_that_only_mwss_intersecting_offers():
    # Line spec6 of tests/result_lines.txt.  Its optimum meets the maximum
    # stable triple that the cardinality phase finds, and no other search
    # offers it: a solve that skips mwss_intersecting returns (4, 8, 11) at
    # 231.  On C_n^k (tests/test_scaling.py) that skip changes nothing.
    spec = GenSpec("line_graph_cover3", 24, 1, 100, seed=12453303184799048773)
    g, weights, _ = generate(spec)
    assert mwss_alpha3(g, weights) == Optimal(nodes=(1, 4, 11), weight=254)


def test_anchor_classification_is_reused_exactly(monkeypatch):
    # The report carries the partition extend_to_four built for its triple,
    # and mwss_intersecting reads each anchor's pool from it: both must
    # equal what fresh adjacency answers give.  A pool's order is free, as
    # _offer_pairs orders it by weight.
    pools = []
    pool_search = weighted._offer_pairs

    def recording(g, weights, pool, best, extra=()):
        pools.append((extra, sorted(pool)))
        pool_search(g, weights, pool, best, extra)

    def keep(g):
        report = stable_set_min_alpha4(g)
        alphas.add(len(report.nodes))
        if report.exact_alpha == 3:
            return report
        assert report.classification is None

    monkeypatch.setattr(weighted, "_offer_pairs", recording)
    alphas = set()
    draws = alpha3_instances(SplitMix64(0xC1A5), 40, keep)
    for g, weights, _, report in itertools.islice(draws, 300):
        cls = report.classification
        assert cls == classify(g, range(g.n), report.nodes)
        pools.clear()
        _search(mwss_intersecting, g, weights, cls)
        assert pools == [
            ((v,), [x for x in range(g.n) if x != v and x not in g.neighbor_set(v)])
            for v in report.nodes
        ]
    assert alphas == {1, 2, 3, 4}
    for g in (complete(4), cycle(5), cycle(9)):
        assert stable_set_min_alpha4(g).classification is None


def test_path6_on_c7():
    c7 = cycle(7)
    cls = classify(c7, range(c7.n), (0, 2, 4))
    nodes, weight = _search(mwss_type_path6, c7, [1] * 7, cls)
    assert (nodes, weight) == ((1, 3, 5), 3)


def test_path6_none_when_shared_sets_empty():
    g = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    cls = classify(g, range(g.n), (0, 2, 4))
    assert _search(mwss_type_path6, g, [1] * 6, cls) is None


def test_cycle6_direct():
    c6 = cycle(6)
    cls = classify(c6, range(c6.n), (0, 2, 4))
    nodes, weight = _search(mwss_type_cycle6, c6, [1] * 6, cls)
    assert (nodes, weight) == ((1, 3, 5), 3)


def test_cycle6_none_without_each_shared_set():
    c7 = cycle(7)
    cls = classify(c7, range(c7.n), (0, 2, 4))  # the (0,4)-shared set is empty
    assert _search(mwss_type_cycle6, c7, [1] * 7, cls) is None


def test_cycle6_split_when_middle_set_not_clique():
    # Anchors 0,1,2; shared sets W(0,1)={3}, W(1,2)={4,5}, W(0,2)={6,7};
    # 4 and 5 are non-adjacent, which forces the two-clique split with
    # Z1={6} (neighbor of 4) and Z2={7} (neighbor of 5).
    g = build_graph(
        8,
        [
            (0, 3), (1, 3),
            (1, 4), (2, 4),
            (1, 5), (2, 5),
            (0, 6), (2, 6),
            (0, 7), (2, 7),
            (4, 6), (5, 7), (6, 7), (3, 4),
        ],
    )
    assert first_claw(g)[0] is None
    assert brute_alpha_min4(g) == 3
    cls = classify(g, range(g.n), (0, 1, 2))
    weights = [1] * 8
    nodes, weight = _search(mwss_type_cycle6, g, weights, cls)
    assert (nodes, weight) == ((3, 5, 6), 3)
    # The full solve agrees with the oracle on this instance.
    out = mwss_alpha3(g, weights)
    assert isinstance(out, Optimal)
    assert out.weight == brute_mwss(g, weights)[1]


# Anchors s, t, u = 0, 1, 2; the (t,u)-shared set is {3, 4}, non-adjacent,
# which forces the split of the (s,u)-shared set.  Each graph breaks the
# split in one way, and each has a claw.
_CYCLE6_SPLIT = [(1, 3), (2, 3), (1, 4), (2, 4)]


@pytest.mark.parametrize(
    "extra, claw",
    [
        # 5 sees both 3 and 4: a claw at 5 with s.
        ([(0, 5), (2, 5), (3, 5), (4, 5)], (5, (0, 3, 4))),
        # 5 sees neither: a claw at u.
        ([(0, 5), (2, 5)], (2, (3, 4, 5))),
        # 5 and 6 both see only 3 and are non-adjacent: half 1 is no clique.
        ([(0, 5), (2, 5), (3, 5), (0, 6), (2, 6), (3, 6)], (2, (4, 5, 6))),
        # 5 and 6 both see only 4 and are non-adjacent: half 2 is no clique.
        ([(0, 5), (2, 5), (4, 5), (0, 6), (2, 6), (4, 6)], (2, (3, 5, 6))),
    ],
    ids=["both", "neither", "half1", "half2"],
)
def test_cycle6_split_failure_reports_a_claw(extra, claw):
    edges = _CYCLE6_SPLIT + extra
    g = build_graph(1 + max(map(max, edges)), edges)
    assert first_claw(g)[0] is not None
    cls = classify(g, range(g.n), (0, 1, 2))
    with pytest.raises(ClawWitnessError) as info:
        _search(mwss_type_cycle6, g, [1] * g.n, cls)
    center, (a, b, c) = info.value.center, info.value.leaves
    assert (center, (a, b, c)) == claw
    nbrs = g.neighbor_set
    assert {a, b, c} <= nbrs(center)
    assert b not in nbrs(a) and c not in nbrs(a) and c not in nbrs(b)


def test_type_iii_c7_and_four_cycle_shape():
    c7 = cycle(7)
    cls = classify(c7, range(c7.n), (0, 2, 4))
    found = _search(mwss_type_iii, c7, [1] * 7, cls)
    assert found is None  # every role assignment hits an empty set on C7

    # Lone anchor 0 supplies node 3; the 4-cycle (1, 4, 2, 5) supplies the
    # non-adjacent pair {4, 5}.
    g = build_graph(6, [(0, 3), (1, 4), (2, 4), (1, 5), (2, 5)])
    assert first_claw(g)[0] is None
    cls = classify(g, range(g.n), (0, 1, 2))
    weights = [1, 1, 1, 2, 3, 4]
    nodes, weight = _search(mwss_type_iii, g, weights, cls)
    assert (nodes, weight) == ((3, 4, 5), 9)

    # Anchor 0's exclusive set gains node 6, the heaviest, so it joins the
    # pair {4, 5} in place of node 3.
    g = build_graph(7, [(0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (0, 6), (3, 6)])
    assert first_claw(g)[0] is None
    cls = classify(g, range(g.n), (0, 1, 2))
    assert cls.exclusive_to(0) == (3, 6)
    weights = [1, 1, 1, 2, 3, 4, 5]
    assert _search(mwss_type_iii, g, weights, cls) == ((4, 5, 6), 12)
    assert mwss_alpha3(g, weights) == Optimal(nodes=(4, 5, 6), weight=12)


def test_type_iii_four_cycle_contributes_nothing_for_clique_pair_set():
    g = build_graph(6, [(0, 3), (1, 4), (2, 4), (1, 5), (2, 5), (4, 5)])
    assert first_claw(g)[0] is None
    cls = classify(g, range(g.n), (0, 1, 2))
    assert _search(mwss_type_iii, g, [1] * 6, cls) is None


def test_shape_searches_match_shape_filtered_brute_force():
    # For each shape routine: its result equals the exhaustive maximum over
    # stable triples matching that shape's role sets.
    for g, weights, _, report in itertools.islice(alpha3_instances(SplitMix64(65), 25), 250):
        cls = classify(g, range(g.n), report.nodes)
        s, t, u = cls.anchors
        shape_sets = {
            "path6": [
                (cls.shared_by(a, b), cls.shared_by(b, c), cls.exclusive_to(c))
                for a, b, c in itertools.permutations((s, t, u))
            ],
            "cycle6": [
                (cls.shared_by(s, t), cls.shared_by(t, u), cls.shared_by(s, u))
            ],
            "iii": [],
        }
        for a in (s, t, u):
            b, c = (x for x in (s, t, u) if x != a)
            shape_sets["iii"].extend(
                [
                    (cls.exclusive_to(b), cls.exclusive_to(c), cls.exclusive_to(a)),
                    (cls.shared_by(b, c), cls.exclusive_to(c), cls.exclusive_to(a)),
                    (cls.shared_by(b, c), cls.exclusive_to(b), cls.exclusive_to(a)),
                ]
            )
            shared = sorted(cls.shared_by(b, c))
            f_a = cls.exclusive_to(a)
            if f_a and len(shared) >= 2:
                shape_sets["iii"].append((shared, shared, f_a))

        for name, op in (
            ("path6", mwss_type_path6),
            ("cycle6", mwss_type_cycle6),
            ("iii", mwss_type_iii),
        ):
            found = _search(op, g, weights, cls)
            triples = (
                nodes
                for xs, ys, zs in shape_sets[name]
                for nodes in itertools.product(xs, ys, zs)
                if len(set(nodes)) == 3 and is_stable_set(g, nodes)
            )
            best = max((sum(weights[v] for v in nodes) for nodes in triples), default=None)
            if best is None:
                assert found is None, name
            else:
                assert found is not None, name
                assert found[1] == best, name


def test_mwss_alpha3_examples():
    out = mwss_alpha3(cycle(9), [1] * 9)
    assert isinstance(out, AlphaAtLeast4)
    assert is_stable_set(cycle(9), out.witness) and len(set(out.witness)) == 4

    out = mwss_alpha3(cycle(7), [i + 1 for i in range(7)])
    assert out == Optimal(nodes=(2, 4, 6), weight=15, dropped_negative=0)

    out = mwss_alpha3(cycle(7), [-1 - i for i in range(7)])
    assert out == Optimal(nodes=(), weight=0, dropped_negative=7)


def test_mwss_alpha3_lexicographic_tie_rule():
    out = mwss_alpha3(cycle(7), [1] * 7)
    assert out == Optimal(nodes=(0, 2, 4), weight=3, dropped_negative=0)


def test_mwss_alpha3_weight_vector_length_checked():
    with pytest.raises(ValueError):
        mwss_alpha3(cycle(7), [1] * 6)


def test_mwss_alpha3_enforces_weight_contract():
    c7 = cycle(7)
    for bad in (
        [0.5 + i for i in range(7)], [1 << 70] * 7, [True] * 7, [2**61 + 1] * 7, [-(2**61) - 1] * 7
    ):
        with pytest.raises(ValueError):
            mwss_alpha3(c7, bad)
    # The README's bound, 2^61 in magnitude, is accepted.
    out = mwss_alpha3(c7, [-(2**61)] + [2**61] * 6)
    assert out == Optimal(nodes=(1, 3, 5), weight=3 * 2**61, dropped_negative=1)


def test_mwss_alpha3_reports_claw_in_input_ids():
    # Node 0 is dropped for its negative weight; the only claw is (4; 1, 2, 5).
    g = build_graph(6, [(1, 4), (2, 4), (3, 5), (4, 5)])
    with pytest.raises(ClawWitnessError) as info:
        mwss_alpha3(g, [-1, 1, 1, 1, 1, 1])
    assert (info.value.center, info.value.leaves) == (4, (1, 2, 5))


def test_mwss_alpha3_returns_or_reports_a_real_claw():
    # Random graphs, many of them with a claw: the solver either returns or
    # names an induced claw of its input, whichever nodes the drop removes.
    rng = SplitMix64(2024)
    for _ in range(2000):
        n = 3 + rng.below(12)
        g = random_graph(rng, n, rng.below(101))
        weights = [rng.below(13) - 3 for _ in range(n)]
        try:
            mwss_alpha3(g, weights)
        except ClawWitnessError as exc:
            a, b, c = exc.leaves
            nbrs = g.neighbor_set
            assert {a, b, c} <= nbrs(exc.center)
            assert b not in nbrs(a) and c not in nbrs(a) and c not in nbrs(b)


def test_mwss_alpha3_matches_brute_force():
    rng = SplitMix64(66)
    for _ in range(800):
        g, weights, _ = random_clawfree(rng, 30, negative_weights=bool(rng.below(2)))
        out = mwss_alpha3(g, weights)
        alpha = brute_alpha_min4(g)
        if isinstance(out, AlphaAtLeast4):
            assert alpha == 4
            assert is_stable_set(g, out.witness)
            continue
        assert is_stable_set(g, out.nodes)
        assert sum(weights[v] for v in out.nodes) == out.weight
        if alpha <= 3:
            assert out.weight == brute_mwss(g, weights)[1]
        assert out.dropped_negative == sum(1 for w in weights if w < 0)


def test_mwss_alpha3_deterministic_including_query_counts():
    rng = SplitMix64(67)
    for _ in range(50):
        g, weights, _ = random_clawfree(rng, 30, negative_weights=True)
        v1, v2 = g.with_counter(), g.with_counter()
        out1 = mwss_alpha3(v1, weights)
        out2 = mwss_alpha3(v2, weights)
        assert out1 == out2
        assert v1.counter.count == v2.counter.count


def _solve_or_claw(g, weights):
    """(outcome or claw, queries) of one solve on a fresh counter."""
    view = g.with_counter()
    try:
        out = mwss_alpha3(view, weights)
    except ClawWitnessError as exc:
        out = ("claw", exc.center, exc.leaves)
    return out, view.counter.count


def _solve_on_rebuilt_subgraph(g, weights):
    """The reference construction: solve on the rebuilt subgraph of the
    non-negative nodes, then map its ids back to g's."""
    keep = [v for v in range(g.n) if weights[v] >= 0]
    sub, _ = induced_subgraph(g, keep)
    out, queries = _solve_or_claw(sub, [weights[v] for v in keep])
    if isinstance(out, AlphaAtLeast4):
        out = AlphaAtLeast4(tuple(keep[x] for x in out.witness))
    elif isinstance(out, Optimal):
        nodes = tuple(keep[x] for x in out.nodes)
        out = Optimal(nodes, out.weight, dropped_negative=g.n - len(keep))
    else:
        out = ("claw", keep[out[1]], tuple(keep[x] for x in out[2]))
    return out, queries


def test_solve_in_place_equals_solve_on_rebuilt_subgraph():
    # Outcome, claw witness and query count all equal those of a solve on
    # induced_subgraph(g, keep), mapped back through keep.
    rng = SplitMix64(1111)
    graphs = [
        generate(sample_spec(rng, 60, negative_weights=True))[:2] for _ in range(500)
    ]
    for _ in range(500):
        n = 3 + rng.below(14)
        weights = [rng.below(13) - 3 for _ in range(n)]
        graphs.append((random_graph(rng, n, rng.below(101)), weights))
    kinds = set()
    for g, weights in graphs:
        expected = _solve_on_rebuilt_subgraph(g, weights)
        assert _solve_or_claw(g, weights) == expected
        out = expected[0]
        kinds.add(out[0] if isinstance(out, tuple) else type(out).__name__)
    assert kinds == {"AlphaAtLeast4", "Optimal", "claw"}


def _traced_peak(g, weights) -> int:
    view = g.with_counter()
    tracemalloc.start()
    try:
        mwss_alpha3(view, weights)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_negative_weight_builds_no_second_graph():
    # A rebuilt subgraph would hold a second adjacency store, over 20 times
    # the all-positive peak on this instance.
    g, weights = bench_instances([1024, 4096, 16384], seed=0)[2]  # bench --seed 0 at 2^14
    positive = _traced_peak(g, weights)
    assert _traced_peak(g, with_lightest_negative(weights)) <= 4 * positive


@pytest.mark.parametrize("kept", [1 << 16, 64])
def test_the_pair_table_is_sized_by_the_kept_nodes_never_by_the_header(kept):
    # A table over all 2^16 ids would take 2^32 bits.  The edgeless graph
    # is too sparse for a table at all; in the other, only a 64-node clique
    # has non-negative weights, and the table covers those 64 nodes.
    n = 1 << 16
    g = build_graph(n, [] if kept == n else itertools.combinations(range(kept), 2))
    assert _traced_peak(g, [1] * kept + [-1] * (n - kept)) / n <= 1


def _log_decided_pairs(monkeypatch) -> list[tuple[int, int]]:
    """From here on, log each pair a solve decides: every pair asked through
    the oracle, and every pair of a clique check's passing rows."""
    log = []
    for cls in (Graph, graph._PairTable):

        def asked(self, u, v, adjacent=cls.adjacent):
            log.append((min(u, v), max(u, v)))
            return adjacent(self, u, v)

        monkeypatch.setattr(cls, "adjacent", asked)

    def checked(g, nodes, check=graph.is_clique_or_witness):
        witness = check(g, nodes)
        passed = len(nodes) if witness is None else nodes.index(witness[0])
        log.extend((min(u, v), max(u, v)) for i, u in enumerate(nodes[:passed]) for v in nodes[i + 1 :])
        return witness

    for module in (cardinality, weighted):
        monkeypatch.setattr(module, "is_clique_or_witness", checked)
    return log


def test_a_solve_charges_each_pair_it_decides_once(monkeypatch):
    # A solve that ends in an optimum has alpha <= 3 among its kept nodes,
    # so it runs on the pair table: its count is the number of distinct
    # pairs it decided, neither a repeat charged nor a pair left free.
    cases = []
    for g, weights in bench_instances([1024, 4096], seed=0):
        cases += [(g, weights), (g, with_lightest_negative(weights))]
    for k in (15, 31):
        g, rng = cycle_power(k), SplitMix64(1)
        cases.append((g, [rng.randint(1, 100) for _ in range(g.n)]))
    corpus_from = len(cases)
    cases += [(g, weights) for _, g, weights in _corpus()]
    log = _log_decided_pairs(monkeypatch)
    optima = 0
    for i, (g, weights) in enumerate(cases):
        log.clear()
        view = g.with_counter()
        try:
            out = mwss_alpha3(view, weights)
        except ClawWitnessError:
            out = None
        assert isinstance(out, Optimal) or i >= corpus_from
        if isinstance(out, Optimal):
            optima += 1
            assert view.counter.count == len(set(log))
    assert optima > 2_000
