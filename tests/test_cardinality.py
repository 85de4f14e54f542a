import itertools

import pytest

import clawmwss.cardinality as cardinality
from clawmwss import (
    AlphaAtLeast4,
    ClawWitnessError,
    Graph,
    build_graph,
    generate,
    mwss_alpha3,
    read_instance,
    stable_set_min_alpha4,
)
from clawmwss.cardinality import (
    extend_to_four,
    extend_to_three,
    four_sets_stable,
    stable_pair,
    three_sets_stable,
)
from clawmwss.gen import GenSpec, SplitMix64, sample_spec
from clawmwss.graph import is_null_to
from clawmwss.oracles import brute_alpha_min4, is_stable_set
from clawmwss.structure import classify

from helpers import (
    alpha3_instances,
    bench_instances,
    complete,
    cycle,
    exact_alpha3,
    first_claw,
    min_alpha4_by_full_passes,
    random_clawfree,
    random_graph,
    three_sets_by_pairs,
)


def test_stable_pair_examples():
    assert stable_pair(complete(5), range(5)) is None
    assert stable_pair(cycle(7), range(7)) == (0, 2)
    assert stable_pair(build_graph(2, []), range(2)) == (0, 1)
    assert stable_pair(build_graph(1, []), range(1)) is None


def test_stable_pair_reads_a_low_degree_before_any_neighbor_set(monkeypatch):
    built = []
    neighbor_set = Graph.neighbor_set

    def logged_neighbor_set(g, v):
        built.append(v)
        return neighbor_set(g, v)

    monkeypatch.setattr(Graph, "neighbor_set", logged_neighbor_set)
    g = Graph([()] * (1 << 16))
    assert stable_pair(g, range(g.n)) == (0, 1)
    assert built == []


def test_three_sets_direct_construction():
    # s=0, t=1, a=2, b=3, c=4 with edges s-a, t-b, s-c, t-c.
    g = build_graph(5, [(0, 2), (1, 3), (0, 4), (1, 4)])
    assert three_sets_stable(g, [4], [2], [3]) == (4, 2, 3)


def test_three_sets_coverage_equality_blocks():
    # h(x) + h(y) equals |Z|: no completion exists.
    g = build_graph(4, [(2, 3), (0, 2), (1, 3)])
    assert three_sets_stable(g, [0], [1], [2, 3]) is None


def test_three_sets_empty_inputs():
    g = cycle(7)
    assert three_sets_stable(g, [], [1], [4]) is None
    assert three_sets_stable(g, [1], [], [4]) is None
    assert three_sets_stable(g, [1], [3], []) is None


def _triple_configs(g, cls):
    """Role assignments (X, Y, Z) with Z one of the exclusive cliques."""
    s, t, u = cls.anchors
    for a, b in ((s, t), (s, u), (t, u)):
        yield cls.exclusive_to(a), cls.shared_by(a, b), cls.exclusive_to(b)


def _stable_sets_brute(g, *sets):
    """The stable sets with one node from each of ``sets``, in scan order."""
    return [t for t in itertools.product(*sets) if is_stable_set(g, t)]


def test_three_sets_agrees_with_exhaustive_scan():
    checked = 0
    for g, _, _, report in alpha3_instances(SplitMix64(42), 30):
        cls = classify(g, range(g.n), report.nodes)
        for xs, ys, zs in _triple_configs(g, cls):
            result = three_sets_stable(g, xs, ys, zs)
            brute = _stable_sets_brute(g, xs, ys, zs)
            assert (result is None) == (not brute)
            if result is not None:
                x, y, z = result
                assert x in xs and y in ys and z in zs
                assert is_stable_set(g, result)
            checked += 1
        if checked >= 400:
            break


def test_coverage_criterion_iff_completion_exists():
    # A non-adjacent pair extends into the clique iff the pair's
    # neighborhoods leave it uncovered; both directions by brute force.
    checked = 0
    for g, _, _, report in alpha3_instances(SplitMix64(43), 30):
        cls = classify(g, range(g.n), report.nodes)
        for xs, ys, zs in _triple_configs(g, cls):
            if not zs:
                continue
            hits = {
                u: sum(z in g.neighbor_set(u) for z in zs)
                for u in itertools.chain(xs, ys)
            }
            for x in xs:
                for y in ys:
                    if y in g.neighbor_set(x):
                        continue
                    extends = any(
                        z not in g.neighbor_set(x) and z not in g.neighbor_set(y)
                        for z in zs
                    )
                    assert extends == (hits[x] + hits[y] < len(zs))
            checked += 1
        if checked >= 200:
            break


def test_three_sets_asks_only_the_pairs_when_x_is_complete_to_y():
    # X = {0, 1} complete to Y = {2, 3, 4}, Z = {5, 6} a clique: no pair is
    # non-adjacent, so no probe's clique mask is built and the search asks
    # exactly |X| * |Y| queries.
    xs, ys, zs = [0, 1], [2, 3, 4], [5, 6]
    g = build_graph(7, [(x, y) for x in xs for y in ys] + [(5, 6)])
    view = g.with_counter()
    assert three_sets_stable(view, xs, ys, zs) is None
    assert view.counter.count == len(xs) * len(ys)


def test_three_sets_skips_pairs_whose_known_counts_cover_z():
    # The pair partition of the GOLDEN complement_triangle_free instance has
    # no triple: the scan that asks every x-y pair first pays 382 queries,
    # and skipping the pairs whose built masks already cover Z pays 207.
    g, _, _ = generate(GenSpec("complement_triangle_free", 40, -50, 50, seed=6))
    cls = classify(g, range(g.n), stable_pair(g, range(g.n)))
    s, t = cls.anchors
    sets = (cls.shared_by(s, t), cls.exclusive_to(s), cls.exclusive_to(t))
    every_pair, skipping = g.with_counter(), g.with_counter()
    assert three_sets_by_pairs(every_pair, *sets) is None
    assert three_sets_stable(skipping, *sets) is None
    assert (every_pair.counter.count, skipping.counter.count) == (382, 207)


def _searched_partitions():
    """The pair's and the triple's ``classify`` partitions of
    ``_differential_inputs`` that ``stable_set_min_alpha4`` builds.  Each
    triple pass is checked on the way: reading the pair's answers changes
    nothing in its partition or its claw, and it asks exactly the (node,
    anchor) pairs those answers leave open, in scan order."""
    for g, nodes in _differential_inputs():
        pair = stable_pair(g, nodes)
        if pair is None:
            continue
        known = classify(g, nodes, pair)
        yield g, known
        triple = extend_to_three(g, known)
        if triple is None:
            continue
        asked = _AskedGraph([g.neighbors(v) for v in range(g.n)])
        asked.log = []
        try:
            plain = classify(g, nodes, triple)
        except ClawWitnessError as claw:
            with pytest.raises(ClawWitnessError) as info:
                classify(asked, nodes, triple, known=known)
            assert (info.value.center, info.value.leaves) == (claw.center, claw.leaves)
            assert asked.log == []
            continue
        cls = classify(asked, nodes, triple, known=known)
        assert cls == plain
        answered = {x for part in known.parts.values() for x in part}
        scanned = {x for part in plain.parts.values() for x in part}
        assert asked.log == [
            (x, a)
            for x in nodes
            if x in scanned
            for a in plain.anchors
            if x not in answered or a not in known.anchors
        ]
        yield g, cls


def test_three_sets_matches_the_every_pair_scan_and_never_asks_more():
    searches = fewer = found = 0
    for g, cls in _searched_partitions():
        if len(cls.anchors) == 2:
            s, t = cls.anchors
            configs = [(cls.shared_by(s, t), cls.exclusive_to(s), cls.exclusive_to(t))]
        else:
            configs = _triple_configs(g, cls)
        for sets in configs:
            every_pair, skipping = g.with_counter(), g.with_counter()
            expected = three_sets_by_pairs(every_pair, *sets)
            assert three_sets_stable(skipping, *sets) == expected
            assert skipping.counter.count <= every_pair.counter.count
            searches += 1
            fewer += skipping.counter.count < every_pair.counter.count
            found += expected is not None
    assert searches > 10000 and fewer > 500 and found > 250


def test_four_sets_reduces_to_triple_when_w_isolated():
    # s=0, t=1, a=2, b=3, c=4 as above plus isolated w=5.
    g = build_graph(6, [(0, 2), (1, 3), (0, 4), (1, 4)])
    quad = four_sets_stable(g, [4], [2], [3], [5])
    assert quad is not None
    x, y, z, w = quad
    assert w == 5
    assert (x, y, z) == (4, 2, 3)
    assert is_stable_set(g, quad)


def test_four_sets_none_when_restriction_empties_x():
    # w adjacent to every X node: no quad can use it.
    g = build_graph(4, [(0, 3)])
    assert four_sets_stable(g, [0], [1], [2], [3]) is None


def test_extend_to_four_reports_w_z_crossing_as_claw():
    # Anchors 0, 1, 2; w = 3 is shared by 0 and 1, z = 4 is exclusive to 2,
    # and the edge w-z makes (w; 0, 1, z) a claw.
    g = build_graph(5, [(0, 3), (1, 3), (2, 4), (3, 4)])
    with pytest.raises(ClawWitnessError) as info:
        extend_to_four(g, classify(g, range(g.n), (0, 1, 2)))
    assert (info.value.center, info.value.leaves) == (3, (0, 1, 4))


def test_extend_to_four_reports_x_y_crossing_as_claw():
    # Anchors 0, 1, 2 with b = 0 in the middle: w = 3 is shared by 0 and 1,
    # x = 4 is exclusive to 1, y = 5 is shared by 0 and 2, and the edge x-y
    # makes (y; x, 0, 2) a claw.
    g = build_graph(6, [(0, 3), (1, 3), (1, 4), (0, 5), (2, 5), (4, 5)])
    with pytest.raises(ClawWitnessError) as info:
        extend_to_four(g, classify(g, range(g.n), (0, 1, 2)))
    assert (info.value.center, info.value.leaves) == (5, (0, 2, 4))


def test_extend_to_four_checks_each_pair_of_sets_once(monkeypatch):
    # Non-empty parts of one partition are disjoint, so their contents name
    # them; a check with an empty side asks nothing and is not logged.
    checked = []

    def logged_is_null_to(g, a, b):
        if a and b:
            checked.append(frozenset((tuple(a), tuple(b))))
        return is_null_to(g, a, b)

    def keep(g):
        checked.clear()
        return exact_alpha3(g)

    monkeypatch.setattr(cardinality, "is_null_to", logged_is_null_to)
    bench = [g for g, _ in bench_instances([1024, 4096], seed=0)]
    reports = itertools.chain(
        ((g, report) for g in reversed(bench) if (report := keep(g)) is not None),
        ((g, report) for g, _, _, report in alpha3_instances(SplitMix64(45), 40, keep)),
    )
    three_middles = 0
    for g, report in itertools.islice(reports, 300):
        assert len(set(checked)) == len(checked), "a pair of sets was checked twice"
        s, t, u = report.classification.anchors
        shared = report.classification.shared_by
        three_middles += bool(shared(s, t)) and bool(shared(s, u))
    assert three_middles > 50


def test_four_sets_agrees_with_exhaustive_scan():
    checked = 0
    for g, _, _, report in alpha3_instances(SplitMix64(44), 30):
        cls = classify(g, range(g.n), report.nodes)
        s, t, u = cls.anchors
        for b in (s, t, u):
            a, c = (x for x in (s, t, u) if x != b)
            xs = cls.exclusive_to(a)
            ys = cls.shared_by(b, c)
            zs = cls.exclusive_to(c)
            ws = cls.shared_by(a, b)
            if not ws:
                continue
            result = four_sets_stable(g, xs, ys, zs, ws)
            brute = _stable_sets_brute(g, xs, ys, zs, ws)
            assert (result is None) == (not brute)
            if result is not None:
                x, y, z, w = result
                assert x in xs and y in ys and z in zs and w in ws
                assert is_stable_set(g, result)
            checked += 1
        if checked >= 300:
            break


def test_extend_to_three_examples():
    triple = extend_to_three(cycle(7), classify(cycle(7), range(7), (0, 2)))
    assert triple == (0, 2, 4)
    assert extend_to_three(cycle(5), classify(cycle(5), range(5), (0, 2))) is None


def test_extend_to_three_matches_brute_alpha():
    rng = SplitMix64(45)
    for _ in range(400):
        g, _, _ = random_clawfree(rng, 30)
        pair = stable_pair(g, range(g.n))
        if pair is None:
            continue
        triple = extend_to_three(g, classify(g, range(g.n), pair))
        alpha = brute_alpha_min4(g)
        assert (triple is None) == (alpha == 2)
        if triple is not None:
            assert is_stable_set(g, triple)


def test_extend_to_four_examples():
    quad = extend_to_four(cycle(9), classify(cycle(9), range(9), (0, 2, 4)))
    assert quad is not None and is_stable_set(cycle(9), quad)
    assert extend_to_four(cycle(7), classify(cycle(7), range(7), (0, 2, 4))) is None
    # Line graphs whose stable 4-sets all need the X node (9 nodes) or the Y
    # node (8 nodes) that covers the fewest clique nodes: the one that
    # covers the most leaves no gap.
    for n, edges in (
        (9, [(0, 1), (0, 4), (0, 5), (1, 6), (1, 8), (2, 3), (2, 7), (2, 8), (3, 5), (4, 5),
             (6, 7), (6, 8), (7, 8)]),
        (8, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 3), (2, 5), (3, 5), (3, 7), (4, 6), (5, 7)]),
    ):
        g = build_graph(n, edges)
        assert first_claw(g)[0] is None
        assert stable_set_min_alpha4(g).exact_alpha is None


def test_extend_to_four_surfaces_claw():
    # Anchors stable, node 3 adjacent to all of them.  The triple is
    # classified once, before extend_to_four searches it, and that
    # classification reports the claw.
    g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
    with pytest.raises(ClawWitnessError) as info:
        stable_set_min_alpha4(g)
    assert (info.value.center, info.value.leaves) == (3, (0, 1, 2))


def _stable_triple(g):
    pair = stable_pair(g, range(g.n))
    return None if pair is None else extend_to_three(g, classify(g, range(g.n), pair))


def test_extend_to_four_matches_brute_alpha():
    draws = alpha3_instances(SplitMix64(46), 30, keep=_stable_triple)
    for g, _, _, triple in itertools.islice(draws, 400):
        quad = extend_to_four(g, classify(g, range(g.n), triple))
        alpha = brute_alpha_min4(g)
        assert (quad is None) == (alpha == 3)
        if quad is not None:
            assert is_stable_set(g, quad) and len(set(quad)) == 4


def test_report_examples():
    assert stable_set_min_alpha4(complete(5)).nodes == (0,)
    assert stable_set_min_alpha4(complete(5)).exact_alpha == 1
    assert stable_set_min_alpha4(cycle(5)).exact_alpha == 2
    assert stable_set_min_alpha4(cycle(7)).exact_alpha == 3
    report = stable_set_min_alpha4(cycle(9))
    assert report.exact_alpha is None
    assert len(report.nodes) == 4
    assert stable_set_min_alpha4(build_graph(0, [])).nodes == ()
    assert stable_set_min_alpha4(build_graph(0, [])).exact_alpha == 0
    # On a node subset: the subgraph it induces, in g's ids.
    assert stable_set_min_alpha4(cycle(7), []).nodes == ()
    assert stable_set_min_alpha4(complete(5), [2, 4]).nodes == (2,)
    assert stable_set_min_alpha4(cycle(9), [1, 2, 3]).nodes == (1, 3)
    assert stable_set_min_alpha4(cycle(9), range(1, 8)).nodes == (1, 3, 5, 7)
    assert stable_set_min_alpha4(cycle(9), range(1, 7)).exact_alpha == 3
    assert stable_set_min_alpha4(cycle(9), range(8, 9)).nodes == (8,)
    assert stable_set_min_alpha4(cycle(9), range(0, 9, 4)).nodes == (0, 4)


def test_report_matches_brute_alpha_on_random_instances():
    rng = SplitMix64(47)
    for _ in range(1500):
        g, _, _ = random_clawfree(rng, 35)
        report = stable_set_min_alpha4(g)
        assert len(report.nodes) == brute_alpha_min4(g)
        assert is_stable_set(g, report.nodes)


def test_report_exhaustive_small_graphs():
    for n in range(0, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = build_graph(n, edges)
            if first_claw(g)[0] is not None:
                continue
            report = stable_set_min_alpha4(g)
            assert len(report.nodes) == brute_alpha_min4(g)
            assert is_stable_set(g, report.nodes)


def test_classify_takes_plain_iterables():
    g = cycle(7)
    assert classify(g, range(g.n), [2, 0]).shared_by(0, 2) == (1,)
    assert classify(g, range(g.n), (v for v in (4, 0, 2))).exclusive_to(0) == (6,)


_MALFORMED_NODES = {
    "repeated": ([0, 1, 1, 2, 2, 3, 3, 4], (0, 2, 2)),
    "descending": ([4, 3, 2, 1, 0], range(2, 0, -1)),
    "id_at_least_n": ([0, 5], range(6)),
    "negative": ([-1, 0, 1], range(-1, 5)),
    "non_int": ([0, 1.0, 2], [False, 1, 2], ["0"]),
    "not_a_sequence": ({0, 1, 2, 3, 4}, (v for v in range(5)), dict.fromkeys(range(5))),
}


@pytest.mark.parametrize("kind", _MALFORMED_NODES)
def test_min_alpha4_refuses_malformed_nodes(kind):
    # With the repeated ids, the search on this graph once ended in
    # ``duplicate anchor`` and, under ``python -O``, returned (2, 3, 3, 4).
    g = Graph([(1, 3), (0, 3, 4), (), (0, 1), (1,)])
    for nodes in _MALFORMED_NODES[kind]:
        with pytest.raises(ValueError, match="strictly ascending int ids"):
            stable_set_min_alpha4(g, nodes)
    assert g.counter.count == 0


class _AskedGraph(Graph):
    """A graph that logs the adjacency queries asked while ``log`` is a list."""

    __slots__ = ("log",)

    def adjacent(self, u: int, v: int) -> bool:
        if self.log is not None:
            self.log.append((u, v))
        return super().adjacent(u, v)


def _outcome(solve, g, nodes):
    try:
        report = solve(g, nodes)
    except ClawWitnessError as claw:
        return ("claw", claw.center, claw.leaves)
    return (report.nodes, report.classification)


def _differential_inputs():
    """Seeded random 4-16-node graphs, claw graphs included, with all their
    nodes; then sample_spec instances with their non-negative nodes, as
    ``mwss_alpha3`` searches them."""
    rng = SplitMix64(48)
    for _ in range(4000):
        g = random_graph(rng, 4 + rng.below(13), 10 + rng.below(80))
        yield g, range(g.n)
    for _ in range(600):
        g, weights, _ = generate(sample_spec(rng, 40, negative_weights=bool(rng.below(2))))
        yield g, [v for v in range(g.n) if weights[v] >= 0]


def test_min_alpha4_reuses_each_anchor_answer_and_matches_two_full_passes(monkeypatch):
    passes = []

    def logged_classify(g, nodes, anchors, **kwargs):
        g.log = []
        try:
            cls = classify(g, nodes, anchors, **kwargs)
        finally:
            passes.append((tuple(sorted(anchors)), g.log))
            g.log = None
        if len(cls.anchors) == 2:
            assert len(cls.detached) <= 1, "the pair's pass ran past its first detached node"
        return cls

    monkeypatch.setattr(cardinality, "classify", logged_classify)
    claws = grown_by_detached = 0
    for plain, nodes in _differential_inputs():
        expected = _outcome(min_alpha4_by_full_passes, plain, nodes)
        g = _AskedGraph([plain.neighbors(v) for v in range(plain.n)])
        g.log = None
        passes.clear()
        assert _outcome(stable_set_min_alpha4, g, nodes) == expected
        claws += expected[0] == "claw"
        asked = [q for _, log in passes for q in log]
        assert len(set(asked)) == len(asked), "an anchor adjacency was asked twice"
        anchors = {a for t, _ in passes for a in t}
        assert all(a in anchors for _, a in asked)
        # One query per node and anchor of either pass: 3 per node when the
        # triple adds a detached node to the pair, 4 or 5 when it keeps one
        # anchor of the pair or none.
        assert len(asked) <= len(anchors) * len(nodes)
        if len(passes) == 2 and set(passes[0][0]) < set(passes[1][0]):
            assert len(asked) <= 3 * len(nodes)
            grown_by_detached += 1
    assert claws > 1000 and grown_by_detached > 2000


def test_triple_pass_stops_at_its_first_detached_node(monkeypatch):
    stopped = []

    def checked_classify(g, nodes, anchors, **kwargs):
        cls = classify(g, nodes, anchors, **kwargs)
        if len(cls.anchors) == 3:
            assert len(cls.detached) <= 1, "the triple's pass ran past its first detached node"
            stopped.append(bool(cls.detached))
        return cls

    monkeypatch.setattr(cardinality, "classify", checked_classify)
    for g, nodes in _differential_inputs():
        _outcome(stable_set_min_alpha4, g, nodes)
    assert sum(stopped) > 1000


def test_cycle_costs_the_same_queries_at_every_length():
    counts = set()
    for n in range(8, 201):
        g = cycle(n)
        report = stable_set_min_alpha4(g)
        assert report.exact_alpha is None and is_stable_set(g, report.nodes)
        counts.add(g.counter.count)
    assert len(counts) == 1


def test_edgeless_header_costs_a_few_queries():
    # The triple's pass stops at node 3 instead of asking 3 anchors of each
    # of the 2^16 declared nodes.
    g, weights = read_instance("p edge 65536 0\n")
    out = mwss_alpha3(g, weights)
    assert out == AlphaAtLeast4((0, 1, 2, 3))
    assert g.counter.count <= 10
