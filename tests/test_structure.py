import time
import tracemalloc
from math import comb

import pytest

from clawmwss import (
    Claw,
    ClawWitnessError,
    Graph,
    Optimal,
    build_graph,
    find_claw,
    generate,
    mwss_alpha3,
)
from clawmwss.gen import GenSpec, SplitMix64
from clawmwss.graph import _PairTable, asking_each_pair_once
from clawmwss.structure import classify

from helpers import (
    bench_instances,
    complete,
    cycle,
    edge_set,
    first_claw,
    pair_table_fits,
    random_clawfree,
    random_graph,
    star,
)


def test_find_claw_on_star():
    claw = find_claw(star(3))
    assert claw is not None
    assert claw.center == 0
    assert claw.leaves == (1, 2, 3)


def test_find_claw_none_on_cycle_and_clique():
    assert find_claw(cycle(7)) is None
    assert find_claw(complete(6)) is None


def test_find_claw_is_deterministic():
    g = star(5)
    assert find_claw(g) == find_claw(g)


def test_find_claw_stops_at_the_earliest_claw_of_a_wide_star():
    # The scan must stop at the first claw and build only the rows it
    # reaches: all rows of this centre together take about d^3/64 word
    # operations.
    g = star(1 << 13)
    started = time.perf_counter()
    assert find_claw(g) == Claw(0, (1, 2, 3))
    assert time.perf_counter() - started < 1.0


def test_find_claw_shares_one_empty_set_among_nodes_without_higher_neighbors():
    g = Graph([()] * (1 << 16))
    tracemalloc.start()
    try:
        assert find_claw(g) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * g.n


def test_find_claw_agrees_with_brute_force():
    rng = SplitMix64(303)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 20), rng.randint(5, 60))
        claw = find_claw(g)
        assert claw == first_claw(g)[0]
        if claw is None:
            continue
        x, y, z = claw.leaves
        nb = g.neighbor_set(claw.center)
        assert {x, y, z} <= nb
        assert y not in g.neighbor_set(x)
        assert z not in g.neighbor_set(x)
        assert z not in g.neighbor_set(y)


def test_find_claw_asks_each_neighbor_pair_once():
    g, _, _ = generate(GenSpec(kind="line_graph_cover3", size=300, seed=5))
    centers = [g.neighbors(c) for c in range(g.n) if len(g.neighbors(c)) >= 3]
    assert centers
    pairs = {(x, y) for nbrs in centers for x in nbrs for y in nbrs if x < y}
    view = g.with_counter()
    assert find_claw(view) is None
    # A pair that several centers share is asked once.
    assert view.counter.count == len(pairs) == 917
    assert len(pairs) < sum(comb(len(nbrs), 2) for nbrs in centers) == 5561


def test_find_claw_on_a_sparse_graph_allocates_no_pair_table():
    # 2^10 disjoint K4s: every node is a center of degree 3, and n^2 far
    # exceeds 8m + 4n.  Today's route peaks at about 170 bytes per node;
    # neighbour bitmasks and a pair table would take about 1,500 (6 MiB).
    g = build_graph(1 << 12, [(4 * b + i, 4 * b + j) for b in range(1 << 10)
                              for i in range(4) for j in range(i + 1, 4)])
    assert not pair_table_fits(g)
    view = g.with_counter()
    tracemalloc.start()
    try:
        assert find_claw(view) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * g.n
    assert view.counter.count == 3 * g.n


def _same_claw_and_count(g):
    """find_claw's (claw, queries) equal ``first_claw``'s; returns the claw
    and whether the graph takes the pair table's route."""
    ours = g.with_counter()
    claw = find_claw(ours)
    assert (claw, ours.counter.count) == first_claw(g)
    return claw, pair_table_fits(g)


def test_find_claw_equals_first_claw_on_random_graphs():
    rng = SplitMix64(305)
    claws, dense = 0, 0
    for _ in range(5000):
        claw, fits = _same_claw_and_count(random_graph(rng, rng.randint(3, 18), rng.randint(5, 95)))
        claws += claw is not None
        dense += fits
    assert 1000 < claws < 4000
    # Both routes run many times: 4,446 dense draws and 554 sparse ones.
    assert 1000 < dense < 4800


def test_find_claw_equals_first_claw_on_toggled_instances():
    rng = SplitMix64(306)
    claws, dense = 0, 0
    for _ in range(3000):
        g, _, _ = random_clawfree(rng, 30)
        edges = edge_set(g)
        for _ in range(rng.randint(1, 4)):
            u = rng.below(g.n)
            v = (u + 1 + rng.below(g.n - 1)) % g.n
            edges ^= {(min(u, v), max(u, v))}
        claw, fits = _same_claw_and_count(build_graph(g.n, edges))
        claws += claw is not None
        dense += fits
    assert 300 < claws < 2700
    # 2,384 dense draws and 616 sparse ones.
    assert 1000 < dense < 2700


def test_a_claw_check_and_the_solve_after_it_share_one_pair_table():
    g, weights = bench_instances([1024], seed=0)[0]
    view = asking_each_pair_once(g.with_counter(), range(g.n))
    assert isinstance(view, _PairTable)
    assert asking_each_pair_once(view, range(g.n)) is view
    assert asking_each_pair_once(view, [v for v in range(g.n) if v % 2]) is view
    assert find_claw(view) is None
    assert isinstance(mwss_alpha3(view, weights), Optimal)
    # The check alone charges all C(81, 2) = 3,240 pairs here, and the
    # solve on a table of its own 1,363 more (the bench pin).
    assert view.counter.count <= comb(g.n, 2)


def test_classify_c7_triple():
    cls = classify(cycle(7), range(7), (0, 2, 4))
    assert cls.anchors == (0, 2, 4)
    assert list(cls.exclusive_to(0)) == [6]
    assert list(cls.exclusive_to(2)) == []
    assert list(cls.exclusive_to(4)) == [5]
    assert list(cls.shared_by(0, 2)) == [1]
    assert list(cls.shared_by(2, 4)) == [3]
    assert list(cls.shared_by(0, 4)) == []
    assert list(cls.detached) == []


def test_classify_pair():
    # The pass stops at node 4, the first detached node; node 6 lies past it.
    cls = classify(cycle(7), range(7), (0, 2))
    assert cls.shared_by(0, 2) == (1,)
    assert cls.exclusive_to(2) == (3,)
    assert cls.exclusive_to(0) == ()
    assert cls.detached == (4,)


def test_classify_stops_at_detached_and_reads_known_answers():
    g = cycle(7)
    pair = classify(g, range(7), (0, 2))
    assert (pair.shared_by(0, 2), pair.exclusive_to(2), pair.detached) == ((1,), (3,), (4,))
    assert pair.exclusive_to(0) == ()  # node 6 lies past the stop
    assert g.counter.count == 6
    # Nodes 1 and 3 answer for anchors 0 and 2 from ``pair`` and ask only
    # anchor 4; nodes 5 and 6 ask all three.
    assert classify(g, range(7), (0, 2, 4), known=pair) == classify(cycle(7), range(7), (0, 2, 4))
    assert g.counter.count == 6 + 2 + 6


def test_classify_reports_claw_for_universal_node():
    # Node 3 is adjacent to all three stable anchors: a claw centered there.
    g = build_graph(4, [(0, 3), (1, 3), (2, 3)])
    with pytest.raises(ClawWitnessError) as excinfo:
        classify(g, range(g.n), (0, 1, 2))
    assert excinfo.value.center == 3
    assert excinfo.value.leaves == (0, 1, 2)
    assert g.counter.count == 0


def test_classification_partitions_remaining_nodes():
    rng = SplitMix64(1000)
    for _ in range(1000):
        g, _, _ = random_clawfree(rng, 30)
        assert find_claw(g) is None
        pair_or_triple = _some_stable_anchors(g, rng)
        if pair_or_triple is None:
            continue
        cls = classify(g, range(g.n), pair_or_triple)
        seen = {}
        for name, nodes in _named_sets(cls):
            for v in nodes:
                assert v not in seen, f"{v} in both {seen.get(v)} and {name}"
                seen[v] = name
        # The parts cover exactly the nodes up to the first detached one.
        anchors = set(cls.anchors)
        covered = set()
        for v in range(g.n):
            if v not in anchors:
                covered.add(v)
                if not anchors & g.neighbor_set(v):
                    break
        assert set(seen) == covered
        # Membership is exactly determined by anchor adjacency.
        for v, name in seen.items():
            hits = tuple(a for a in cls.anchors if v in g.neighbor_set(a))
            if not hits:
                assert name == "detached"
            elif len(hits) == 1:
                assert name == f"exclusive:{hits[0]}"
            else:
                assert name == f"shared:{hits}"
        # Exclusive and shared sets are local and obey the degree bound
        # maxdeg <= 2 * sqrt(2m), squared to stay in integers.
        if g.m:
            maxdeg = max(len(g.neighbor_set(v)) for v in range(g.n))
            assert maxdeg * maxdeg <= 8 * g.m
            for name, nodes in _named_sets(cls):
                if name != "detached":
                    assert len(nodes) <= maxdeg


def _some_stable_anchors(g, rng):
    """A stable pair or triple found by direct scan, or None."""
    n = g.n
    for u in range(n):
        for v in range(u + 1, n):
            if v in g.neighbor_set(u):
                continue
            for w in range(v + 1, n):
                if w not in g.neighbor_set(u) and w not in g.neighbor_set(v):
                    return (u, v, w) if rng.below(2) else (u, v)
            return (u, v)
    return None


def _named_sets(cls):
    for key, nodes in cls.parts.items():
        if not key:
            yield "detached", nodes
        elif len(key) == 1:
            yield f"exclusive:{key[0]}", nodes
        else:
            yield f"shared:{key}", nodes
