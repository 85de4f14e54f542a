import pytest

from clawmwss import Graph, build_graph, stable_set_min_alpha4
from clawmwss.gen import SplitMix64
from clawmwss.graph import (
    _PairTable,
    asking_each_pair_once,
    induced_subgraph,
    is_clique_or_witness,
    is_null_to,
)
from clawmwss.instances import write_instance
from clawmwss.structure import classify

from helpers import (
    assert_right_sized_store,
    clique_witness_by_pairs,
    complete,
    cycle,
    edge_set,
    random_graph,
)


def test_build_path_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert (g.n, g.m) == (3, 2)
    assert [len(g.neighbor_set(v)) for v in range(3)] == [1, 2, 1]
    assert g.neighbors(1) == (0, 2)
    assert (repr(g), repr(g.counter)) == ("Graph(n=3, m=2)", "QueryCounter(0)")


def test_build_single_node():
    g = build_graph(1, [])
    assert (g.n, g.m) == (1, 0)


def test_build_collapses_duplicate_edges():
    g = build_graph(4, [(0, 1), (0, 1), (2, 3)])
    assert g.m == 2
    g = build_graph(4, [(0, 1), (1, 0), (2, 3)])
    assert g.m == 2


def test_derived_views_match_the_distinct_edge_list():
    rng = SplitMix64(808)
    for _ in range(300):
        n = rng.randint(1, 25)
        percent = rng.randint(0, 100)
        distinct = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.below(100) < percent
        ]
        # Each edge one to three times, each copy in a random orientation,
        # shuffled.
        stream = [
            (u, v) if rng.below(2) else (v, u)
            for u, v in distinct
            for _ in range(rng.randint(1, 3))
        ]
        for i in range(len(stream) - 1, 0, -1):
            j = rng.below(i + 1)
            stream[i], stream[j] = stream[j], stream[i]
        g = build_graph(n, stream)

        assert g.m == len(distinct)
        expected = f"p edge {n} {len(distinct)}\n" + "".join(
            f"e {u + 1} {v + 1}\n" for u, v in distinct
        )
        assert write_instance(g, [1] * n) == expected
        for v in range(n):
            nbrs = g.neighbor_set(v)
            assert nbrs == {b if a == v else a for a, b in distinct if v in (a, b)}
            assert g.neighbors(v) == tuple(sorted(nbrs))
        assert_right_sized_store(g)


def test_build_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        build_graph(3, [(1, 1)])


def test_build_rejects_negative_node_count():
    with pytest.raises(ValueError, match="negative node count"):
        build_graph(-1, [])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [(0, 3)])


@pytest.mark.parametrize("edge", [(3, 0), (-1, 0)])
def test_build_rejects_a_first_end_out_of_range(edge):
    # Catches dropping either bound on u: (3, 0) would index past the store
    # (an IndexError), and (-1, 0) would land in node 2's list unnoticed.
    with pytest.raises(ValueError, match="out of range"):
        build_graph(3, [edge])


def test_adjacent_on_cycle_and_complete():
    c7 = cycle(7)
    assert c7.adjacent(0, 1)
    assert not c7.adjacent(0, 2)
    k5 = complete(5)
    assert all(k5.adjacent(u, v) for u in range(5) for v in range(5) if u != v)


def test_adjacent_counts_every_call():
    g = cycle(7)
    assert g.counter.count == 0
    g.adjacent(0, 1)
    g.adjacent(0, 2)
    g.adjacent(2, 0)
    assert g.counter.count == 3


def test_adjacent_range_check():
    g = cycle(5)
    for u, v in ((0, 5), (5, 0), (-1, 0)):
        with pytest.raises(IndexError, match="node id out of range"):
            g.adjacent(u, v)
    assert g.counter.count == 0


def test_adjacency_symmetric():
    rng = SplitMix64(11)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 15), rng.randint(0, 100))
        for u in range(g.n):
            for v in range(g.n):
                if u != v:
                    assert g.adjacent(u, v) == g.adjacent(v, u)


def test_with_counter_shares_structure_not_counts():
    g = cycle(7)
    view = g.with_counter()
    view.adjacent(0, 1)
    assert view.counter.count == 1
    assert g.counter.count == 0
    assert view.neighbors(0) == g.neighbors(0)


def test_clique_witness_examples():
    assert is_clique_or_witness(complete(5), [0, 1, 2]) is None
    assert is_clique_or_witness(cycle(7), [0, 2]) == (0, 2)
    assert is_clique_or_witness(cycle(7), []) is None
    assert is_clique_or_witness(cycle(7), [3]) is None
    # An id out of range fails as the oracle does, not as a list index.
    for nodes in ([5, 0], [-1, 0]):
        with pytest.raises(IndexError, match="node id out of range"):
            is_clique_or_witness(cycle(5), nodes)


def test_clique_rows_charge_what_the_pair_loop_charges():
    rng = SplitMix64(1313)
    verdicts = []
    for _ in range(2000):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.randint(60, 100))
        nodes = [rng.below(n) for _ in range(rng.randint(0, 9))]
        if rng.below(2):
            nodes = sorted(set(nodes))
        batch, pairs = g.with_counter(), g.with_counter()
        verdict = is_clique_or_witness(batch, nodes)
        assert verdict == clique_witness_by_pairs(pairs, nodes)
        assert batch.counter.count == pairs.counter.count
        verdicts.append(verdict is None)
    assert 200 < sum(verdicts) < 1800
    # An id out of range is refused as the oracle refuses it.
    for nodes in ([0, 1, 7], [7, 0], [-1, 0]):
        with pytest.raises(IndexError):
            is_clique_or_witness(complete(3), nodes)


def _shuffled(rng, nodes):
    nodes = list(nodes)
    for i in range(len(nodes) - 1, 0, -1):
        j = rng.below(i + 1)
        nodes[i], nodes[j] = nodes[j], nodes[i]
    return nodes


def test_the_pair_table_charges_each_decided_pair_once():
    # Single queries and clique checks in any order, over all ids or a
    # subset: the count is always the number of distinct pairs decided so
    # far, and every answer and witness is the plain graph's.
    rng = SplitMix64(1414)
    for _ in range(400):
        n = rng.randint(1, 24)
        g = random_graph(rng, n, rng.randint(40, 100))
        keep = range(n) if rng.below(2) else [v for v in range(n) if rng.below(4)]
        view = _PairTable(g, keep)
        decided = set()
        for _ in range(rng.randint(1, 12)):
            nodes = _shuffled(rng, [v for v in keep if rng.below(3)])
            if len(nodes) >= 2 and rng.below(3) == 0:
                u, v = nodes[:2]
                assert view.adjacent(u, v) == (v in g.neighbor_set(u))
                decided.add(frozenset((u, v)))
            else:
                witness = is_clique_or_witness(view, nodes)
                assert witness == clique_witness_by_pairs(g.with_counter(), nodes)
                stop = len(nodes) if witness is None else nodes.index(witness[0])
                decided.update(
                    frozenset((u, v)) for i, u in enumerate(nodes[:stop]) for v in nodes[i + 1 :]
                )
                if witness is not None:
                    row = nodes[stop + 1 :]
                    decided.update(frozenset((witness[0], v)) for v in row[: row.index(witness[1]) + 1])
            assert view.counter.count == len(decided)
        # The view charges the graph's own counter, which the benchmark's
        # query probe collects.
        assert view.counter is g.counter


def test_the_pair_table_needs_a_dense_kept_subgraph():
    # k^2 <= 8 m_k + 4k, with m_k counted inside keep: every subgraph with
    # alpha <= 3 passes, and a table never outgrows O(m_k + k).
    path = build_graph(9, [(v, v + 1) for v in range(5)])  # P6 and 3 lone nodes
    k4 = build_graph(8, [(u, v) for u in range(4) for v in range(u + 1, 4)])  # and 4
    cases = [
        (build_graph(4, []), range(4), True),  # 16 <= 0 + 16
        (build_graph(5, []), range(5), False),  # 25 > 0 + 20
        (path, range(9), False),  # 81 > 40 + 36
        (path, [0, 1, 2, 6, 7, 8], True),  # 36 <= 16 + 24
        (k4, [0, 1, 4, 5, 6, 7], False),  # 36 > 8 + 24: 4 edges leave keep
        (k4, [0, 1, 2, 4, 5, 6], True),
    ]
    for g, keep, table in cases:
        view = asking_each_pair_once(g, keep)
        assert isinstance(view, _PairTable) if table else view is g


def test_null_examples():
    c7 = cycle(7)
    assert is_null_to(c7, [0], [3]) is None
    assert is_null_to(c7, [0], [1]) == (0, 1)
    assert is_null_to(c7, [], list(range(7))) is None


def test_induced_subgraph_full_and_empty():
    c7 = cycle(7)
    whole, idmap = induced_subgraph(c7, range(7))
    assert edge_set(whole) == edge_set(c7)
    assert idmap == {v: v for v in range(7)}
    nothing, idmap = induced_subgraph(c7, [])
    assert (nothing.n, nothing.m) == (0, 0)
    assert idmap == {}
    assert_right_sized_store(whole)


def test_induced_subgraph_c7_prefix_is_path():
    sub, idmap = induced_subgraph(cycle(7), [0, 1, 2])
    assert (sub.n, sub.m) == (3, 2)
    assert sorted(idmap) == [0, 1, 2]
    assert [len(sub.neighbor_set(v)) for v in range(3)] == [1, 2, 1]
    assert_right_sized_store(sub)


def test_induced_subgraphs_of_random_graphs_keep_the_store_invariants():
    rng = SplitMix64(501)
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 30), rng.randint(0, 100))
        keep = [v for v in range(g.n) if rng.below(3)]
        sub, idmap = induced_subgraph(g, keep)
        assert edge_set(sub) == {
            (idmap[u], idmap[v]) for u, v in edge_set(g) if u in idmap and v in idmap
        }
        assert_right_sized_store(sub)


def test_clique_and_null_verdicts_match_exhaustive_scan():
    rng = SplitMix64(500)
    for _ in range(500):
        n = rng.randint(1, 50)
        g = random_graph(rng, n, rng.randint(0, 100))
        k = [v for v in range(n) if rng.below(3) == 0]
        verdict = is_clique_or_witness(g, k)
        pairs = [
            (u, v)
            for i, u in enumerate(k)
            for v in k[i + 1 :]
            if v not in g.neighbor_set(u)
        ]
        assert (verdict is None) == (not pairs)
        if verdict is not None:
            u, v = verdict
            assert v not in g.neighbor_set(u)

        rest = [v for v in range(n) if v not in k]
        half = rest[: len(rest) // 2]
        other = rest[len(rest) // 2 :]
        crossing = is_null_to(g, half, other)
        brute = [
            (a, b) for a in half for b in other if b in g.neighbor_set(a)
        ]
        assert (crossing is None) == (not brute)
        if crossing is not None:
            a, b = crossing
            assert b in g.neighbor_set(a)


def test_counter_equals_shadow_instrumentation(monkeypatch):
    calls = {"n": 0}
    original = Graph.adjacent

    def spy(self, u, v):
        calls["n"] += 1
        return original(self, u, v)

    monkeypatch.setattr(Graph, "adjacent", spy)
    g = cycle(9)
    is_clique_or_witness(g, [0, 2, 4])
    classify(g, range(g.n), (0, 2, 4))
    stable_set_min_alpha4(g)
    assert g.counter.count == calls["n"] > 0
