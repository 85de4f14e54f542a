import dataclasses

import pytest

import clawmwss.gen as gen
from clawmwss import build_graph, generate, read_instance, write_instance
from clawmwss.gen import (
    EDGE_LIMIT,
    GenSpec,
    SplitMix64,
    line_graph,
    sample_spec,
    verify_certificate,
)
from clawmwss.graph import NODE_LIMIT, induced_subgraph
from clawmwss.oracles import (
    brute_alpha_min4,
    brute_mwss,
    is_stable_set,
)

from helpers import (
    assert_right_sized_store,
    brute_mwss_full,
    complement_triangle_free_by_pairs,
    complete,
    cycle,
    edge_set,
    first_claw,
    line_graph_by_pairs,
    random_graph,
    star,
)


def test_splitmix64_reference_sequence():
    # Known-answer vectors for the standard SplitMix64 constants, seed 0.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_bounds():
    rng = SplitMix64(9)
    for _ in range(200):
        assert 3 <= rng.randint(3, 7) <= 7
    with pytest.raises(ValueError):
        rng.below(0)


@pytest.mark.parametrize("n,k", [(1, 0), (5, 0), (1, 4), (2, 33), (100, 250), (7, 1),
                                 (1 << 40, 20), ((1 << 64) + 3, 9)])
def test_below_many_equals_repeated_below(n, k):
    many, one = SplitMix64(n + k), SplitMix64(n + k)
    assert many.below_many(n, k) == [one.below(n) for _ in range(k)]
    assert many.next_u64() == one.next_u64()


@pytest.mark.parametrize("n", [0, -1, -(1 << 70)])
@pytest.mark.parametrize("k", [0, 3])
def test_below_many_rejects_a_non_positive_bound_and_draws_nothing(n, k):
    rng = SplitMix64(11)
    with pytest.raises(ValueError):
        rng.below(n)
    with pytest.raises(ValueError):
        rng.below_many(n, k)
    assert rng.next_u64() == SplitMix64(11).next_u64()


def test_brute_alpha_examples():
    assert brute_alpha_min4(cycle(7)) == 3
    assert brute_alpha_min4(cycle(9)) == 4
    assert brute_alpha_min4(complete(5)) == 1
    assert brute_alpha_min4(build_graph(0, [])) == 0
    assert brute_alpha_min4(build_graph(3, [])) == 3
    assert brute_alpha_min4(build_graph(6, [])) == 4


def test_brute_mwss_examples():
    g = cycle(7)
    weights = [i + 1 for i in range(7)]
    assert brute_mwss(g, weights) == ((2, 4, 6), 15)
    assert brute_mwss_full(g, weights) == ((2, 4, 6), 15)
    assert brute_mwss(complete(5), [1] * 5) == ((0,), 1)
    assert brute_mwss(build_graph(0, []), []) == ((), 0)


def test_brute_mwss_admits_empty_set_under_negative_weights():
    assert brute_mwss(cycle(5), [-1] * 5) == ((), 0)


def test_brute_mwss_rejects_large_alpha_big_n():
    g = build_graph(30, [])
    with pytest.raises(ValueError):
        brute_mwss(g, [1] * 30)
    # Small n is no exception: the size <= 3 scan never answers alpha >= 4.
    with pytest.raises(ValueError, match="alpha <= 3"):
        brute_mwss(cycle(9), [1] * 9)


def test_brute_mwss_size_scan_equals_full_enumeration():
    # Whenever the non-negative nodes have alpha <= 3, decided on the
    # subgraph they induce, this pits the size-limited scan against the
    # independent all-subsets enumeration of the whole graph; both must
    # agree exactly.  Every other draw must be refused.
    rng = SplitMix64(70)
    small_alpha = 0
    for _ in range(300):
        n = rng.randint(1, 16)
        g = random_graph(rng, n, rng.randint(20, 95))
        weights = [rng.randint(-8, 12) for _ in range(n)]
        sub, _ = induced_subgraph(g, [v for v in range(n) if weights[v] >= 0])
        if brute_alpha_min4(sub) <= 3:
            small_alpha += 1
            assert brute_mwss(g, weights) == brute_mwss_full(g, weights)
        else:
            with pytest.raises(ValueError, match="alpha <= 3"):
                brute_mwss(g, weights)
    assert small_alpha > 100
    # C8 and C9 have alpha 4.  Two adjacent negative nodes leave P6 of C8,
    # alpha 3, which now gets an answer; one leaves P8 of C9, alpha 4 still.
    weights = [-1, -1] + [1] * 6
    assert brute_mwss(cycle(8), weights) == brute_mwss_full(cycle(8), weights) == ((2, 4, 6), 3)
    with pytest.raises(ValueError, match="alpha <= 3"):
        brute_mwss(cycle(9), [-1] + [1] * 8)


def test_brute_clawfree_examples():
    claw, _ = first_claw(star(3))
    assert claw is not None and claw.center == 0
    assert first_claw(cycle(7))[0] is None


def test_line_graph_of_triangle_is_triangle():
    g = line_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert (g.n, g.m) == (3, 3)
    assert brute_alpha_min4(g) == 1


def test_line_graph_of_three_disjoint_edges_is_edgeless():
    g = line_graph(6, [(0, 1), (2, 3), (4, 5)])
    assert (g.n, g.m) == (3, 0)
    assert brute_alpha_min4(g) == 3


def test_minimal_cover3_instance_is_three_isolated_nodes():
    g, weights, cert = generate(GenSpec("line_graph_cover3", size=0, seed=1))
    assert (g.n, g.m) == (3, 0)
    assert cert.alpha_bound == 3 and cert.exact
    verify_certificate(g, cert)


def test_leaf_draws_that_never_meet_a_new_leaf_raise_instead_of_spinning(monkeypatch):
    calls = 0

    def stuck(self, n):
        nonlocal calls
        calls += 1
        if calls > 10**5:
            raise AssertionError("the leaf draws did not stop")
        return 0

    monkeypatch.setattr(SplitMix64, "below", stuck)
    with pytest.raises(RuntimeError, match="fewer than 13 distinct leaves in 608 draws"):
        generate(GenSpec("line_graph_cover3", size=300, seed=5))


def test_generate_is_deterministic_and_seed_sensitive():
    spec = GenSpec("line_graph_cover3", size=120, seed=99)
    g1, w1, c1 = generate(spec)
    g2, w2, c2 = generate(spec)
    assert edge_set(g1) == edge_set(g2) and w1 == w2 and c1 == c2
    assert write_instance(g1, w1, c1.comment_lines()) == write_instance(
        g2, w2, c2.comment_lines()
    )
    g3, w3, _ = generate(GenSpec("line_graph_cover3", size=120, seed=100))
    assert edge_set(g1) != edge_set(g3) or w1 != w3
    # A spec that names no seed takes seed 0.
    assert generate(GenSpec("line_graph_cover3", size=120))[1] == generate(
        GenSpec("line_graph_cover3", size=120, seed=0)
    )[1]


def test_generate_rejects_bad_specs(monkeypatch):
    with pytest.raises(ValueError):
        generate(GenSpec("cycle", size=2, seed=0))
    with pytest.raises(ValueError):
        generate(GenSpec("no_such_kind", size=5, seed=0))
    with pytest.raises(ValueError):
        generate(GenSpec("cycle", size=5, weight_lo=3, weight_hi=2, seed=0))
    with pytest.raises(ValueError, match="empty weight range"):
        generate(GenSpec("cycle", 5, 5, 1))
    # Without its own check, a negative size would give a one-node graph.
    with pytest.raises(ValueError, match="negative size"):
        generate(GenSpec("complement_triangle_free", -1))
    assert generate(GenSpec("cycle", 5, 7, 7))[1] == [7] * 5
    # Exactly what read_instance accepts: weights up to 2^61 in magnitude
    # and at most 2^20 nodes.  The values just above each cap are refused
    # before anything is allocated.
    _, weights, _ = generate(GenSpec("cycle", 5, -(2**61), 2**61, seed=0))
    assert max(map(abs, weights)) <= 2**61
    for lo, hi in ((-(2**61) - 1, 0), (0, 2**61 + 1)):
        with pytest.raises(ValueError, match="magnitude"):
            generate(GenSpec("cycle", size=5, weight_lo=lo, weight_hi=hi, seed=0))
    for kind in ("cycle", "complement_triangle_free"):
        with pytest.raises(ValueError):
            generate(GenSpec(kind, size=NODE_LIMIT + 1, seed=0))
    # The smallest line_graph_cover3 size whose bound 3d + 3 passes 2^20;
    # one size less is refused only for its edges.
    with pytest.raises(ValueError, match=f"exceed {NODE_LIMIT} nodes"):
        generate(GenSpec("line_graph_cover3", size=183_251_588_438, seed=0))
    with pytest.raises(ValueError, match=f"exceed {EDGE_LIMIT} edges"):
        generate(GenSpec("line_graph_cover3", size=183_251_588_437, seed=0))
    # The smallest sizes whose edge bound passes EDGE_LIMIT = 2^23:
    # 3 * C(d + 2, 2) + 5d at d = 2362, and C(4097, 2).
    assert EDGE_LIMIT == 1 << 23
    for kind, size in (("line_graph_cover3", 8_368_566), ("complement_triangle_free", 4097)):
        with pytest.raises(ValueError, match=f"exceed {EDGE_LIMIT} edges"):
            generate(GenSpec(kind, size=size, seed=0))
    # 2^20 nodes pass the node cap, and the edges then fail.
    with pytest.raises(ValueError, match=f"exceed {EDGE_LIMIT} edges"):
        generate(GenSpec("complement_triangle_free", size=NODE_LIMIT, seed=0))
    # The same bounds at a cap small enough to build: the line_graph_cover3
    # bound is 88 at d = 5 (sizes 38..53) and 114 at d = 6, and C(13, 2) =
    # 78, C(14, 2) = 91.
    monkeypatch.setattr(gen, "EDGE_LIMIT", 88)
    for kind, size in (("line_graph_cover3", 53), ("complement_triangle_free", 13)):
        assert generate(GenSpec(kind, size=size, seed=0))[0].m <= 88
        with pytest.raises(ValueError, match="exceed 88 edges"):
            generate(GenSpec(kind, size=size + 1, seed=0))


def test_generator_outputs_are_certified_claw_free():
    rng = SplitMix64(71)
    for _ in range(1000):
        spec = sample_spec(rng, 40, negative_weights=bool(rng.below(2)))
        g, weights, cert = generate(spec)
        assert g.n <= 40
        assert len(weights) == g.n
        lo, hi = (spec.weight_lo, spec.weight_hi)
        assert all(lo <= w <= hi for w in weights)
        verify_certificate(g, cert)  # includes oracle recheck at this size
        assert_right_sized_store(g)
        assert first_claw(g)[0] is None
        alpha = brute_alpha_min4(g)
        if cert.exact:
            assert alpha == min(cert.alpha_bound, 4)
        else:
            assert alpha <= cert.alpha_bound
    # The node cap holds down to the smallest cap verify takes.
    for max_n in range(3, 9):
        for _ in range(50):
            assert generate(sample_spec(rng, max_n, negative_weights=False))[0].n <= max_n


def test_line_graphs_of_random_hosts_are_claw_free():
    rng = SplitMix64(73)
    for _ in range(200):
        hn = rng.randint(2, 10)
        hedges = [
            (u, v)
            for u in range(hn)
            for v in range(u + 1, hn)
            if rng.below(100) < 45
        ]
        g = line_graph(hn, hedges)
        assert first_claw(g)[0] is None


def _same_store(g, ref):
    assert (g.n, g.m) == (ref.n, ref.m)
    assert [g.neighbor_set(v) for v in range(g.n)] == [ref.neighbor_set(v) for v in range(ref.n)]
    assert_right_sized_store(g)


def test_line_graph_matches_the_pairwise_build():
    rng = SplitMix64(74)
    hosts = [
        (5, []),  # edgeless
        (7, [(0, 1), (2, 3)]),  # isolated host nodes
        (9, [(0, leaf) for leaf in range(1, 9)]),  # a star
        # 351 host edges, so the line graph's ids are not all cached ints.
        (40, [(u, v) for u in range(40) for v in range(u + 1, 40) if u * v % 3]),
    ]
    for _ in range(220):
        hn = rng.randint(1, 14)
        percent = rng.below(101)
        hedges = [
            (v, u) if rng.below(2) else (u, v)
            for u in range(hn)
            for v in range(u + 1, hn)
            if rng.below(100) < percent
        ]
        hosts.append((hn, hedges))
    for hn, hedges in hosts:
        _same_store(line_graph(hn, hedges), line_graph_by_pairs(hn, hedges))


def test_complement_generator_matches_the_pairwise_build():
    rng = SplitMix64(75)
    sizes = [0, 1, 2, 3, 300] + [rng.randint(1, 40) for _ in range(200)]
    for size in sizes:
        spec = GenSpec("complement_triangle_free", size, -50, 50, seed=rng.next_u64())
        g, weights, cert = generate(spec)
        ref, ref_weights, part = complement_triangle_free_by_pairs(spec)
        _same_store(g, ref)
        assert (weights, cert.detail["part"]) == (ref_weights, part)


def test_certificate_round_trips_through_instance_comments():
    g, weights, cert = generate(GenSpec("cycle", size=9, seed=5))
    text = write_instance(g, weights, comments=cert.comment_lines())
    g2, w2 = read_instance(text)
    assert edge_set(g2) == edge_set(g) and w2 == weights


def test_verify_certificate_catches_corruption():
    g, _, cert = generate(GenSpec("line_graph_cover3", size=60, seed=3))
    # Claim a different graph entirely.
    other = cycle(g.n)
    with pytest.raises(ValueError):
        verify_certificate(other, cert)


def _with_detail(cert, **detail):
    return dataclasses.replace(cert, detail={**cert.detail, **detail})


def _flip_part_of_node_with_non_neighbour(g, cert):
    u = next(v for v in range(g.n) if len(g.neighbor_set(v)) < g.n - 1)
    part = list(cert.detail["part"])
    part[u] ^= 1
    return g, _with_detail(cert, part=part)


def _replace_host_edge_3(g, cert):
    hedges = list(cert.detail["host_edges"])
    hedges[3] = (98, 99)  # no end is a center
    return g, _with_detail(cert, host_edges=hedges)


# One seeded corruption per rejection reason of verify_certificate:
# reason -> (kind, size, change(g, cert) -> (g, cert)).
CORRUPTIONS = {
    "host edge count differs": (
        "line_graph_cover3", 60,
        lambda g, c: (g, _with_detail(c, host_edges=c.detail["host_edges"][:-1])),
    ),
    "host edge 3 misses the 3-node cover": ("line_graph_cover3", 60, _replace_host_edge_3),
    "adjacency of nodes 0,1 contradicts host edges": (
        "line_graph_cover3", 60, lambda g, c: (cycle(g.n), c),
    ),
    "claimed disjoint host edges share an endpoint": (
        "line_graph_cover3", 60, lambda g, c: (g, _with_detail(c, disjoint=[0, 3])),
    ),
    "part vector length differs": (
        "complement_triangle_free", 12,
        lambda g, c: (g, _with_detail(c, part=c.detail["part"][:-1])),
    ),
    "stays inside part": ("complement_triangle_free", 12, _flip_part_of_node_with_non_neighbour),
    # The only bad non-edge joins two consecutive ids.
    "stays inside part 0": (
        "complement_triangle_free", 12,
        lambda g, c: (build_graph(3, [(0, 2), (1, 2)]), _with_detail(c, part=[0, 0, 1])),
    ),
    "cycle certificate size mismatch": (
        "cycle", 7, lambda g, c: (g, _with_detail(c, length=8)),
    ),
    "node 0 is not a cycle node": (
        "cycle", 6,
        lambda g, c: (build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]), c),
    ),
    "unknown certificate kind 'path'": (
        "cycle", 7, lambda g, c: (g, dataclasses.replace(c, kind="path")),
    ),
    "alpha is 3, certificate claims 2": (
        "cycle", 7, lambda g, c: (g, dataclasses.replace(c, alpha_bound=2)),
    ),
    "alpha is 2, certificate bound is 1": (
        "complement_triangle_free", 12, lambda g, c: (g, dataclasses.replace(c, alpha_bound=1)),
    ),
}


@pytest.mark.parametrize("reason", CORRUPTIONS)
def test_verify_certificate_rejects_each_corruption(reason):
    kind, size, change = CORRUPTIONS[reason]
    g, _, cert = generate(GenSpec(kind, size=size, seed=3))
    verify_certificate(g, cert)  # the uncorrupted pair passes
    g, cert = change(g, cert)
    with pytest.raises(ValueError, match=reason):
        verify_certificate(g, cert)


def test_verify_certificate_rejects_disjoint_edges_sharing_their_second_end():
    # Catches dropping the ``hv in ends`` operand: the two edges' first ends
    # differ, so only their second ends meet.
    g, _, cert = generate(GenSpec("line_graph_cover3", size=60, seed=3))
    hedges = cert.detail["host_edges"]
    a, b = next(
        (a, b) for a in range(g.n) for b in range(a + 1, g.n) if hedges[a][1] == hedges[b][1]
    )
    assert hedges[a][0] != hedges[b][0]
    with pytest.raises(ValueError, match="claimed disjoint host edges share an endpoint"):
        verify_certificate(g, _with_detail(cert, disjoint=[a, b]))


def test_verify_cycle_certificate_rejects_a_chord():
    # Catches dropping the ``g.m != n`` operand: the chord would then fail
    # the per-node check with another message.
    g, _, cert = generate(GenSpec("cycle", size=7, seed=3))
    chorded = build_graph(7, [*((i, (i + 1) % 7) for i in range(7)), (0, 3)])
    with pytest.raises(ValueError, match="cycle certificate size mismatch"):
        verify_certificate(chorded, cert)


def test_verify_certificate_checks_only_the_structure_above_80_nodes(monkeypatch):
    # Catches dropping or inverting the ``g.n <= 80`` guard, which would call
    # the alpha oracle here, and a mutant that leaves the structural check
    # to small graphs, which would let the tampered certificate through.
    g, _, cert = generate(GenSpec("line_graph_cover3", size=1500, seed=3))
    assert g.n > 80

    def refuse(g):
        raise AssertionError("the alpha oracle ran above 80 nodes")

    monkeypatch.setattr(gen, "brute_alpha_min4", refuse)
    verify_certificate(g, cert)
    with pytest.raises(ValueError, match="claimed disjoint host edges share an endpoint"):
        verify_certificate(g, _with_detail(cert, disjoint=[0, 3]))
    # The oracle runs up to 80 nodes exactly.
    sizes = []
    monkeypatch.setattr(gen, "brute_alpha_min4", lambda g: sizes.append(g.n) or 4)
    for n in (80, 81):
        g, _, cert = generate(GenSpec("cycle", n, seed=0))
        verify_certificate(g, cert)
    assert sizes == [80]


def test_cycle_certificates_are_exact():
    for n, alpha in ((3, 1), (4, 2), (7, 3), (9, 4), (12, 4)):
        g, _, cert = generate(GenSpec("cycle", size=n, seed=0))
        assert brute_alpha_min4(g) == min(cert.alpha_bound, 4) == alpha


def test_complement_triangle_free_alpha_at_most_2():
    rng = SplitMix64(72)
    for _ in range(100):
        g, _, cert = generate(
            GenSpec("complement_triangle_free", size=rng.randint(1, 30), seed=rng.next_u64())
        )
        assert cert.alpha_bound == 2 and not cert.exact
        assert brute_alpha_min4(g) <= 2
        verify_certificate(g, cert)


def test_brute_stable_helpers():
    g = cycle(6)
    assert is_stable_set(g, (0, 2, 4))
    assert is_stable_set(g, (0, 1)) is False
    assert is_stable_set(g, (0, 0)) is False
    assert is_stable_set(g, ())
