"""Shared graph builders for the test suite."""

from __future__ import annotations

import itertools
import sys
from math import comb

from clawmwss import ClawWitnessError, Graph, StableSetReport, build_graph, generate, write_instance
from clawmwss import stable_set_min_alpha4
from clawmwss.graph import OrderedCliquePrefix
from clawmwss.cardinality import extend_to_four, extend_to_three, stable_pair
from clawmwss.gen import GenSpec, SplitMix64, sample_spec
from clawmwss.oracles import adjacency_masks
from clawmwss.structure import Claw, Classification


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle_power(k: int) -> Graph:
    """C_n^k with n = 4(k + 1) - 1: node i is adjacent to i +- 1..k mod n.
    A claw-free proper circular-arc graph with alpha = 3."""
    n = 4 * (k + 1) - 1
    return build_graph(n, [(i, (i + d) % n) for i in range(n) for d in range(1, k + 1)])


def cycle_power_weights(n: int) -> list[int]:
    """The weights of the pinned C_n^k solves: SplitMix64(1), 1..100 per
    node in id order."""
    rng = SplitMix64(1)
    return [rng.randint(1, 100) for _ in range(n)]


def random_graph(rng: SplitMix64, n: int, percent: int) -> Graph:
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.below(100) < percent
    ]
    return build_graph(n, edges)


def line_graph_by_pairs(host_n: int, host_edges) -> Graph:
    """Reference for ``gen.line_graph``: every pair of host edges that meet
    at a host node, streamed through ``build_graph``."""
    incident: list[list[int]] = [[] for _ in range(host_n)]
    for idx, (u, v) in enumerate(host_edges):
        incident[u].append(idx)
        incident[v].append(idx)
    pairs = itertools.chain.from_iterable(
        map(itertools.combinations, incident, itertools.repeat(2))
    )
    return build_graph(len(host_edges), pairs)


def complement_triangle_free_by_pairs(spec: GenSpec) -> tuple[Graph, list[int], list[int]]:
    """Reference for ``generate`` of a ``complement_triangle_free`` spec:
    (graph, weights, part) from one ``below`` call per draw, the complement
    of the base's edges streamed through ``build_graph``."""
    rng = SplitMix64(spec.seed)
    n = max(1, spec.size)
    part = [rng.below(2) for _ in range(n)]
    density = rng.randint(25, 75)
    base = set()
    for u in range(n):
        for v in range(u + 1, n):
            if part[u] != part[v] and rng.below(100) < density:
                base.add((u, v))
    g = build_graph(n, (p for p in itertools.combinations(range(n), 2) if p not in base))
    weights = [rng.randint(spec.weight_lo, spec.weight_hi) for _ in range(n)]
    return g, weights, part


def assert_right_sized_store(g: Graph) -> None:
    """The ``graph`` module's store invariants: each node's neighbors are a
    strictly ascending tuple without the node itself, the store is
    symmetric, each tuple is a bare header plus one 8-byte word per member,
    and the tuples share at most n int objects."""
    empty = sys.getsizeof(())
    for v in range(g.n):
        nbrs = g.neighbors(v)
        assert type(nbrs) is tuple
        assert all(a < b for a, b in zip(nbrs, nbrs[1:]))
        assert v not in nbrs
        assert all(v in g.neighbors(u) for u in nbrs)
        assert sys.getsizeof(nbrs) == empty + 8 * len(nbrs)
    assert len({id(u) for v in range(g.n) for u in g.neighbors(v)}) <= g.n


def random_clawfree(rng: SplitMix64, max_n: int, negative_weights: bool = False):
    """A certified claw-free instance of mixed kind: (graph, weights, spec)."""
    spec = sample_spec(rng, max_n, negative_weights)
    g, weights, _ = generate(spec)
    return g, weights, spec


MAX_REJECTS = 200


def exact_alpha3(g: Graph) -> StableSetReport | None:
    """The ``stable_set_min_alpha4`` report of g when alpha(g) = 3, else None."""
    report = stable_set_min_alpha4(g)
    return report if report.exact_alpha == 3 else None


def alpha3_instances(
    rng: SplitMix64, max_n: int, keep=exact_alpha3, negative: bool = False, draw=None
):
    """The draws that ``keep`` accepts, lazily and in draw order, as
    (graph, weights, extra, kept) with kept = ``keep(graph)``, not None.

    Each draw is ``draw(rng, max_n, negative)`` -> (graph, weights, extra),
    ``random_clawfree`` by default.  ``MAX_REJECTS`` rejected draws in a row
    raise AssertionError, so a fault that stops inputs from qualifying fails
    the caller instead of hanging it."""
    seed = rng._state
    rejects = 0
    while True:
        g, weights, extra = (draw or random_clawfree)(rng, max_n, negative)
        kept = keep(g)
        if kept is not None:
            rejects = 0
            yield g, weights, extra, kept
            continue
        rejects += 1
        if rejects == MAX_REJECTS:
            raise AssertionError(f"{rejects} draws in a row from SplitMix64({seed:#x}) rejected")


ARC_CIRCLE = 1000


def _arc_offset(a: tuple[int, int], b: tuple[int, int]) -> int:
    """How far round the circle arc b = (start, length) starts past arc a."""
    return (b[0] - a[0]) % ARC_CIRCLE


def arc_inside(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether arc b lies inside arc a, across the wrap too."""
    return _arc_offset(a, b) + b[1] <= a[1]


def arcs_meet(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return _arc_offset(a, b) <= a[1] or _arc_offset(b, a) <= b[1]


def proper_arcs(rng: SplitMix64, max_n: int, negative_weights: bool = False):
    """A proper circular-arc graph with alpha = 3 and at most max_n nodes:
    (graph, weights, (arcs, points, disjoint)).

    Node v is the arc ``arcs[v]`` = (start, length) on a circle of
    ARC_CIRCLE units; two nodes are adjacent when their arcs meet, and no
    arc lies inside another, so the graph is claw-free.  The arcs
    ``disjoint`` meet pairwise nowhere, so alpha >= 3: the k-th starts
    within 30 units past k thirds of the circle and is 220..299 units
    long.  Each of the three ``points`` lies in one of them, and every
    other arc holds one point too, so three cliques cover the graph:
    alpha <= 3.  An arc that would lie inside another or hold one is drawn
    again, at most 4 * max_n draws in all."""
    arcs = [(k * ARC_CIRCLE // 3 + rng.below(30), 220 + rng.below(80)) for k in range(3)]
    disjoint = list(arcs)
    points = [start + rng.below(length + 1) for start, length in arcs]
    n = 4 + rng.below(max_n - 3)
    for _ in range(4 * max_n):
        if len(arcs) == n:
            break
        length = 250 + rng.below(250)
        arc = ((points[rng.below(3)] - rng.below(length + 1)) % ARC_CIRCLE, length)
        if not any(arc_inside(a, arc) or arc_inside(arc, a) for a in arcs):
            arcs.append(arc)
    for i in range(len(arcs) - 1, 0, -1):
        j = rng.below(i + 1)
        arcs[i], arcs[j] = arcs[j], arcs[i]
    pairs = itertools.combinations(range(len(arcs)), 2)
    g = build_graph(len(arcs), [(u, v) for u, v in pairs if arcs_meet(arcs[u], arcs[v])])
    lo, hi = (-50, 50) if negative_weights else (1, 100)
    weights = [rng.randint(lo, hi) for _ in arcs]
    return g, weights, (arcs, points, sorted(map(arcs.index, disjoint)))


def arc_draws(count: int = 200):
    """The seeded ``proper_arcs`` draws that the arc tests read, as
    ``alpha3_instances`` tuples whose kept value is the draw's
    ``stable_set_min_alpha4`` report: ``count`` with weights 1..100, then
    ``count`` with weights -50..50.  Every draw is kept, as its
    certificates prove alpha = 3."""
    for negative in (False, True):
        draws = alpha3_instances(
            SplitMix64(0xA2C5 + negative), 60, stable_set_min_alpha4, negative, proper_arcs
        )
        yield from itertools.islice(draws, count)


def brute_mwss_full(g: Graph, weights) -> tuple[tuple[int, ...], int]:
    """Maximum-weight stable set, admitting the empty set, by enumerating
    every stable set whatever alpha is; ties go to the lexicographically
    smallest node tuple.  Reads only neighbor sets, so it shares no code
    with ``clawmwss.oracles``.  Small graphs only."""
    best = (0, ())

    def extend(chosen: tuple[int, ...], weight: int, candidates: list[int]) -> None:
        nonlocal best
        if weight > best[0] or (weight == best[0] and chosen < best[1]):
            best = (weight, chosen)
        for i, v in enumerate(candidates):
            nb = g.neighbor_set(v)
            rest = [u for u in candidates[i + 1 :] if u not in nb]
            extend(chosen + (v,), weight + weights[v], rest)

    extend((), 0, list(range(g.n)))
    return best[1], best[0]


def _full_partition(g: Graph, nodes, anchors) -> Classification:
    """Every node of ``nodes`` outside the stable ``anchors``, filed by the
    anchors it is adjacent to, read from neighbor sets (uncounted); raises
    the claw at the first node adjacent to all three anchors."""
    anchors = tuple(sorted(anchors))
    parts = {key: [] for r in range(3) for key in itertools.combinations(anchors, r)}
    for x in nodes:
        if x in anchors:
            continue
        hits = tuple(a for a in anchors if a in g.neighbor_set(x))
        if len(hits) == 3:
            raise ClawWitnessError(x, anchors)
        parts[hits].append(x)
    return Classification(anchors, {key: tuple(part) for key, part in parts.items()})


def three_sets_by_pairs(g: Graph, xs, ys, zs) -> tuple[int, int, int] | None:
    """Reference for ``cardinality.three_sets_stable`` that asks every x-y
    pair in scan order before it reads a clique mask: the first
    non-adjacent pair whose mask counts leave a gap in Z wins."""
    if not xs or not ys or not zs:
        return None
    clique = OrderedCliquePrefix.build(g, zs)
    p = len(zs)
    for x in xs:
        for y in ys:
            if g.adjacent(x, y):
                continue
            if clique.mask(x).bit_count() + clique.mask(y).bit_count() < p:
                return (x, y, clique.first_free(x, y))
    return None


def min_alpha4_by_full_passes(g: Graph, nodes) -> StableSetReport:
    """``stable_set_min_alpha4`` with two full partitions built without
    ``classify``: the pair's covers every node, and the triple's reads all
    three anchors of every node."""
    if not nodes:
        return StableSetReport(())
    pair = stable_pair(g, nodes)
    if pair is None:
        return StableSetReport((nodes[0],))
    triple = extend_to_three(g, _full_partition(g, nodes, pair))
    if triple is None:
        return StableSetReport(tuple(sorted(pair)))
    cls = _full_partition(g, nodes, triple)
    quad = extend_to_four(g, cls)
    return StableSetReport(triple, cls) if quad is None else StableSetReport(quad)


def bench_specs(sizes, seed: int) -> list[GenSpec]:
    """The specs that ``cli.run_bench(sizes, seed)`` generates."""
    rng = SplitMix64(seed)
    return [GenSpec("line_graph_cover3", size=size, seed=rng.next_u64()) for size in sizes]


def bench_instances(sizes, seed: int) -> list[tuple[Graph, list[int]]]:
    """The (graph, weights) pairs that ``cli.run_bench(sizes, seed)`` solves."""
    return [generate(spec)[:2] for spec in bench_specs(sizes, seed)]


def with_lightest_negative(weights: list[int]) -> list[int]:
    """A copy of ``weights`` whose lightest node (lowest weight, then lowest
    id) weighs -1."""
    lightest = min(range(len(weights)), key=lambda v: (weights[v], v))
    out = list(weights)
    out[lightest] = -1
    return out


def edges(g: Graph):
    """All edges as (u, v) with u < v, lexicographically ascending, read
    from the neighbor sets."""
    for u in range(g.n):
        for v in sorted(g.neighbor_set(u)):
            if u < v:
                yield (u, v)


def edge_set(g: Graph) -> set[tuple[int, int]]:
    return set(edges(g))


def clique_witness_by_pairs(g: Graph, nodes) -> tuple[int, int] | None:
    """Reference for ``graph.is_clique_or_witness``: every pair in scan
    order through the counted oracle, stopping at the first non-neighbour."""
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if not g.adjacent(u, v):
                return (u, v)
    return None


def first_claw(g: Graph) -> tuple[Claw | None, int]:
    """Reference for ``structure.find_claw``: (claw, queries).

    The claw is the first in scan order (center ascending, then leaf
    positions i < j < t in the center's neighbor tuple), by exhaustive scan
    of neighbor bitmasks.  ``queries`` is what ``find_claw`` charges:
    C(d, 2) for each center of degree d >= 3, up to and including the
    claw's center, or over every center when there is no claw.  Reads only
    neighbor tuples, through ``oracles.adjacency_masks``, so it shares no
    code with ``Graph.adjacent`` or ``clawmwss.structure``."""
    adj = adjacency_masks(g)
    queries = 0
    for center in range(g.n):
        nbrs = g.neighbors(center)
        k = len(nbrs)
        if k >= 3:
            queries += comb(k, 2)
        for i in range(k):
            x = nbrs[i]
            ax = adj[x]
            for j in range(i + 1, k):
                y = nbrs[j]
                if (ax >> y) & 1:
                    continue
                ay = adj[y]
                for t in range(j + 1, k):
                    z = nbrs[t]
                    if not ((ax >> z) & 1) and not ((ay >> z) & 1):
                        return Claw(center, (x, y, z)), queries
    return None, queries


_FUZZ_TOKENS = ("99999999999999999999", "1048577", "2305843009213693953", "x")


def mutate(data: bytes, rng) -> bytes:
    """One random edit of an instance file: drop, duplicate or truncate a
    line, swap in a hostile token, or set a byte to a non-ASCII value."""
    lines = data.split(b"\n")
    i = rng.below(len(lines))
    op = rng.below(5)
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        lines[i] = lines[i][: rng.below(len(lines[i]) + 1)]
    elif op == 3:
        tokens = lines[i].split(b" ")
        tokens[rng.below(len(tokens))] = _FUZZ_TOKENS[rng.below(len(_FUZZ_TOKENS))].encode()
        lines[i] = b" ".join(tokens)
    else:
        out = bytearray(data)
        out[rng.below(len(out))] = 0x80 + rng.below(0x80)
        return bytes(out)
    return b"\n".join(lines)


def mutant_corpus(count: int = 500):
    """``count`` seeded one-edit mutants of three small instance files, as
    bytes: a line graph, a complement of a bipartite graph and a cycle."""
    bases = []
    for spec in (
        GenSpec("line_graph_cover3", 60, -20, 50, seed=21),
        GenSpec("complement_triangle_free", 12, -20, 50, seed=22),
        GenSpec("cycle", 7, seed=23),
    ):
        g, weights, _ = generate(spec)
        bases.append(write_instance(g, weights, ["fuzz base"]).encode("ascii"))
    rng = SplitMix64(0xF022)
    for _ in range(count):
        yield mutate(bases[rng.below(len(bases))], rng)


def prefix_rows(g: Graph, order: list[int], probes) -> dict[int, list[int]]:
    """Per probe u, row[i] = number of neighbors of u among order[:i], read
    from the neighbor sets so no solver code is involved."""
    return {
        u: list(itertools.accumulate((z in g.neighbor_set(u) for z in order), initial=0))
        for u in probes
    }
