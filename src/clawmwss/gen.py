"""Certified instance generators.

Three families, each claw-free by construction with a known independence
bound, certified by a machine-checkable structural witness:

* ``line_graph_cover3``: the line graph of a host graph H whose edges are
  all covered by three fixed centers and which contains three pairwise
  disjoint edges.  Matchings of H are stable sets of L(H), so the cover
  bounds alpha from above by 3 and the disjoint edges reach it: alpha = 3.
* ``complement_triangle_free``: the complement of a random bipartite graph.
  A stable set here is a clique of the (triangle-free) base, so alpha <= 2.
* ``cycle``: the cycle C_n, alpha = floor(n/2).

All randomness comes from a SplitMix64 stream seeded by the spec, so equal
specs produce bit-identical instances on every platform.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import comb, isqrt
from typing import Iterator, Sequence

from .graph import NODE_LIMIT, WEIGHT_LIMIT, Graph, build_graph
from .oracles import brute_alpha_min4

_MASK64 = (1 << 64) - 1

KINDS = ("line_graph_cover3", "complement_triangle_free", "cycle")

# Specs whose instance could have more edges than this are refused before
# anything is allocated.  On CPython 3.11, generating and writing a
# 2^18-edge line graph peaks at about 19 bytes per edge above the
# interpreter's resident size, and solving it at about 24; a 0.9M-edge
# complement_triangle_free instance at about 24 and 23.  So the largest
# accepted instance needs about 0.2 GiB.
EDGE_LIMIT = 1 << 23


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix constants), integer-only."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def below_many(self, n: int, k: int) -> list[int]:
        """``[self.below(n) for _ in range(k)]`` in one local-variable loop."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        state = self._state
        out: list[int] = []
        append = out.append
        for _ in range(k):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            append((z ^ (z >> 31)) % n)
        self._state = state
        return out

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.below(hi - lo + 1)


@dataclass(frozen=True)
class GenSpec:
    """Reproducible instance description: same spec, same instance.

    ``size`` is kind-specific: target edge count for line_graph_cover3,
    node count for complement_triangle_free, cycle length for cycle.
    """

    kind: str
    size: int
    weight_lo: int = 1
    weight_hi: int = 100
    seed: int = 0


@dataclass(frozen=True)
class Certificate:
    """Solver-independent witness for the generated instance's alpha bound."""

    kind: str
    alpha_bound: int
    exact: bool
    detail: dict

    def comment_lines(self) -> Iterator[str]:
        """Yield the certificate's comment lines one at a time, so that a
        streamed writer holds none of them."""
        rel = "=" if self.exact else "<="
        yield f"cert kind={self.kind} alpha{rel}{self.alpha_bound}"
        if self.kind == "line_graph_cover3":
            yield "cert centers " + " ".join(map(str, self.detail["centers"]))
            yield "cert disjoint " + " ".join(map(str, self.detail["disjoint"]))
            for lid, (hu, hv) in enumerate(self.detail["host_edges"]):
                yield f"cert hedge {lid} {hu} {hv}"
        elif self.kind == "complement_triangle_free":
            yield "cert part " + " ".join(map(str, self.detail["part"]))
        elif self.kind == "cycle":
            yield f"cert length {self.detail['length']}"


def line_graph(host_n: int, host_edges: Sequence[tuple[int, int]]) -> Graph:
    """Line graph of a simple host graph; node i of the result is edge i.

    Node i = (u, v) is adjacent to the other edges at u and at v: the merge
    of the two ends' ascending incidence lists less both copies of i.  The
    host is simple, so i is the only id the two lists share.
    """
    incident: list[list[int]] = [[] for _ in range(host_n)]
    for idx, (u, v) in enumerate(host_edges):
        incident[u].append(idx)
        incident[v].append(idx)
    nbrs: list = []
    for i, (u, v) in enumerate(host_edges):
        merged = sorted(incident[u] + incident[v])
        k = bisect_left(merged, i)
        del merged[k : k + 2]
        nbrs.append(tuple(merged))
    return Graph(nbrs)


def _center_degree(size: int) -> int:
    """Per-center host degree d for a target line-graph edge count.

    Three centers of degree about d dominate the line-graph edge count:
    sum C(deg, 2) over H is roughly 3 * d^2 / 2.  The line graph has at
    most 3d + 3 nodes: a matching of 3, d - 1 leaves per center, and up to
    3 center-center edges.
    """
    return max(1, isqrt(2 * size // 3))


def _gen_line_graph_cover3(spec: GenSpec, rng: SplitMix64) -> tuple[Graph, Certificate]:
    d = _center_degree(spec.size)
    extra = d - 1
    pool = extra + max(1, extra // 2)

    centers = [0, 1, 2]
    private = [3, 4, 5]
    host_n = 6 + pool
    # Every pair is drawn once, lower end first: the centers 0-2 lie below
    # every leaf, and center pairs come with i < j.
    host_edges = list(zip(centers, private))  # host edges 0, 1, 2: a matching of size 3
    for c in centers:
        chosen: set[int] = set()
        for _ in range(32 * pool):  # a seed takes about 1.6 draws per leaf
            if len(chosen) == extra:
                break
            leaf = 6 + rng.below(pool)
            if leaf not in chosen:
                chosen.add(leaf)
                host_edges.append((c, leaf))
        if len(chosen) < extra:
            raise RuntimeError(f"drew fewer than {extra} distinct leaves in {32 * pool} draws")
    if extra:
        for i in range(3):
            for j in range(i + 1, 3):
                if rng.below(2):
                    host_edges.append((centers[i], centers[j]))

    cert = Certificate(
        kind=spec.kind,
        alpha_bound=3,
        exact=True,
        detail={"host_edges": host_edges, "centers": centers, "disjoint": [0, 1, 2]},
    )
    return line_graph(host_n, host_edges), cert


def _gen_complement_triangle_free(spec: GenSpec, rng: SplitMix64) -> tuple[Graph, Certificate]:
    """Each node is adjacent to the rest of its part, and a cross pair is
    an edge iff its draw reaches the density: one batch of draws, one per
    cross pair, consumed in lexicographic pair order.  The cross pairs that
    miss it are the base."""
    n = max(1, spec.size)
    part = rng.below_many(2, n)
    density = rng.randint(25, 75)
    ids = list(range(n))  # one int object per node id, shared by every tuple
    sides: list[list[int]] = [[], []]
    for v in ids:
        sides[part[v]].append(v)
    draws = iter(rng.below_many(100, len(sides[0]) * len(sides[1])))
    # nbrs[u] first collects u's cross neighbours, in ascending order: the
    # earlier ones while their own nodes are scanned, then the later ones.
    nbrs: list = [[] for _ in ids]
    for u in ids:
        other = sides[1 - part[u]]
        # ``later`` comes first, so zip stops without taking a draw past it.
        later = other[bisect_right(other, u) :]
        kept = [v for v, x in zip(later, draws) if x >= density]
        nbrs[u] += kept
        for v in kept:
            nbrs[v].append(u)
    for u in ids:
        own = sides[part[u]]
        k = bisect_left(own, u)
        nbrs[u] = tuple(sorted(own[:k] + own[k + 1 :] + nbrs[u]))
    cert = Certificate(
        kind=spec.kind, alpha_bound=2, exact=False, detail={"part": part}
    )
    return Graph(nbrs), cert


def _gen_cycle(spec: GenSpec, rng: SplitMix64) -> tuple[Graph, Certificate]:
    n = spec.size
    if n < 3:
        raise ValueError(f"cycle length must be at least 3, got {n}")
    edges = [(i, (i + 1) % n) for i in range(n)]
    cert = Certificate(
        kind=spec.kind, alpha_bound=n // 2, exact=True, detail={"length": n}
    )
    return build_graph(n, edges), cert


_GENERATORS = {
    "line_graph_cover3": _gen_line_graph_cover3,
    "complement_triangle_free": _gen_complement_triangle_free,
    "cycle": _gen_cycle,
}


def generate(spec: GenSpec) -> tuple[Graph, list[int], Certificate]:
    """Produce (graph, weights, certificate) deterministically from the spec."""
    if spec.kind not in _GENERATORS:
        raise ValueError(f"unknown generator kind {spec.kind!r}")
    if spec.size < 0:
        raise ValueError(f"negative size: {spec.size}")
    if spec.weight_lo > spec.weight_hi:
        raise ValueError("empty weight range")
    # Refuse what read_instance would refuse, before allocating anything.
    if max(abs(spec.weight_lo), abs(spec.weight_hi)) > WEIGHT_LIMIT:
        raise ValueError(f"weight range exceeds {WEIGHT_LIMIT} in magnitude")
    if spec.kind == "line_graph_cover3":
        d = _center_degree(spec.size)
        max_nodes = 3 * d + 3
        # sum C(deg, 2) over the host: three centers of degree <= d + 2 and
        # at most 1.5d pool leaves of degree <= 3.
        max_edges = 3 * comb(d + 2, 2) + 5 * d
    elif spec.kind == "complement_triangle_free":
        max_nodes = spec.size
        max_edges = comb(spec.size, 2)  # also the node pairs it scans
    else:
        max_nodes = max_edges = spec.size
    if max_nodes > NODE_LIMIT:
        raise ValueError(f"{spec.kind} of size {spec.size} would exceed {NODE_LIMIT} nodes")
    if max_edges > EDGE_LIMIT:
        raise ValueError(f"{spec.kind} of size {spec.size} would exceed {EDGE_LIMIT} edges")
    rng = SplitMix64(spec.seed)
    g, cert = _GENERATORS[spec.kind](spec, rng)
    lo = spec.weight_lo
    weights = [lo + x for x in rng.below_many(spec.weight_hi - lo + 1, g.n)]
    return g, weights, cert


def verify_certificate(g: Graph, cert: Certificate) -> None:
    """Check the structural certificate against the graph; raise ValueError
    on any discrepancy.

    Each kind's structural check, once passed, proves the graph claw-free:
    a line graph (even of a multigraph), the complement of a bipartite
    graph (alpha <= 2) and a cycle have no claw.  Graphs small enough to
    scan (n <= 80) also go through the brute-force alpha oracle.
    """
    if cert.kind == "line_graph_cover3":
        hedges = cert.detail["host_edges"]
        centers = set(cert.detail["centers"])
        disjoint = cert.detail["disjoint"]
        if len(hedges) != g.n:
            raise ValueError("certificate host edge count differs from node count")
        for lid, (hu, hv) in enumerate(hedges):
            if hu not in centers and hv not in centers:
                raise ValueError(f"host edge {lid} misses the 3-node cover")
        for i in range(g.n):
            si = set(hedges[i])
            nbrs = g.neighbor_set(i)
            for j in range(i + 1, g.n):
                share = bool(si & set(hedges[j]))
                if share != (j in nbrs):
                    raise ValueError(f"adjacency of nodes {i},{j} contradicts host edges")
        ends: set[int] = set()
        for lid in disjoint:
            hu, hv = hedges[lid]
            if hu in ends or hv in ends:
                raise ValueError("claimed disjoint host edges share an endpoint")
            ends.update((hu, hv))
        # Cover of size 3 bounds matchings by 3; the disjoint trio reaches it.
    elif cert.kind == "complement_triangle_free":
        part = cert.detail["part"]
        if len(part) != g.n:
            raise ValueError("certificate part vector length differs from node count")
        for u in range(g.n):
            nbrs = g.neighbor_set(u)
            for v in range(u + 1, g.n):
                if v not in nbrs and part[u] == part[v]:
                    # Base edge inside one part: base would not be bipartite.
                    raise ValueError(f"non-edge ({u}, {v}) stays inside part {part[u]}")
    elif cert.kind == "cycle":
        n = cert.detail["length"]
        if n != g.n or g.m != n:
            raise ValueError("cycle certificate size mismatch")
        for i in range(n):
            expected = sorted({(i - 1) % n, (i + 1) % n})
            if list(g.neighbors(i)) != expected:
                raise ValueError(f"node {i} is not a cycle node")
    else:
        raise ValueError(f"unknown certificate kind {cert.kind!r}")

    if g.n <= 80:
        alpha = brute_alpha_min4(g)
        bound = min(cert.alpha_bound, 4)
        if cert.exact:
            if alpha != bound:
                raise ValueError(f"alpha is {alpha}, certificate claims {bound}")
        elif alpha > bound:
            raise ValueError(f"alpha is {alpha}, certificate bound is {bound}")


def sample_spec(rng: SplitMix64, max_n: int, negative_weights: bool) -> GenSpec:
    """Draw a mixed-kind spec whose instance has at most max_n nodes."""
    kind = KINDS[rng.below(3)]
    if kind == "line_graph_cover3":
        # n(L(H)) <= 3d + 3 for per-center degree d, so cap d accordingly.
        d_max = max(1, (max_n - 3) // 3)
        d = rng.randint(1, d_max)
        size = (3 * d * d) // 2
    elif kind == "complement_triangle_free":
        size = rng.randint(2, max_n)
    else:
        size = rng.randint(3, max_n)
    if negative_weights:
        lo, hi = -50, 50
    else:
        lo, hi = 1, 100
    return GenSpec(kind=kind, size=size, weight_lo=lo, weight_hi=hi, seed=rng.next_u64())
