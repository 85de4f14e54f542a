"""Brute-force oracles: independent ground truth for the solvers.

These deliberately avoid the counted adjacency oracle and the solver code
paths; they work on plain adjacency bitmasks so that agreement between
solver and oracle is meaningful evidence.  Like the solver, ``brute_mwss``
ignores negative nodes, so it answers whenever the rest have alpha <= 3.
"""

from __future__ import annotations

from typing import Sequence

from .graph import Graph


def adjacency_masks(g: Graph) -> list[int]:
    """Per-node neighbor bitmask (bit v set iff v is a neighbor)."""
    masks = []
    for u in range(g.n):
        bits = 0
        for v in g.neighbors(u):
            bits |= 1 << v
        masks.append(bits)
    return masks


def is_stable_set(g: Graph, nodes: Sequence[int]) -> bool:
    """Direct pairwise stability check via neighbor sets (uncounted)."""
    for i, u in enumerate(nodes):
        nb = g.neighbor_set(u)
        for v in nodes[i + 1 :]:
            if v in nb or v == u:
                return False
    return True


def _alpha_min4(adj: list[int]) -> int:
    """min(alpha, 4) of the graph whose node v has neighbor bitmask adj[v]."""
    n = len(adj)
    if n == 0:
        return 0
    all_above = [( (1 << n) - 1 ) & ~((1 << (v + 1)) - 1) for v in range(n)]
    best = 1
    for x in range(n):
        ax = adj[x]
        for y in range(x + 1, n):
            if (ax >> y) & 1:
                continue
            if best < 2:
                best = 2
            candidates = all_above[y] & ~ax & ~adj[y]
            if not candidates:
                continue
            best = 3
            rest = candidates
            while rest:
                z = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                if candidates & all_above[z] & ~adj[z]:
                    return 4
    return best


def brute_alpha_min4(g: Graph) -> int:
    """min(alpha(G), 4) by exhaustive subset scan; practical for n <= 80."""
    return _alpha_min4(adjacency_masks(g))


def _better(cand: tuple[int, tuple[int, ...]], best: tuple[int, tuple[int, ...]]) -> bool:
    return cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1])


def brute_mwss(g: Graph, weights: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Exact maximum-weight stable set, admitting the empty set (weight 0),
    when the non-negative nodes have alpha <= 3.

    A negative node never joins an optimum, so each one is treated as
    adjacent to every node.  Scans every stable set of size <= 3 of what is
    left; raises ValueError when the non-negative nodes hold a stable 4-set.
    Ties go to the lexicographically smallest node tuple.
    """
    n = g.n
    negative = sum(1 << v for v in range(n) if weights[v] < 0)
    every = (1 << n) - 1
    adj = [every if weights[v] < 0 else a | negative for v, a in enumerate(adjacency_masks(g))]
    if _alpha_min4(adj) >= 4:
        raise ValueError("brute_mwss needs alpha <= 3 on the non-negative nodes")
    best: tuple[int, tuple[int, ...]] = (0, ())
    for v in range(n):
        cand = (weights[v], (v,))
        if _better(cand, best):
            best = cand
    # Heaviest completion first: nodes by descending weight, ties ascending id.
    by_weight = sorted(range(n), key=lambda v: (-weights[v], v))
    for x in range(n):
        ax = adj[x]
        wx = weights[x]
        for y in range(x + 1, n):
            if (ax >> y) & 1:
                continue
            pair_w = wx + weights[y]
            cand = (pair_w, (x, y))
            if _better(cand, best):
                best = cand
            blocked = ax | adj[y] | ((1 << (y + 1)) - 1)
            for z in by_weight:
                if not ((blocked >> z) & 1):
                    cand = (pair_w + weights[z], (x, y, z))
                    if _better(cand, best):
                        best = cand
                    break
    return best[1], best[0]
