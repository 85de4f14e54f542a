"""Answer checks for the benchmark, independent of the solver's code paths.

Expectations are computed once per instance, outside any timed region, from
the generator's own output: the certificate's host edges for line graphs,
and the brute-force oracles for small instances.  A result line is then
checked against its expectation with plain neighbour bitmasks, from
``oracles.adjacency_masks``, which reads the graph without counting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Sequence

_OPTIMAL = re.compile(r"OPTIMAL weight=(-?\d+) set=([\d,]*)")
_ALPHA_GE_4 = re.compile(r"ALPHA_GE_4 witness=([\d,]+)")

EXIT_OK = 0
EXIT_ALPHA_GE_4 = 2


@dataclass(frozen=True)
class Expect:
    """What a correct ``solve`` must print for one instance."""

    weights: tuple[int, ...]
    masks: tuple[int, ...]  # bit v of masks[u] set iff {u, v} is an edge
    alpha_ge_4: bool  # the non-negative part has a stable 4-set
    weight: int | None  # the optimum when alpha_ge_4 is false


def best_host_matching(
    host_edges: Sequence[tuple[int, int]], weights: Sequence[int], centers: Sequence[int]
) -> int:
    """Heaviest matching of the host graph H, which is the MWSS of L(H).

    Every host edge touches one of the three centres, so a matching gives
    each centre at most one edge.  Either one centre-centre edge plus the
    best leaf edge of the third centre, or one leaf edge (or none) per
    centre on distinct leaves; for the latter the other two centres block
    at most two leaves, so each centre's three heaviest leaf edges suffice.
    The empty matching (weight 0) is always allowed.
    """
    cset = set(centers)
    leaf_edges: dict[int, list[tuple[int, int]]] = {c: [] for c in centers}
    centre_edges = []
    for lid, (a, b) in enumerate(host_edges):
        if a in cset and b in cset:
            centre_edges.append((a, b, weights[lid]))
        elif a in cset:
            leaf_edges[a].append((weights[lid], b))
        else:
            leaf_edges[b].append((weights[lid], a))
    top = {c: sorted(edges, reverse=True)[:3] for c, edges in leaf_edges.items()}

    best = 0
    for picks in product(*([None, *top[c]] for c in centers)):
        chosen = [p for p in picks if p is not None]
        leaves = {leaf for _, leaf in chosen}
        if len(leaves) == len(chosen):
            best = max(best, sum(w for w, _ in chosen))
    for a, b, w in centre_edges:
        (third,) = cset - {a, b}
        rest = max((lw for lw, _ in top[third]), default=0)
        best = max(best, w + max(rest, 0))
    return best


def expect_line_graph(g, weights: Sequence[int], cert, oracles) -> Expect:
    detail = cert.detail
    optimum = best_host_matching(detail["host_edges"], weights, detail["centers"])
    return Expect(tuple(weights), tuple(oracles.adjacency_masks(g)), False, optimum)


def expect_small(g, weights: Sequence[int], build_graph, oracles) -> Expect:
    """Expectation from the brute-force oracles on the non-negative part.

    The solver drops negative-weight nodes first, so alpha >= 4 is decided
    on the subgraph they leave, which is rebuilt here from the neighbour
    sets rather than through the solver's ``induced_subgraph``.
    """
    keep = [v for v in range(g.n) if weights[v] >= 0]
    new_id = {old: new for new, old in enumerate(keep)}
    edges = [
        (new_id[u], new_id[v])
        for u in keep
        for v in g.neighbor_set(u)
        if u < v and v in new_id
    ]
    sub = build_graph(len(keep), edges)
    sub_weights = [weights[v] for v in keep]
    masks = tuple(oracles.adjacency_masks(g))
    if oracles.brute_alpha_min4(sub) >= 4:
        return Expect(tuple(weights), masks, True, None)
    _, optimum = oracles.brute_mwss(sub, sub_weights)
    return Expect(tuple(weights), masks, False, optimum)


def _ids(text: str, n: int) -> list[int] | None:
    """0-based ids from a comma list of 1-based ascending ids, or None."""
    ids = [int(tok) - 1 for tok in text.split(",")] if text else []
    if any(not 0 <= v < n for v in ids) or ids != sorted(set(ids)):
        return None
    return ids


def _stable(masks: Sequence[int], ids: Sequence[int]) -> bool:
    return all(not (masks[u] >> v) & 1 for i, u in enumerate(ids) for v in ids[i + 1 :])


def check(expect: Expect, code: int | None, out: str, err: str) -> str | None:
    """Why the ``solve`` result is wrong, or None when it is right."""
    if err:
        return f"unexpected stderr {err.strip()[:80]!r}"
    line = out.rstrip("\n")
    if "\n" in line:
        return "more than one stdout line"
    n = len(expect.weights)
    if expect.alpha_ge_4:
        found = _ALPHA_GE_4.fullmatch(line)
        if code != EXIT_ALPHA_GE_4 or found is None:
            return f"expected ALPHA_GE_4 (exit 2), got exit {code}: {line[:80]!r}"
        ids = _ids(found.group(1), n)
        if ids is None or len(ids) != 4:
            return f"witness is not 4 distinct ids: {line[:80]!r}"
        if any(expect.weights[v] < 0 for v in ids):
            return "witness uses a negative-weight node"
        if not _stable(expect.masks, ids):
            return "witness is not stable"
        return None
    found = _OPTIMAL.fullmatch(line)
    if code != EXIT_OK or found is None:
        return f"expected OPTIMAL (exit 0), got exit {code}: {line[:80]!r}"
    weight = int(found.group(1))
    ids = _ids(found.group(2), n)
    if ids is None:
        return f"set is not distinct ascending ids: {line[:80]!r}"
    if not _stable(expect.masks, ids):
        return "optimal set is not stable"
    if sum(expect.weights[v] for v in ids) != weight:
        return "reported weight differs from the weight of the set"
    if weight != expect.weight:
        return f"weight {weight}, oracle optimum {expect.weight}"
    return None
