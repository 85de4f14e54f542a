"""A second scaling family, not a line graph: the powers of cycles C_n^k.

With n = 4(k + 1) - 1, node i is adjacent to the k nodes on each side of
it.  Any two nodes of a stable set are more than k apart on the circle, so
alpha <= floor(n / (k + 1)) = 3, and {0, k+1, 2(k+1)} attains it; the
neighbours of i are the two cliques {i-k..i-1} and {i+1..i+k}, so no node
has three pairwise non-adjacent neighbours.  The solve's query counts and
outcomes, and the queries of ``stable_set_min_alpha4`` alone, are pinned
at k = 15, 31, 63, 127 and 255 (m = 260,865); no solve asks more than the
C(n, 2) pairs, each at most once.
"""

from math import log2

import pytest

from clawmwss import Optimal, find_claw, mwss_alpha3, stable_set_min_alpha4
from clawmwss.oracles import brute_alpha_min4, is_stable_set

from helpers import cycle_power, cycle_power_weights, first_claw

# k: (queries of mwss_alpha3, its result line, queries of
# stable_set_min_alpha4), with ``cycle_power_weights`` (ids 1-based, as
# ``solve`` prints them).
PINNED = {
    15: (1_848, "OPTIMAL weight=281 set=20,39,59", 1_758),
    31: (7_536, "OPTIMAL weight=291 set=20,59,114", 7_102),
    63: (30_432, "OPTIMAL weight=297 set=59,167,236", 28_542),
    127: (122_304, "OPTIMAL weight=299 set=59,236,402", 114_430),
    255: (490_369, "OPTIMAL weight=300 set=178,470,778", 458_238),
}


def _solve(k: int) -> tuple[int, str, int, int, int]:
    """(solve queries, result line, cardinality queries, n, m) at k."""
    g = cycle_power(k)
    solve, card = g.with_counter(), g.with_counter()
    out = mwss_alpha3(solve, cycle_power_weights(g.n))
    assert isinstance(out, Optimal)
    stable_set_min_alpha4(card)
    line = f"OPTIMAL weight={out.weight} set={','.join(str(v + 1) for v in out.nodes)}"
    return solve.counter.count, line, card.counter.count, g.n, g.m


@pytest.mark.parametrize("k", [1, 2, 15, 31])
def test_cycle_powers_carry_their_certificates(k):
    g = cycle_power(k)
    n = g.n
    assert n == 4 * (k + 1) - 1 and g.m == n * k
    assert is_stable_set(g, [0, k + 1, 2 * (k + 1)])
    for i in range(n):
        for side in (range(i - k, i), range(i + 1, i + k + 1)):
            clique = [v % n for v in side]
            assert all(g.adjacent(u, v) for j, u in enumerate(clique) for v in clique[j + 1 :])
        assert sorted(g.neighbors(i)) == sorted(v % n for v in range(i - k, i + k + 1) if v != i)
    if k == 15:
        assert first_claw(g)[0] is None and find_claw(g) is None
        assert brute_alpha_min4(g) == 3


def test_cycle_power_solves_are_pinned_and_scale():
    runs = {k: _solve(k) for k in PINNED}
    assert {k: runs[k][:3] for k in PINNED} == PINNED
    assert all(q <= n * (n - 1) // 2 for q, _, _, n, _ in runs.values())
    weighted = [q / (m * log2(n + 2)) for q, _, _, n, m in runs.values()]
    cardinality = [c / m for _, _, c, _, m in runs.values()]
    assert max(weighted) / min(weighted) <= 3.0
    assert max(cardinality) / min(cardinality) <= 3.0
