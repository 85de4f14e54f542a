"""Proper circular-arc graphs: claw-free inputs with alpha = 3 that are not
line graphs, against the brute-force oracles and a pinned result-line file."""

import itertools

from clawmwss import AlphaAtLeast4, find_claw, mwss_alpha3
from clawmwss.oracles import brute_alpha_min4, brute_mwss, is_stable_set

from helpers import ARC_CIRCLE, arc_draws, arc_inside, arcs_meet
from test_result_lines import ARC_LINES, _result_line, arc_corpus


def test_proper_arc_graphs_match_the_oracles():
    negative = 0
    for g, weights, (arcs, points, disjoint), report in arc_draws():
        assert not any(arc_inside(a, b) for a, b in itertools.permutations(arcs, 2))
        assert all(any((p - start) % ARC_CIRCLE <= length for p in points) for start, length in arcs)
        assert not any(arcs_meet(arcs[u], arcs[v]) for u, v in itertools.combinations(disjoint, 2))
        assert is_stable_set(g, disjoint) and find_claw(g) is None
        assert report.exact_alpha == brute_alpha_min4(g) == 3
        out = mwss_alpha3(g, weights)
        assert not isinstance(out, AlphaAtLeast4)
        assert is_stable_set(g, out.nodes) and sum(weights[v] for v in out.nodes) == out.weight
        assert out.weight == brute_mwss(g, weights)[1]
        negative += min(weights) < 0
    assert negative > 100


def test_every_arc_result_line_matches_its_file():
    lines = [_result_line(*item)[0] for item in arc_corpus()]
    assert lines == ARC_LINES.read_text(encoding="ascii").splitlines()
