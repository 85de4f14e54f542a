"""Every result line of a seeded corpus, pinned across commits.

``result_lines.txt`` holds one line per instance: its label, then the
``solve`` outcome in the CLI's result-line format (ids 1-based),
``find_claw``'s witness and the size of ``stable_set_min_alpha4``'s report
on the whole graph.  The corpus is about 4,000 random 4-16-node graphs with
weights -8..12, claw inputs included, and 1,000 ``sample_spec(max_n 60)``
instances, half of them with negative weights.

``arc_result_lines.txt`` holds the same lines for the proper circular-arc
draws of ``helpers.arc_draws``.

A change that moves a line must say why.  To rewrite both files, run
``PYTHONPATH=src:tests python tests/test_result_lines.py``.
"""

from __future__ import annotations

import sys
from functools import cache
from pathlib import Path

from clawmwss import AlphaAtLeast4, ClawWitnessError, find_claw, generate, mwss_alpha3
from clawmwss import stable_set_min_alpha4
from clawmwss.gen import SplitMix64, sample_spec

from helpers import arc_draws, random_graph

LINES = Path(__file__).with_name("result_lines.txt")
# Pinned apart, so the corpus above and its totals stay as they are;
# ``tests/test_proper_arcs.py`` reads it.
ARC_LINES = Path(__file__).with_name("arc_result_lines.txt")

# The adjacency queries over the whole corpus of ``mwss_alpha3``, ``find_claw``
# and ``stable_set_min_alpha4``, in that order.
TOTAL_QUERIES = [157_870, 6_416_030, 244_703]


def _ids(nodes) -> str:
    return ",".join(str(v + 1) for v in sorted(nodes))


def _corpus():
    """(label, graph, weights) for each instance, in file order."""
    rng = SplitMix64(0x5E5)
    for i in range(4000):
        n = 4 + rng.below(13)
        g = random_graph(rng, n, 10 + rng.below(80))
        weights = [rng.randint(-8, 12) for _ in range(n)]
        yield f"random{i} n={n}", g, weights
    for i in range(1000):
        spec = sample_spec(rng, 60, negative_weights=bool(i % 2))
        g, weights, _ = generate(spec)
        yield f"spec{i} {spec.kind} size={spec.size} seed={spec.seed}", g, weights


def arc_corpus():
    """(label, graph, weights) for each proper circular-arc draw."""
    for i, (g, weights, _, _) in enumerate(arc_draws()):
        yield f"arc{i} n={g.n}", g, weights


def _result_line(label, g, weights) -> tuple[str, tuple[int, int, int]]:
    """The instance's line, and the queries of each of its three calls."""
    counter = g.counter
    try:
        out = mwss_alpha3(g, weights)
    except ClawWitnessError as claw:
        solved = f"NOT_CLAW_FREE center={claw.center + 1} leaves={_ids(claw.leaves)}"
    else:
        if isinstance(out, AlphaAtLeast4):
            solved = f"ALPHA_GE_4 witness={_ids(out.witness)}"
        else:
            solved = f"OPTIMAL weight={out.weight} set={_ids(out.nodes)}"
    solve_queries = counter.count
    claw = find_claw(g)
    found = "none" if claw is None else f"{claw.center + 1}:{_ids(claw.leaves)}"
    claw_queries = counter.count - solve_queries
    try:
        size = str(len(stable_set_min_alpha4(g).nodes))
    except ClawWitnessError:
        size = "claw"
    queries = (solve_queries, claw_queries, counter.count - solve_queries - claw_queries)
    return f"{label} | {solved} | find_claw={found} | min4={size}", queries


@cache
def _run() -> tuple[list[str], list[int]]:
    lines, totals = [], [0, 0, 0]
    for label, g, weights in _corpus():
        line, queries = _result_line(label, g, weights)
        lines.append(line)
        totals = [a + b for a, b in zip(totals, queries)]
    return lines, totals


def test_every_result_line_matches_the_corpus():
    lines, _ = _run()
    expected = LINES.read_text(encoding="ascii").splitlines()
    assert len(lines) == len(expected)
    for got, want in zip(lines, expected):
        assert got == want, f"\n  corpus: {want}\n  now:    {got}"


def test_corpus_query_total_is_pinned():
    assert _run()[1] == TOTAL_QUERIES


if __name__ == "__main__":
    lines, queries = _run()
    arc_lines = [_result_line(*item)[0] for item in arc_corpus()]
    for path, text in ((LINES, lines), (ARC_LINES, arc_lines)):
        path.write_text("".join(line + "\n" for line in text), encoding="ascii")
        print(f"wrote {len(text)} lines to {path}", file=sys.stderr)
    print(f"queries {queries}", file=sys.stderr)
