import itertools
import sys
import tracemalloc

import pytest

from clawmwss import InstanceFormatError, generate, read_instance, write_instance
from clawmwss.gen import GenSpec, SplitMix64
from clawmwss.graph import NODE_LIMIT, WEIGHT_LIMIT

from helpers import edge_set, random_clawfree, random_graph


def test_read_minimal_with_default_weights():
    g, w = read_instance("p edge 2 1\ne 1 2\n")
    assert (g.n, g.m) == (2, 1)
    assert w == [1, 1]
    assert g.adjacent(0, 1)


def test_read_weight_line_is_one_based():
    g, w = read_instance("p edge 2 0\nn 1 5\n")
    assert w == [5, 1]


def test_read_skips_comments_and_blank_lines():
    text = "c hello\n\np edge 3 2\nc mid\ne 1 2\ne 2 3\n"
    g, _ = read_instance(text)
    assert (g.n, g.m) == (3, 2)


def test_read_negative_weights():
    _, w = read_instance("p edge 1 0\nn 1 -7\n")
    assert w == [-7]


# Line 1 is the problem line; lines 2..1001 stream 1,000 valid edges.
_EDGES_1000 = "p edge 49 1000\n" + "".join(
    f"e {u} {v}\n"
    for u, v in itertools.islice(itertools.combinations(range(1, 50), 2), 1000)
)


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("e 1 2\n", 1, "before problem line"),
        ("p edge 2 1\np edge 2 1\n", 2, "duplicate problem line"),
        ("p edge x 1\n", 1, "not an integer"),
        ("p edge 2\n", 1, "malformed problem line"),
        ("p node 2 1\n", 1, "malformed problem line"),
        ("p edge -1 0\n", 1, "negative count"),
        ("p edge 2 -1\n", 1, "negative count"),
        (f"c\np edge {NODE_LIMIT + 1} 0\n", 2, f"exceeds {NODE_LIMIT}"),
        ("p edge 2 1\nn 3 4\n", 2, "out of range"),
        ("p edge 2 1\nn 1 4.5\n", 2, "not an integer"),
        ("p edge 2 0\nn 1 4\nn 1 5\n", 3, "duplicate weight"),
        ("p edge 2 1\ne 1 1\n", 2, "self-loop"),
        ("p edge 2 1\ne 1 3\n", 2, "out of range"),
        ("p edge 2 1\ne 1 2\ne 1 2\n", 3, "more than 1 edge lines"),
        ("p edge 2 2\ne 1 2\n", 3, "expected 2 edge lines"),
        ("p edge 2 1\nq 1 2\n", 2, "unknown line type"),
        ("p edge 2 0\nc caf\u00e9\n", 2, "non-ASCII"),
        ("p edge \u0663 0\n", 1, "non-ASCII"),
        ("", 1, "missing problem line"),
        ("c only comments\n", 2, "missing problem line"),
        pytest.param(_EDGES_1000 + "e 1 50\n", 1002, "out of range", id="edges-range"),
        pytest.param(_EDGES_1000 + "e 7 7\n", 1002, "self-loop", id="edges-loop"),
        pytest.param(_EDGES_1000 + "e 48 49\n", 1002, "more than 1000 edge", id="edges-count"),
        pytest.param(_EDGES_1000 + "p edge 49 1\n", 1002, "duplicate problem", id="edges-dup-p"),
    ],
)
def test_read_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(InstanceFormatError) as excinfo:
        read_instance(text)
    assert excinfo.value.line_no == line
    assert needle in excinfo.value.message


def test_read_rejects_huge_weights():
    too_big = WEIGHT_LIMIT + 1
    with pytest.raises(InstanceFormatError, match="magnitude"):
        read_instance(f"p edge 1 0\nn 1 {too_big}\n")
    # The limit itself is fine.
    _, w = read_instance(f"p edge 1 0\nn 1 {WEIGHT_LIMIT}\n")
    assert w == [WEIGHT_LIMIT]


def test_write_then_read_identity_on_random_instances():
    rng = SplitMix64(77)
    for _ in range(100):
        if rng.below(2):
            g, weights, _ = random_clawfree(rng, 25, negative_weights=True)
        else:
            g = random_graph(rng, rng.randint(1, 25), rng.randint(0, 100))
            weights = [rng.randint(-9, 9) for _ in range(g.n)]
        text = write_instance(g, weights, comments=["generated for round-trip"])
        g2, w2 = read_instance(text)
        assert (g2.n, g2.m) == (g.n, g.m)
        assert edge_set(g2) == edge_set(g)
        assert w2 == list(weights)
        # Fixpoint: serializing the parsed instance reproduces the bytes
        # minus the comment.
        text2 = write_instance(g2, w2)
        assert write_instance(*read_instance(text2)) == text2


def test_write_rejects_short_weight_vector():
    g, _ = read_instance("p edge 3 1\ne 1 2\n")
    with pytest.raises(ValueError, match="does not match node count"):
        write_instance(g, [1, 1])


def test_duplicate_edge_lines_collapse_but_count_against_header():
    g, _ = read_instance("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
    assert g.m == 2


def test_weight_line_after_the_edges_still_applies():
    _, w = read_instance("p edge 3 1\ne 1 2\nn 3 7\n")
    assert w == [1, 1, 7]


def test_string_and_open_file_parse_alike(tmp_path):
    g, w, _ = generate(GenSpec("line_graph_cover3", 300, -9, 9, seed=5))
    text = write_instance(g, w, comments=["same bytes twice"])
    path = tmp_path / "inst.txt"
    path.write_text(text)
    g1, w1 = read_instance(text)
    with open(path) as fh:
        g2, w2 = read_instance(fh)
    assert (g1.n, g1.m, list(g1.edges()), w1) == (g2.n, g2.m, list(g2.edges()), w2)
    assert w1 == w


def test_parse_holds_no_edge_list_and_a_right_sized_store(tmp_path):
    g, w, _ = generate(GenSpec("line_graph_cover3", 1 << 14, seed=3))
    path = tmp_path / "mid.txt"
    path.write_text(write_instance(g, w))
    del g, w
    tracemalloc.start()
    try:
        with open(path) as fh:
            g, _ = read_instance(fh)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m > 10_000
    # A list of parsed (u, v) tuples alone costs about 120 bytes per edge.
    assert (peak - retained) / g.m < 40
    for v in range(g.n):
        nbrs = g.neighbor_set(v)
        assert sys.getsizeof(nbrs) == sys.getsizeof(frozenset(set(nbrs)))
    assert len({id(u) for v in range(g.n) for u in g.neighbor_set(v)}) <= g.n
