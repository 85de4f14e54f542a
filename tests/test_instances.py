import hashlib
import io
import itertools
import re
import tracemalloc

import pytest

from clawmwss import InstanceFormatError, generate, instances, read_instance, write_instance
from clawmwss.cli import main
from clawmwss.gen import GenSpec, SplitMix64, sample_spec
from clawmwss.graph import NODE_LIMIT
from clawmwss.instances import dump_instance

from helpers import (
    assert_right_sized_store,
    bench_instances,
    edge_set,
    edges,
    mutant_corpus,
    random_clawfree,
    random_graph,
)


def test_read_minimal_with_default_weights():
    for text in ("p edge 2 1\ne 1 2\n", "p edge 2 1\ne 2 1\n"):
        g, w = read_instance(text)
        assert (g.n, g.m) == (2, 1)
        assert w == [1, 1]
        assert g.adjacent(0, 1)
    g, w = read_instance("p edge 0 0\n")
    assert (g.n, g.m, w) == (0, 0, [])


def test_read_accepts_the_node_cap_itself(monkeypatch):
    monkeypatch.setattr(instances, "NODE_LIMIT", 10)
    assert read_instance("p edge 10 0\n")[0].n == 10
    with pytest.raises(InstanceFormatError, match="node count 11 exceeds 10"):
        read_instance("p edge 11 0\n")


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
        ("n 1 5\np edge 2 0\n", 1, "weight line before problem line"),
        ("p edge 2 1\np edge 2 1\n", 2, "duplicate problem line"),
        ("p edge 0 0\np edge 0 0\n", 2, "duplicate problem line"),
        ("p edge 0 0\nn 1 5\n", 2, "node id 1 out of range 1..0"),
        ("p edge 0 1\ne 1 2\n", 2, "out of range 1..0"),
        ("p edge x 1\n", 1, "not an integer"),
        ("p edge 2\n", 1, "malformed problem line"),
        ("p node 2 1\n", 1, "malformed problem line"),
        ("p edge -1 0\n", 1, "negative count"),
        ("p edge 2 -1\n", 1, "negative count"),
        (f"c\np edge {NODE_LIMIT + 1} 0\n", 2, f"exceeds {NODE_LIMIT}"),
        ("p edge 2 1\nn 3 4\n", 2, "out of range"),
        ("p edge 2 1\nn 1 4.5\n", 2, "not an integer"),
        ("p edge 2 0\nn 1 4\nn 1 5\n", 3, "duplicate weight"),
        # int() reads the digit separator in "1_0" as 10.
        ("p edge 1_0 0\n", 1, "node count is not an integer"),
        ("p edge 2 0\nn 1_1 7\n", 2, "node id is not an integer"),
        ("p edge 2 0\nn 1 1_0\n", 2, "node weight is not an integer"),
        ("p edge 10 1\ne 1_0 2\n", 2, "node id is not an integer"),
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
        pytest.param(
            _EDGES_1000.replace(" 1000\n", " 1001\n", 1) + "e 1_0 2\n",
            1002,
            "node id is not an integer",
            id="edges-underscore",
        ),
        # A 1 KiB comment between edge lines, the self-loop last.
        pytest.param(
            "p edge 5 3\ne 1 2\nc " + "x" * 1024 + "\ne 2 3\ne 4 4\n",
            5,
            "self-loop",
            id="batch-loop",
        ),
    ],
)
def test_read_errors_carry_line_numbers(text, line, needle):
    with pytest.raises(InstanceFormatError) as excinfo:
        read_instance(text)
    assert excinfo.value.line_no == line
    assert needle in excinfo.value.message


def test_read_rejects_huge_weights():
    # The README's bound, 2^61 in magnitude, written out.
    for too_big in (2**61 + 1, -(2**61) - 1):
        with pytest.raises(InstanceFormatError, match="magnitude"):
            read_instance(f"p edge 1 0\nn 1 {too_big}\n")
    for limit in (2**61, -(2**61)):
        _, w = read_instance(f"p edge 1 0\nn 1 {limit}\n")
        assert w == [limit]


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


@pytest.mark.parametrize("weight", [2**62, 1.5, False], ids=["too_large", "float", "bool"])
def test_write_refuses_a_weight_that_would_not_read_back(weight):
    # Written out, each reads back as an error: a magnitude above 2^61, or
    # "1.5" and "False", which are not integers.
    g, _ = read_instance("p edge 2 1\ne 1 2\n")
    with pytest.raises(ValueError, match="node 0"):
        write_instance(g, [weight, 1])


def test_an_empty_comment_is_written_as_a_bare_c_line():
    # Catches writing every comment as ``c <comment>``, which would leave a
    # trailing blank after an empty one.
    g, _ = read_instance("p edge 2 1\ne 1 2\n")
    assert write_instance(g, [1, 1], comments=["", "x"]) == "c\nc x\np edge 2 1\ne 1 2\n"


@pytest.mark.parametrize("comment", ["two\nlines", "two\rlines", "caf\u00e9"],
                         ids=["newline", "carriage_return", "non_ascii"])
def test_write_refuses_a_comment_that_is_not_one_ascii_line(comment):
    # Each would read back as another line or as non-ASCII text.
    g, _ = read_instance("p edge 2 1\ne 1 2\n")
    with pytest.raises(ValueError, match="not one line of ASCII text"):
        write_instance(g, [1, 1], comments=["fine", comment])


def test_duplicate_edge_lines_collapse_but_count_against_header():
    g, _ = read_instance("p edge 3 3\ne 1 2\ne 2 1\ne 2 3\n")
    assert g.m == 2


def test_weight_line_after_the_edges_still_applies():
    _, w = read_instance("p edge 3 1\ne 1 2\nn 3 7\n")
    assert w == [1, 1, 7]


def test_string_and_open_file_parse_alike(tmp_path):
    g, w, _ = generate(GenSpec("line_graph_cover3", 300, -9, 9, seed=5))
    lf = write_instance(g, w, comments=["same bytes twice"])
    path = tmp_path / "inst.txt"
    # LF, CRLF and CR line ends read alike from a string and from a file.
    for text in (lf, lf.replace("\n", "\r\n"), lf.replace("\n", "\r")):
        path.write_bytes(text.encode("ascii"))
        g1, w1 = read_instance(text)
        with open(path) as fh:
            g2, w2 = read_instance(fh)
        assert (g1.n, g1.m, list(edges(g1)), w1) == (g2.n, g2.m, list(edges(g2)), w2)
        assert (list(edges(g1)), w1) == (list(edges(g)), w)


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
    # The reader holds one line and its tokens at a time, and a name table
    # of the file's few hundred ids: about 1 byte per edge.
    assert (peak - retained) / g.m < 8
    # One 8-byte word per arc, plus per-node headers and the weights: about
    # 9 bytes per arc.  Presized frozensets measured about 40.
    assert retained / (2 * g.m) <= 12
    assert_right_sized_store(g)


_EDGE_LINE = re.compile(r"(?m)^e (\d+) (\d+)$")


def test_the_line_loop_fills_a_right_sized_store_too(monkeypatch):
    g, w, _ = generate(GenSpec("line_graph_cover3", 1 << 14, 1, 1 << 40, seed=3))
    text = write_instance(g, w)
    parsed = []
    parse_int = instances._parse_int
    monkeypatch.setattr(instances, "_parse_int", lambda *args: parsed.append(args) or parse_int(*args))
    # Each route reads the ends as written and swapped, so that ids 1 and n
    # each come first and second.  The name table answers every plain id,
    # and only the problem line and the weight lines are parsed.  "+k" never
    # enters the table, so every edge line is checked whole: two parsed ints
    # more each.
    for edge in (r"e \1 \2", r"e \2 \1", r"e +\1 +\2", r"e +\2 +\1"):
        checked = g.m if "+" in edge else 0
        parsed.clear()
        looped, _ = read_instance(_EDGE_LINE.sub(edge, text))
        assert len(parsed) == 2 * (1 + sum(x != 1 for x in w) + checked)
        assert_right_sized_store(looped)
        assert [looped.neighbors(v) for v in range(looped.n)] == [g.neighbors(v) for v in range(g.n)]


def test_the_reader_parses_each_id_token_once(monkeypatch):
    # The name table answers an id's every edge line after its first, so
    # int() runs once per distinct id, plus twice for the problem line and
    # for each weight line.  A table never filled, or never read, would
    # parse both ends of each of the 4,292 edge lines.
    g, w = bench_instances([1024, 4096], seed=0)[1]  # bench --seed 0 at 2^12
    text = write_instance(g, w)
    calls = []
    monkeypatch.setattr(
        instances, "int", lambda *args: calls.append(args) or int(*args), raising=False
    )
    read_instance(text)
    assert g.m == 4_292
    assert 0 < len(calls) <= g.n + 2 * sum(x != 1 for x in w) + 2


def test_the_name_table_is_bounded(tmp_path):
    # A cycle file names each node in two edge lines only, so a table that
    # kept every token would hold 2^15 strings and entries.
    g, w, _ = generate(GenSpec("cycle", 1 << 15, seed=1))
    path = tmp_path / "cycle.txt"
    path.write_text(write_instance(g, w))
    del g, w
    tracemalloc.start()
    try:
        with open(path) as fh:
            g, _ = read_instance(fh)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Per edge: 136 bytes for the per-node lists alone (the reader without
    # a table), 155 with the bounded table, 219 with an unbounded one.
    assert (peak - retained) / g.m < 185


# SHA-256 of ``write_instance(g, w, cert.comment_lines())`` for one spec per
# generator kind and a 2^14 line graph, taken from the writer that built
# the whole text as a list of lines before the streamed one replaced it.
GOLDEN = [
    (GenSpec("line_graph_cover3", 300, -50, 50, seed=5),
     "5067bf34596ec6607aa7b9aca1f3c21e84da59b472a6b56277826d1d4355ade9"),
    (GenSpec("complement_triangle_free", 40, -50, 50, seed=6),
     "6547c78bd0d91fbb48e539239b9e135d7c12e9991f79b618d181f19a7c789e7c"),
    (GenSpec("cycle", 11, 1, 100, seed=7),
     "4044c54c0997fc6fa0d4a8d26fc03295affb2df2907bf13b4155753eb81468ae"),
    (GenSpec("line_graph_cover3", 1 << 14, 1, 1 << 40, seed=3),
     "2b6430616a9cd9f5cd5fdf2ab88ee5f58e4a9cf7c107f3c22c04ae8a790d8412"),
]


# SHA-256 over ``write_instance(g, w, cert.comment_lines())`` of 600
# ``sample_spec`` draws (max_n 60, every other one with negative weights),
# taken from the generators that still streamed every edge through
# ``build_graph``, before they built the neighbour sets with set operations.
SAMPLED_DIGEST = "fb6aa2c9594d1b08d257e2644c7c6c5db48e72001c96005e6908a280a421511f"


def test_sampled_generator_output_is_byte_identical_to_the_golden_hash():
    rng = SplitMix64(0x6E14)
    digest = hashlib.sha256()
    for i in range(600):
        g, w, cert = generate(sample_spec(rng, 60, negative_weights=bool(i % 2)))
        digest.update(write_instance(g, w, cert.comment_lines()).encode("ascii"))
    assert digest.hexdigest() == SAMPLED_DIGEST


@pytest.mark.parametrize("spec,digest", GOLDEN, ids=[s.kind for s, _ in GOLDEN])
def test_writer_output_is_byte_identical_to_the_golden_hash(spec, digest, tmp_path):
    g, w, cert = generate(spec)
    text = write_instance(g, w, cert.comment_lines())
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest
    streamed = io.StringIO()
    dump_instance(g, w, streamed, cert.comment_lines())
    assert streamed.getvalue() == text
    out = tmp_path / "gen.col"
    argv = ["gen", "--kind", spec.kind, "--size", str(spec.size), "--seed", str(spec.seed),
            "--wlo", str(spec.weight_lo), "--whi", str(spec.weight_hi), "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_streamed_writer_holds_no_text_of_the_instance(tmp_path):
    g, w, _ = generate(GenSpec("line_graph_cover3", 1 << 14, seed=3))
    with open(tmp_path / "mid.txt", "w", encoding="ascii") as fh:
        tracemalloc.start()
        try:
            dump_instance(g, w, fh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert g.m > 10_000
    # Building the whole text as a list of lines peaked at about 88 bytes
    # per edge; the stream holds one node's row and the id strings.
    assert peak / g.m < 8


def _outcome(text):
    try:
        g, w = read_instance(text)
    except InstanceFormatError as exc:
        return exc.line_no, exc.message
    return g.n, g.m, [g.neighbors(v) for v in range(g.n)], w


# Edge lines after a first edge line, whose ids the name table then holds:
# each must be refused or accepted as the checks on a line of its own would.
_EDGE_CASES = [
    "p edge 4 3\ne 1 2\n" + body
    for body in (
        "e 0 2\ne 3 4\n",  # id below range
        "e 1 5\ne 3 4\n",  # id one above range
        "e 3 4\ne 3 3\n",  # self-loop
        "e 3 4\ne1 2 3\n",  # a first token that only starts with e
        "e 3 4\ne 1 2 3\n",  # four tokens
        "e 3 4\ne 1\n",  # two tokens
        "e 3 4\n e 1 3\n",  # leading blank
        "e 2 3\ne 3 4\ne 1 4\n",  # one line too many
        "e +2 3\ne 03 1_0\n",  # signs, zeros and underscores int() accepts
        "e\t2\t1\ne 3 4\r\n",  # other blanks
        "e 2 1\ne 2 1",  # duplicates, no final newline
        "e 3 4\nc note\n\nn 2 -5\ne 2 4\n",  # comment, blank and weight lines
        "e 3 4\ne 2 \u0663\n",  # a non-ASCII digit, which int() reads as 3
        "e 3 4\ne 1 " + "9" * 5000 + "\n",  # more digits than int() converts
        "e 3 4\ne 1 " + "0" * 5000 + "2\n",  # the same, in range but for zeros
        "e 3 4\ne 1 00000002\n",  # zeros, one digit past the largest id's
        "e 3 4\ne 2 0\n",  # id below range, second
    )
]

# SHA-256 over the repr of ``_outcome`` of each text of ``mutant_corpus()``
# and ``_EDGE_CASES``, one line each, taken from the reader that checked
# runs of edge lines as a whole beside its line loop.
OUTCOME_DIGEST = "7d69ee87e6ebf55f8d9d6f261b59f74f0c1dc320a8c4ccc5720619bb7d4329b1"


def test_reader_outcomes_are_pinned():
    texts = [data.decode("ascii", "surrogateescape") for data in mutant_corpus()]
    digest = hashlib.sha256()
    for text in texts + _EDGE_CASES:
        digest.update(repr(_outcome(text)).encode("ascii", "backslashreplace") + b"\n")
    assert digest.hexdigest() == OUTCOME_DIGEST


@pytest.mark.parametrize("size", [1, 2, 1 << 20])
def test_a_line_that_starts_without_e_is_not_an_edge_line(size):
    # Three tokens per line on average and "e" at every third token, yet the
    # second line does not start with "e".  Read as a text file whose byte
    # buffer holds ``size`` bytes, so that small buffers split every line.
    for text, line in (("p edge 4 2\ne 1\n2 e 3 4\n", 2),
                       ("p edge 4 3\ne 1 2\ne 1\n2 e 3 4\n", 3)):
        raw = io.BufferedReader(io.BytesIO(text.encode("ascii")), buffer_size=size)
        with pytest.raises(InstanceFormatError, match="malformed edge line") as excinfo:
            read_instance(io.TextIOWrapper(raw, encoding="ascii"))
        assert excinfo.value.line_no == line
