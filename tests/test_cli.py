import json
import os
import platform
import subprocess
import sys
import time
from math import comb, log2
from pathlib import Path

import pytest

import clawmwss.cli as cli
from clawmwss import (
    AlphaAtLeast4,
    Optimal,
    StableSetReport,
    generate,
    mwss_alpha3,
    read_instance,
    write_instance,
)
from clawmwss.cli import build_parser, main, run_bench, verify_instances
from clawmwss.gen import Certificate, GenSpec, SplitMix64
from clawmwss.graph import NODE_LIMIT, Graph, _PairTable, build_graph

from helpers import (
    bench_instances, cycle, edge_set, first_claw, mutant_corpus, star, with_lightest_negative
)


def _instance_file(tmp_path, name, g, weights, comments=()):
    path = tmp_path / name
    path.write_text(write_instance(g, weights, comments), encoding="ascii")
    return str(path)


def test_solve_c7_unit_weights(tmp_path, capsys):
    path = _instance_file(tmp_path, "c7.txt", cycle(7), [1] * 7)
    rc = main(["solve", "--input", path])
    assert rc == 0
    assert capsys.readouterr().out == "OPTIMAL weight=3 set=1,3,5\n"


def test_solve_c7_ramp_weights(tmp_path, capsys):
    path = _instance_file(tmp_path, "c7w.txt", cycle(7), [i + 1 for i in range(7)])
    rc = main(["solve", "--input", path])
    assert rc == 0
    assert capsys.readouterr().out == "OPTIMAL weight=15 set=3,5,7\n"


def test_solve_c9_reports_alpha_ge_4(tmp_path, capsys):
    path = _instance_file(tmp_path, "c9.txt", cycle(9), [1] * 9)
    rc = main(["solve", "--input", path])
    assert rc == 2
    out = capsys.readouterr().out
    assert out.startswith("ALPHA_GE_4 witness=")
    ids = [int(tok) for tok in out.strip().split("=")[1].split(",")]
    assert len(ids) == 4 and ids == sorted(ids) and all(1 <= i <= 9 for i in ids)


def test_solve_empty_optimum_line(tmp_path, capsys):
    g = cycle(3)
    path = _instance_file(tmp_path, "neg.txt", g, [-1, -2, -3])
    rc = main(["solve", "--input", path])
    assert rc == 0
    assert capsys.readouterr().out == "OPTIMAL weight=0 set=\n"


def test_solve_star_with_validate(tmp_path, capsys):
    path = _instance_file(tmp_path, "star.txt", star(3), [1] * 4)
    rc = main(["solve", "--input", path, "--validate"])
    assert rc == 3
    assert capsys.readouterr().out == "NOT_CLAW_FREE center=1 leaves=2,3,4\n"
    # With an isolated fifth node the solve alone finds a stable 4-set
    # before any claw, so only --validate reports find_claw's claw.
    path = tmp_path / "star_plus.txt"
    path.write_text("p edge 5 3\ne 1 2\ne 1 3\ne 1 4\n", encoding="ascii")
    assert main(["solve", "--input", str(path)]) == 2
    assert capsys.readouterr().out == "ALPHA_GE_4 witness=2,3,4,5\n"
    assert main(["solve", "--input", str(path), "--validate"]) == 3
    assert capsys.readouterr().out == "NOT_CLAW_FREE center=1 leaves=2,3,4\n"


def test_validate_and_check_hand_the_claw_checks_pair_table_on(tmp_path, monkeypatch, capsys):
    g, weights = bench_instances([1024], seed=0)[0]
    path = _instance_file(tmp_path, "bench.txt", g, weights)
    seen = []

    def spy(stage):
        def call(graph, *args):
            seen.append(graph)
            return stage(graph, *args)
        return call

    for name in ("find_claw", "mwss_alpha3", "stable_set_min_alpha4"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name)))
    assert main(["solve", "--input", path, "--validate"]) == 0
    assert main(["check", "--input", path]) == 0
    assert main(["solve", "--input", path]) == 0
    validated, solved, checked, sized, plain = seen
    # Each command's two stages share one table, so together they charge
    # each pair at most once.
    assert solved is validated and sized is checked
    assert isinstance(validated, _PairTable) and isinstance(checked, _PairTable)
    assert validated.counter.count <= comb(g.n, 2) and checked.counter.count <= comb(g.n, 2)
    # A solve without --validate is handed the graph as read.
    assert type(plain) is Graph and plain.counter.count == 1363
    assert capsys.readouterr().out.splitlines()[1] == "CLAW_FREE alpha=3"


def test_solve_star_detects_claw_even_without_validate(tmp_path, capsys):
    path = _instance_file(tmp_path, "star.txt", star(3), [1] * 4)
    rc = main(["solve", "--input", path])
    assert rc == 3
    assert capsys.readouterr().out.startswith("NOT_CLAW_FREE ")


def test_solve_reports_a_claw_centre_past_a_detached_node(tmp_path, capsys):
    # The pair (0, 1) grows by its detached node 2.  Against the triple
    # (0, 1, 2), node 3 is detached and node 4, later in node order, is
    # adjacent to all three anchors.  The triple's classification looks for
    # such a node before it stops at node 3, so it reports that claw before
    # any stable 4-set {0, 1, 2, 3}.
    g = build_graph(5, [(0, 4), (1, 4), (2, 4)])
    path = _instance_file(tmp_path, "claw.txt", g, [1] * 5)
    rc = main(["solve", "--input", path])
    assert rc == 3
    assert capsys.readouterr().out == "NOT_CLAW_FREE center=5 leaves=1,2,3\n"


def test_solve_missing_file(tmp_path, capsys):
    rc = main(["solve", "--input", str(tmp_path / "nope.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_file_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("p edge 2 1\ne 1 5\n", encoding="ascii")
    rc = main(["solve", "--input", str(path)])
    assert rc == 1
    assert "line 2" in capsys.readouterr().err


def test_solve_rejects_node_count_above_limit(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text(f"p edge {NODE_LIMIT + 1} 0\n", encoding="ascii")
    rc = main(["solve", "--input", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: line 1: node count")


def test_solve_output_is_byte_deterministic(tmp_path, capsys):
    path = _instance_file(tmp_path, "c7.txt", cycle(7), [3, 1, 4, 1, 5, 9, 2])
    main(["solve", "--input", path])
    first = capsys.readouterr().out
    main(["solve", "--input", path])
    assert capsys.readouterr().out == first


# A claw input on which ``python -O`` used to print a set that is not stable.
CLAW_7 = (
    "p edge 7 9\nn 1 0\nn 2 2\nn 3 4\nn 4 4\nn 6 -2\nn 7 3\n"
    "e 1 4\ne 1 7\ne 2 3\ne 2 6\ne 3 4\ne 3 6\ne 3 7\ne 4 5\ne 5 7\n"
)


def _toggle_pairs(g, rng, count):
    """``g`` with ``count`` random node pairs toggled between edge and non-edge."""
    edges = edge_set(g)
    for _ in range(count):
        u, v = sorted(rng.below(g.n) for _ in range(2))
        if u != v:
            edges ^= {(u, v)}
    return build_graph(g.n, sorted(edges))


def test_release_build_prints_the_same_line_on_every_input(tmp_path, capsys):
    # ``python -O`` strips only the uncounted result asserts, so on claw-free
    # and claw inputs alike the result line and exit code must not change.
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    specs = [
        GenSpec("line_graph_cover3", 150, seed=11),
        GenSpec("line_graph_cover3", 150, -50, 50, seed=12),
        GenSpec("complement_triangle_free", 20, -50, 50, seed=13),
        GenSpec("cycle", 9, seed=14),
    ]
    paths = []
    for i, spec in enumerate(specs):
        g, weights, _ = generate(spec)
        paths.append(_instance_file(tmp_path, f"inst{i}.txt", g, weights))
    claw_7 = tmp_path / "claw7.txt"
    claw_7.write_text(CLAW_7, encoding="ascii")
    paths.append(str(claw_7))
    rng = SplitMix64(0x0B5E)
    for i in range(20):
        spec = GenSpec("line_graph_cover3", rng.randint(20, 150), -20, 50, rng.next_u64())
        g, weights, _ = generate(spec)
        g = _toggle_pairs(g, rng, rng.randint(1, 4))
        paths.append(_instance_file(tmp_path, f"toggled{i}.txt", g, weights))

    for path in paths:
        rc = main(["solve", "--input", path])
        expected = capsys.readouterr().out
        release = subprocess.run(
            [sys.executable, "-O", "-m", "clawmwss.cli", "solve", "--input", path],
            env=env,
            capture_output=True,
            text=True,
        )
        assert (release.returncode, release.stdout, release.stderr) == (rc, expected, ""), path


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["bogus"],
        ["bench", "--sizes", "1,x", "--out", "unused.json"],
        ["verify", "--max-n", "2"],
        ["verify", "--max-n", "-1"],
        ["verify", "--count", "-5"],
        ["verify", "--max-n", "1048577"],
        ["verify", "--max-n", "4097"],
        ["gen", "--size", "10", "--wlo", "-99999999999999999999", "--out", "unused"],
        ["gen", "--kind", "cycle", "--size", "1048577", "--out", "unused"],
        ["bench", "--sizes", "183251588438", "--out", "unused.json"],
        ["gen", "--size", "8368566", "--out", "unused"],
        ["bench", "--sizes", "8368566", "--out", "unused.json"],
        ["gen", "--kind", "complement_triangle_free", "--size", "4097", "--out", "unused"],
        ["gen", "--kind", "line_graph_cover3", "--size", "-5", "--out", "unused"],
        ["bench", "--sizes", "-5", "--out", "unused.json"],
        ["bench", "--sizes", "", "--out", "unused.json"],
    ],
    ids=" ".join,
)
def test_usage_error_exits_1_with_one_error_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_each_left_out_option_takes_its_default():
    parse = build_parser().parse_args
    gen = parse(["gen", "--out", "f"])
    assert (gen.kind, gen.size, gen.seed, gen.wlo, gen.whi, gen.certify) == (
        "line_graph_cover3", 24, 0, 1, 100, False
    )
    verify = parse(["verify"])
    assert (verify.count, verify.seed, verify.max_n, verify.dump) == (
        1000, 0, 60, "verify-failure.instance"
    )
    bench = parse(["bench", "--out", "f"])
    assert (bench.sizes, bench.seed) == ("1024,4096,16384,65536,262144", 0)
    assert parse(["solve", "--input", "f"]).validate is False


def test_mutated_instance_files_end_in_one_line(tmp_path, capsys):
    path = tmp_path / "mutant.txt"
    for data in mutant_corpus():
        path.write_bytes(data)
        for command in ("solve", "check"):
            rc = main([command, "--input", str(path)])
            captured = capsys.readouterr()
            if rc == 1:
                assert captured.out == ""
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
            else:
                assert rc in (0, 2, 3)
                assert captured.out.count("\n") == 1 and captured.err == ""


def test_check_verdicts(tmp_path, capsys):
    c7 = _instance_file(tmp_path, "c7.txt", cycle(7), [1] * 7)
    assert main(["check", "--input", c7]) == 0
    assert capsys.readouterr().out == "CLAW_FREE alpha=3\n"

    c9 = _instance_file(tmp_path, "c9.txt", cycle(9), [1] * 9)
    assert main(["check", "--input", c9]) == 0
    assert capsys.readouterr().out == "CLAW_FREE alpha>=4\n"

    k13 = _instance_file(tmp_path, "star.txt", star(3), [1] * 4)
    assert main(["check", "--input", k13]) == 3
    assert capsys.readouterr().out == "NOT_CLAW_FREE center=1 leaves=2,3,4\n"


def test_check_non_ascii_file_reports_error(tmp_path, capsys):
    path = tmp_path / "cafe.txt"
    path.write_bytes(b"c ok\np edge 1 0\nc caf\xc3\xa9\n")
    for command in ("check", "solve"):
        assert main([command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 3:") and captured.err.count("\n") == 1


def test_gen_unwritable_out_reports_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "x.col"
    assert main(["gen", "--size", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_gen_refused_comment_reports_error_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    def comment_lines(self):
        yield "cert kind=line_graph_cover3 alpha=3"
        yield "bad\nline"

    monkeypatch.setattr(Certificate, "comment_lines", comment_lines)
    out = tmp_path / "x.txt"
    assert main(["gen", "--size", "10", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: comment is not one line of ASCII text: 'bad\\nline'\n"
    assert not out.exists()


def test_gen_certify_failure_reports_error(tmp_path, capsys, monkeypatch):
    def refuse(g, cert):
        raise ValueError("alpha is 2, certificate claims 3")

    monkeypatch.setattr(cli, "verify_certificate", refuse)
    out = tmp_path / "x.col"
    assert main(["gen", "--size", "10", "--out", str(out), "--certify"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: certification failed: alpha is 2, certificate claims 3\n"
    assert not out.exists()


def test_gen_writes_identical_bytes_for_same_seed(tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    args = ["gen", "--kind", "line_graph_cover3", "--size", "200", "--seed", "7"]
    assert main(args + ["--out", a]) == 0
    assert main(args + ["--out", b, "--certify"]) == 0
    assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


def test_gen_minimal_instance(tmp_path):
    out = tmp_path / "min.txt"
    assert main(["gen", "--size", "0", "--seed", "1", "--out", str(out)]) == 0
    text = out.read_text(encoding="ascii")
    assert "p edge 3 0" in text
    g, w = read_instance(text)
    assert (g.n, g.m) == (3, 0)
    assert all(1 <= x <= 100 for x in w)


def test_gen_output_solves(tmp_path, capsys):
    out = tmp_path / "inst.txt"
    for kind, expected_rc in (
        ("line_graph_cover3", 0),
        ("complement_triangle_free", 0),
        ("cycle", 2),
    ):
        size = "40" if kind != "cycle" else "12"
        assert main(
            ["gen", "--kind", kind, "--size", size, "--seed", "3",
             "--out", str(out), "--certify"]
        ) == 0
        rc = main(["solve", "--input", str(out)])
        assert rc == expected_rc
        capsys.readouterr()


def test_verify_zero_count(capsys):
    # --max-n runs from 3 to 4096; the values outside are usage errors.
    for max_n in ("3", "20", "4096"):
        assert main(["verify", "--count", "0", "--seed", "1", "--max-n", max_n]) == 0
        assert capsys.readouterr().out == "VERIFY total=0 pass=0 fail=0\n"


def test_verify_small_run(capsys):
    assert main(["verify", "--count", "40", "--seed", "5", "--max-n", "30"]) == 0
    assert capsys.readouterr().out == "VERIFY total=40 pass=40 fail=0\n"


def test_verify_harness_detects_injected_fault(tmp_path, capsys, monkeypatch):
    def broken(g, weights):
        return Optimal(nodes=(), weight=10**9, dropped_negative=0)

    # The harness looks the solver up in the module on each call.
    monkeypatch.setattr(cli, "mwss_alpha3", broken)
    failures = verify_instances(25, seed=2, max_n=20)
    assert len(failures) == 25
    # The seed fixes every draw: the first two specs, the second with
    # negative weights.
    assert [f.spec for f in failures[:2]] == [
        GenSpec("cycle", 12, 1, 100, seed=14119491246550939236),
        GenSpec("line_graph_cover3", 13, -50, 50, seed=13633754720362554755),
    ]

    # Through the CLI, which dumps the first failure.
    dump = tmp_path / "dump.txt"
    rc = main(["verify", "--count", "3", "--seed", "2", "--max-n", "20",
               "--dump", str(dump)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == "VERIFY total=3 pass=0 fail=3\n"
    assert captured.err == f"first failure dumped to {dump}\n"
    assert dump.exists()
    dumped = dump.read_text(encoding="ascii")
    assert dumped.startswith("c verify failure #0")
    read_instance(dumped)  # the dump itself is a valid instance file


# Each case names a graph and its weights: C7 (alpha 3) and C9 (alpha 4)
# with unit weights, and C8 (alpha 4) whose two negative nodes leave alpha 3
# on the rest, so that its answer is OPTIMAL weight=3, not ALPHA_GE_4.
CASES = {
    3: (7, [1] * 7),
    4: (9, [1] * 9),
    "c8": (8, [-1, -1, 1, 1, 1, 1, 1, 1]),
}


@pytest.mark.parametrize(
    "case, report, outcome, reason",
    [
        (3, (0, 2), None, "cardinality report size 2, oracle alpha 3"),
        (3, (0, 1, 3), None, "cardinality report is not stable"),
        (3, None, AlphaAtLeast4((0, 2, 4, 6)),
         "witness (0, 2, 4, 6) is not a stable 4-set of non-negative nodes"),
        (4, None, AlphaAtLeast4((0, 1, 3, 5)),
         "witness (0, 1, 3, 5) is not a stable 4-set of non-negative nodes"),
        (4, None, AlphaAtLeast4((0, 2, 4)),
         "witness (0, 2, 4) is not a stable 4-set of non-negative nodes"),
        (3, None, None, "unexpected outcome type NoneType"),
        (3, None, Optimal((0, 1), 2), "optimal set (0, 1) is not stable"),
        (3, None, Optimal((0, 2), 3), "reported weight does not match the reported set"),
        (4, None, Optimal((0,), 1),
         "solver returned Optimal but nonnegative nodes have alpha >= 4"),
        (3, None, Optimal((0,), 1), "optimal weight 1, oracle weight 3"),
        ("c8", None, AlphaAtLeast4((0, 2, 4, 6)),
         "witness (0, 2, 4, 6) is not a stable 4-set of non-negative nodes"),
        (3, None, Optimal((1, 3, 5), 3), "optimal set (1, 3, 5), oracle set (0, 2, 4)"),
    ],
)
def test_check_one_names_each_fault(monkeypatch, case, report, outcome, reason):
    # A report, when given, replaces the cardinality phase's; the solver
    # returns ``outcome`` whatever it is asked.
    n, weights = CASES[case]
    if report is not None:
        monkeypatch.setattr(cli, "stable_set_min_alpha4", lambda g: StableSetReport(report))
    monkeypatch.setattr(cli, "mwss_alpha3", lambda g, weights: outcome)
    assert cli._check_one(cycle(n), weights) == reason


def test_verify_unwritable_dump_reports_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "mwss_alpha3", lambda g, w: Optimal(nodes=(), weight=-1, dropped_negative=0)
    )
    dump = tmp_path / "missing_dir" / "dump.txt"
    rc = main(["verify", "--count", "1", "--seed", "2", "--max-n", "10",
               "--dump", str(dump)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert not dump.exists()


def test_bench_writes_one_json_record_file(tmp_path, capsys):
    out = tmp_path / "bench.json"
    start = time.perf_counter_ns()
    rc = main(["bench", "--sizes", "64,256", "--seed", "1", "--out", str(out)])
    wall_ns = time.perf_counter_ns() - start
    assert rc == 0
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]
    printed = capsys.readouterr().out

    # The records, plus what they were measured under.
    doc = json.loads(out.read_text(encoding="ascii"))
    assert (doc["python"], doc["debug"], doc["seed"]) == (platform.python_version(), __debug__, 1)
    assert [r["instance"] for r in doc["records"]] == [
        "line_graph_cover3-64", "line_graph_cover3-256"
    ]
    for r in doc["records"]:
        assert {"instance", "n", "m", "queries", "ns", "ratio"} <= r.keys()
        assert r["queries"] > 0
    # The summary line spans the records' ratios.
    ratios = [r["ratio"] for r in doc["records"]]
    lo, hi = min(ratios), max(ratios)
    assert lo < hi
    assert printed == f"RATIO min={lo:.6f} max={hi:.6f} spread={hi / lo:.3f}\n"
    # Each stage is timed apart, inside the run.
    times = ("gen_ns", "ns", "write_ns", "parse_ns", "validate_ns")
    assert all(r[k] > 0 for r in doc["records"] for k in times)
    assert sum(r[k] for r in doc["records"] for k in times) < wall_ns
    # The claw check asks each distinct neighbour pair of the centres of
    # degree >= 3 once, at most C(n, 2), and the store is one tuple header
    # per node plus 8 bytes per arc.
    for r, (g, _) in zip(doc["records"], bench_instances([64, 256], seed=1)):
        assert 0 < r["validate_queries"] == first_claw(g)[1] <= comb(g.n, 2)
        assert r["store_bytes"] == sys.getsizeof(()) * r["n"] + 16 * r["m"]


def test_bench_unwritable_output_reports_error(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "bench.json"
    rc = main(["bench", "--sizes", "64", "--seed", "1", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_run_bench_queries_are_deterministic():
    a = run_bench([128], seed=9)
    b = run_bench([128], seed=9)
    assert a[0].queries == b[0].queries
    assert a[0].instance == b[0].instance == "line_graph_cover3-128"
    # The ratio is queries / (max(m, 1) * log2(n + 2)); size 0 has no edge.
    edgeless = run_bench([0], seed=9)[0]
    assert (edgeless.n, edgeless.m) == (3, 0)
    assert edgeless.ratio == edgeless.queries / log2(5)


def test_bench_query_counts_are_pinned():
    # Exact counts of ``bench --seed 0`` at 2^10 and 2^12, and of the same
    # instances with one node dropped for a negative weight.  A change that
    # moves them edits this pin and says why.  The solve charges each pair
    # once: the same scans asked 1,686 and 5,177 (1,901 and 5,118).  Type iii
    # searches its exclusive-set triple once, not once per anchor: with all
    # three rotations the solve asked 1,512 and 5,003 (1,504 and 4,945).
    # Every search prunes against the solve's one running best: with a best
    # per search the solve asked 1,416 and 4,703 (1,412 and 4,648).
    assert [r.queries for r in run_bench([1024, 4096], seed=0)] == [1363, 4651]
    negative = []
    for g, weights in bench_instances([1024, 4096], seed=0):
        view = g.with_counter()
        mwss_alpha3(view, with_lightest_negative(weights))
        negative.append(view.counter.count)
    assert negative == [1358, 4596]
