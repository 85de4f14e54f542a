import json
import os
import platform
import subprocess
import sys
from math import comb
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
from clawmwss.cli import BenchRecord, main, render_csv, run_bench, verify_instances
from clawmwss.gen import GenSpec, SplitMix64
from clawmwss.graph import NODE_LIMIT, build_graph

from helpers import bench_instances, cycle, edge_set, mutant_corpus, star, with_lightest_negative


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


def test_solve_star_detects_claw_even_without_validate(tmp_path, capsys):
    path = _instance_file(tmp_path, "star.txt", star(3), [1] * 4)
    rc = main(["solve", "--input", path])
    assert rc == 3
    assert capsys.readouterr().out.startswith("NOT_CLAW_FREE ")


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
        ["bench", "--sizes", "1,x", "--out", "unused.csv"],
        ["verify", "--max-n", "2"],
        ["verify", "--max-n", "-1"],
        ["verify", "--count", "-5"],
        ["verify", "--max-n", "1048577"],
        ["verify", "--max-n", "4097"],
        ["gen", "--size", "10", "--wlo", "-99999999999999999999", "--out", "unused"],
        ["gen", "--kind", "cycle", "--size", "1048577", "--out", "unused"],
        ["bench", "--sizes", "183251588438", "--out", "unused.csv"],
        ["gen", "--size", "8368566", "--out", "unused"],
        ["bench", "--sizes", "8368566", "--out", "unused.csv"],
        ["gen", "--kind", "complement_triangle_free", "--size", "4097", "--out", "unused"],
        ["gen", "--kind", "line_graph_cover3", "--size", "-5", "--out", "unused"],
        ["bench", "--sizes", "-5", "--out", "unused.csv"],
        ["bench", "--sizes", "", "--out", "unused.csv"],
    ],
    ids=" ".join,
)
def test_usage_error_exits_1_with_one_error_line(argv, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


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
    assert main(["verify", "--count", "0", "--seed", "1", "--max-n", "20"]) == 0
    assert capsys.readouterr().out == "VERIFY total=0 pass=0 fail=0\n"


def test_verify_small_run(capsys):
    assert main(["verify", "--count", "40", "--seed", "5", "--max-n", "30"]) == 0
    assert capsys.readouterr().out == "VERIFY total=40 pass=40 fail=0\n"


def test_verify_harness_detects_injected_fault(tmp_path, capsys, monkeypatch):
    def broken(g, weights):
        return Optimal(nodes=(), weight=10**9, dropped_negative=0)

    summary = verify_instances(25, seed=2, max_n=20, solver=broken)
    assert len(summary.failures) == 25
    assert summary.passed == 0

    # Through the CLI: the default solver resolves from the module, so the
    # fault injection also exercises the dump path.
    monkeypatch.setattr(cli, "mwss_alpha3", broken)
    dump = tmp_path / "dump.txt"
    rc = main(["verify", "--count", "3", "--seed", "2", "--max-n", "20",
               "--dump", str(dump)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "fail=3" in out
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
    ],
)
def test_check_one_names_each_fault(monkeypatch, case, report, outcome, reason):
    # A report, when given, replaces the cardinality phase's; the solver
    # returns ``outcome`` whatever it is asked.
    n, weights = CASES[case]
    if report is not None:
        monkeypatch.setattr(cli, "stable_set_min_alpha4", lambda g: StableSetReport(report))
    assert cli._check_one(cycle(n), weights, lambda g, weights: outcome) == reason


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


def test_bench_records_and_csv(tmp_path, capsys):
    out, out_json = tmp_path / "bench.csv", tmp_path / "bench.json"
    rc = main(["bench", "--sizes", "64,256", "--seed", "1", "--out", str(out),
               "--json", str(out_json)])
    assert rc == 0
    lines = out.read_text(encoding="ascii").splitlines()
    assert lines[0] == "instance,n,m,queries,ns,ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 6
        assert int(fields[3]) > 0
        float(fields[5])
    assert capsys.readouterr().out.startswith("RATIO min=")

    # The JSON file holds the same rows, plus what they were measured under.
    doc = json.loads(out_json.read_text(encoding="ascii"))
    assert (doc["python"], doc["debug"], doc["seed"]) == (platform.python_version(), __debug__, 1)
    json_rows = [
        ",".join(str(r[k]) for k in ("instance", "n", "m", "queries", "ns"))
        + f",{r['ratio']:.6f}"
        for r in doc["records"]
    ]
    assert json_rows == lines[1:]
    times = ("gen_ns", "write_ns", "parse_ns", "validate_ns")
    assert all(r[k] > 0 for r in doc["records"] for k in times)
    # The claw check asks every neighbour pair of each centre of degree >= 3
    # once, and the store is one tuple header per node plus 8 bytes per arc.
    for r, (g, _) in zip(doc["records"], bench_instances([64, 256], seed=1)):
        degrees = [len(g.neighbors(v)) for v in range(g.n)]
        assert r["validate_queries"] == sum(comb(d, 2) for d in degrees if d >= 3) > 0
        assert r["store_bytes"] == sys.getsizeof(()) * r["n"] + 16 * r["m"]


@pytest.mark.parametrize("missing", ["--out", "--json"])
def test_bench_unwritable_output_reports_error(tmp_path, capsys, missing):
    paths = {"--out": tmp_path / "bench.csv", "--json": tmp_path / "bench.json"}
    paths[missing] = tmp_path / "missing_dir" / "bench.txt"
    rc = main(["bench", "--sizes", "64", "--seed", "1",
               "--out", str(paths["--out"]), "--json", str(paths["--json"])])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert not paths[missing].exists()


def test_render_csv_exact_format():
    rec = BenchRecord(
        instance="x", n=3, m=2, queries=10, ns=1234, ratio=1.5, write_ns=1,
        parse_ns=2, gen_ns=3, validate_ns=4, validate_queries=5, store_bytes=6,
    )
    assert render_csv([rec]) == (
        "instance,n,m,queries,ns,ratio\nx,3,2,10,1234,1.500000\n"
    )


def test_run_bench_queries_are_deterministic():
    a = run_bench([128], seed=9)
    b = run_bench([128], seed=9)
    assert a[0].queries == b[0].queries
    assert a[0].instance == b[0].instance == "line_graph_cover3-128"


def test_bench_query_counts_are_pinned():
    # Exact counts of ``bench --seed 0`` at 2^10 and 2^12, and of the same
    # instances with one node dropped for a negative weight.  A change that
    # moves them edits this pin and says why.
    assert [r.queries for r in run_bench([1024, 4096], seed=0)] == [1917, 5589]
    negative = []
    for g, weights in bench_instances([1024, 4096], seed=0):
        view = g.with_counter()
        mwss_alpha3(view, with_lightest_negative(weights))
        negative.append(view.counter.count)
    assert negative == [2153, 5527]
