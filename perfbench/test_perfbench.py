"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench

The workload tests use scaled-down copies of the real workloads, so they
exercise the same set-up, solve, check and trace code in seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, import_clawmwss, set_up  # noqa: E402

SMALL = {
    "large_alpha3": dict(size=1 << 11),
    "validate_mid": dict(size=1 << 9),
    "small_mixed": dict(count=60),
}


@pytest.fixture
def workdir():
    path = run.OUT / "test-work"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_host_matching_agrees_with_brute_force():
    cm = import_clawmwss()
    rng = cm.gen.SplitMix64(11)
    for _ in range(40):
        spec = cm.gen.GenSpec(
            kind="line_graph_cover3",
            size=rng.randint(1, 150),
            weight_lo=-50,
            weight_hi=50,
            seed=rng.next_u64(),
        )
        g, weights, cert = cm.gen.generate(spec)
        expect = oracle.expect_line_graph(g, weights, cert, cm.oracles)
        assert expect.weight == cm.oracles.brute_mwss(g, weights)[1]


def test_check_rejects_wrong_answers():
    # Path a - b - c with weights 5, 1, 4: the optimum is {a, c}, weight 9.
    expect = oracle.Expect((5, 1, 4), (0b010, 0b101, 0b010), False, 9)
    assert oracle.check(expect, 0, "OPTIMAL weight=9 set=1,3\n", "") is None
    assert oracle.check(expect, 0, "OPTIMAL weight=5 set=1\n", "") is not None
    assert oracle.check(expect, 0, "OPTIMAL weight=6 set=1,2\n", "") is not None
    assert oracle.check(expect, 0, "OPTIMAL weight=10 set=1,3\n", "") is not None
    assert oracle.check(expect, 2, "OPTIMAL weight=9 set=1,3\n", "") is not None
    assert oracle.check(expect, 0, "OPTIMAL weight=9 set=3,1\n", "") is not None
    assert oracle.check(expect, 0, "OPTIMAL weight=9 set=1,3\n", "error: x\n") is not None
    four = oracle.Expect((1,) * 5, (0,) * 5, True, None)
    assert oracle.check(four, 2, "ALPHA_GE_4 witness=1,2,3,5\n", "") is None
    assert oracle.check(four, 2, "ALPHA_GE_4 witness=1,2,3\n", "") is not None
    assert oracle.check(four, 0, "OPTIMAL weight=5 set=1,2,3,4,5\n", "") is not None


def test_solve_loop_makes_whole_passes_whose_spans_add_up():
    class Client:
        def solve(self, index, argv):
            return run.Sample(index, 0.5, 0.0, 0, "", "", 0)

    samples = []
    started = run.perf_counter()
    run.solve_loop(Client(), {0: [], 1: [], 2: []}, 0, samples.append)
    wall = run.perf_counter() - started
    assert [s.index for s in samples] == [0, 1, 2]
    assert 0 < sum(s.span for s in samples) <= wall


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_self_queries_sum_to_counter_total(name, workdir):
    workload = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    result = run.measure(workload, seed=5, seconds=0, trace=True, workdir=workdir)
    record = result["record"]
    assert result["failed"] == 0, record["failures"]
    per_instance = spans.self_queries_by_instance(record["spans"])
    untraced = record["queries"]
    assert {k: v for k, v in per_instance.items() if k != "setup"} == untraced
    assert set(result["metrics"]) == set(run.PER_LAYER)
    if name == "validate_mid":
        assert result["metrics"]["structure.find_claw.calls"] == len(untraced)
    else:
        assert result["metrics"]["structure.find_claw.calls"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_repeats_exactly(name, workdir):
    workload = dataclasses.replace(WORKLOADS[name], **SMALL[name])
    first = run.measure(workload, seed=9, seconds=0, trace=False, workdir=workdir)
    files = {p.name: p.read_bytes() for p in workdir.glob("*.col")}
    second = run.measure(workload, seed=9, seconds=0, trace=False, workdir=workdir)
    assert files == {p.name: p.read_bytes() for p in workdir.glob("*.col")}
    assert first["failed"] == second["failed"] == 0
    assert first["metrics"]["queries_total"] == second["metrics"]["queries_total"]
    other = run.measure(workload, seed=10, seconds=0, trace=False, workdir=workdir)
    assert files != {p.name: p.read_bytes() for p in workdir.glob("*.col")}
    assert other["failed"] == 0


def test_set_up_writes_one_file_per_centre_edge_class(workdir):
    workload = dataclasses.replace(WORKLOADS["large_alpha3"], **SMALL["large_alpha3"])
    _, instances, _ = set_up(workload, 3, workdir)
    assert [i.label for i in instances] == ["k0", "k1", "k2", "k3"]
    assert all(i.path.stat().st_size == i.bytes for i in instances)


def test_command_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_mixed", "--seed", "2",
         "--seconds", "0.2", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_program_sources():
    bare = run.OUT / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "small_mixed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
