"""Benchmark of ``clawmwss solve``, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One thread, one closed-loop client.  Set-up writes the workload's instance
files (see ``workloads.py``).  A child process that only imports
``clawmwss`` then makes one untimed warm-up solve and calls
``clawmwss.cli.main(["solve", "--input", FILE, ...])`` in-process, one
solve after another, in whole passes over the instance files until
``--seconds`` have elapsed.  It writes each solve's result line and times
to a file, and this process checks every result line against an answer
computed without the solver (``oracle.py``).

The run reports, with ``--trace 0``:

    queries_total    adjacency queries, one solve of each instance file
    setup_s          median set-up (import, generate, write) over at least
                     SETUP_REPS of them and SETUP_WALL_S of wall time, half
                     before the timed loop and half after it
    peak_rss_mib     peak resident set size of the solving child process

and prints, ungated, the latencies of the timed loop: ``solve_p50_s``, the
median over all timed solves, from the ``main`` call to its return;
``instances_per_s``, solves per second of the loop's wall time; and
``solve_p90_s`` where a run has at least 100 samples.  These are not
end-to-end metrics because the host's speed drifts: on a shared 2-vCPU
virtual machine (Intel Xeon, Python 3.11) the same code runs up to 1.75
times slower for tens of seconds at a time, with no steal time reported and
CPU time equal to wall time, so ten runs of one commit spread by more than
the largest regression bound (25%) a metric may have.  A traced run reports
them as ``untraced.*`` per-layer figures.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
the run's record also holds every sample.

With ``--trace 1`` the same run continues with one traced set-up, one
traced pass over the instance files, and one traced pass under
``python -O`` in a child process, and reports the per-layer metrics
(``PER_LAYER``): per traced function the calls, self seconds and self
queries summed over the pass.  Each run writes its record, with the
Python version, build mode, CPU count, commit and per-instance sizes, to
``.bench_out/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import astuple, dataclass
from pathlib import Path
from time import perf_counter

import oracle
import spans
from workloads import WORKLOADS, Workload, expectation, import_clawmwss, set_up, write_instances

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 4  # at least
SETUP_WALL_S = 6.0
CHILD_TIMEOUT_S = 120
SETUP_LAYERS = ("gen.generate", "instances.write_instance")

PER_LAYER = {
    "instances.read_instance.self_s": "s",
    "instances.read_instance.bytes": "bytes",
    "instances.write_instance.self_s": "s",
    "graph.build_graph.self_s": "s",
    "graph.induced_subgraph.self_s": "s",
    "graph.induced_subgraph.dropped_nodes": "count",
    **{
        f"{mod}.{fn}.{stat}": unit
        for mod in ("cardinality", "structure", "weighted")
        for fn in spans.LAYERS[mod]
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("queries", "count"))
    },
    "gen.generate.self_s": "s",
    "cli.main.self_s": "s",
    "debug_checks.queries": "count",
    "release.traced_solve_p50_s": "s",
    "trace.solve_p50_s": "s",
    "trace.overhead_ratio": "ratio",
    "untraced.solve_p50_s": "s",
    "untraced.instances_per_s": "1/s",
}

END_TO_END = {
    "queries_total": "count",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


@dataclass
class Sample:
    index: int
    seconds: float  # from the ``main`` call to its return
    span: float  # loop wall time this solve accounts for
    code: int | None
    out: str
    err: str
    queries: int


class Client:
    """Calls ``clawmwss.cli.main`` in-process and captures what it prints."""

    def __init__(self, cm, probe: spans.CounterProbe, tracer: spans.Tracer | None = None):
        self.cli = cm.cli
        self.probe = probe
        self.tracer = tracer
        self._out = io.StringIO()
        self._err = io.StringIO()

    def solve(self, index: int, argv: list[str]) -> Sample:
        for buf in (self._out, self._err):
            buf.seek(0)
            buf.truncate()
        if self.tracer is not None:
            self.tracer.instance = index
        # Each solve starts on a collected heap, and the collector never
        # rescans what earlier solves left behind.
        gc.collect()
        gc.freeze()
        self.probe.reset()
        code = None
        with redirect_stdout(self._out), redirect_stderr(self._err):
            started = perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit):
                traceback.print_exc()
            seconds = perf_counter() - started
        return Sample(
            index, seconds, 0.0, code, self._out.getvalue(), self._err.getvalue(),
            self.probe.total(),
        )


def solve_loop(client: Client, argvs: dict[int, list[str]], seconds: float, emit) -> None:
    """Solve the instances in whole passes until ``seconds`` have elapsed
    (at least one pass) and hand each sample to ``emit``.

    A sample's span is the loop's wall time from the return of the previous
    solve to the return of its own, so the spans of a pass add up to the
    pass's wall time.
    """
    started = mark = perf_counter()
    while True:
        for index, argv in argvs.items():
            sample = client.solve(index, argv)
            now = perf_counter()
            sample.span, mark = now - mark, now
            emit(sample)
        if perf_counter() - started >= seconds:
            break


class Checker:
    """Checks each result as it arrives.  Repeated solves of one instance
    must print the same thing and make the same number of queries."""

    def __init__(self, expects: dict[int, oracle.Expect]):
        self.expects = expects
        self.queries: dict[int, int] = {}
        self.failures: list[str] = []
        self.checked = 0
        self._verdicts: dict[tuple, str | None] = {}

    def add(self, s: Sample) -> None:
        self.checked += 1
        key = (s.index, s.code, s.out, s.err)
        if key not in self._verdicts:
            self._verdicts[key] = oracle.check(self.expects[s.index], s.code, s.out, s.err)
        reason = self._verdicts[key]
        if reason is None and self.queries.setdefault(s.index, s.queries) != s.queries:
            reason = "query count differs between solves of one instance"
        if reason is not None:
            self.failures.append(f"instance {s.index}: {reason}")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = root / ".git" / ref
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def solving_client(traced: bool = False) -> tuple[Client, spans.Tracer | None]:
    """A client for a child process: ``clawmwss`` imported afresh, queries
    counted, and spans recorded when ``traced``."""
    cm = import_clawmwss()
    probe = spans.CounterProbe(cm.graph.Graph)
    probe.install()
    tracer = spans.Tracer(probe) if traced else None
    return Client(cm, probe, tracer), tracer


def run_child(mode: str, workdir: Path, manifest: dict, python_flags: tuple = ()) -> None:
    path = workdir / f"{mode}-manifest.json"
    path.write_text(json.dumps(manifest))
    subprocess.run(
        [sys.executable, *python_flags, str(Path(__file__)), f"--{mode}", str(path)],
        cwd=ROOT,
        check=True,
        timeout=manifest.get("seconds", 0) + CHILD_TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )


def peak_rss_mib() -> float:
    """This process's peak resident set size.  ``VmHWM`` counts only the
    program the process runs; ``ru_maxrss`` would also count the parent's
    pages a child shares between fork and exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_pass(manifest: dict) -> int:
    """Child process: a warm-up solve, then the timed loop.  Writes one JSON
    row per solve as it goes (``warmup`` first), so its memory does not grow
    with the number of samples, and last its peak RSS."""
    client, _ = solving_client()
    argvs = {int(k): v for k, v in manifest["argvs"]}
    with open(manifest["out"], "w") as fh:

        def emit(sample: Sample, tag: str = "solve") -> None:
            fh.write(json.dumps([tag, *astuple(sample)]) + "\n")

        emit(client.solve(*next(iter(argvs.items()))), "warmup")
        solve_loop(client, argvs, manifest["seconds"], emit)
        fh.write(json.dumps(["end", peak_rss_mib()]) + "\n")
    return 0


def release_pass(manifest: dict) -> int:
    """Child process under ``python -O``: one traced pass, results to JSON."""
    client, tracer = solving_client(traced=True)
    tracer.install()
    samples: list[Sample] = []
    solve_loop(client, {int(k): v for k, v in manifest["argvs"]}, 0, samples.append)
    sums = spans.self_queries_by_instance(tracer.spans)
    Path(manifest["out"]).write_text(
        json.dumps(
            {
                "debug": __debug__,
                "samples": [astuple(s) for s in samples],
                "self_queries": [sums.get(s.index, 0) for s in samples],
            }
        )
    )
    return 0


def attribution_errors(samples: list[Sample], span_list: list[list]) -> list[str]:
    """Self queries must sum to each instance's counter total."""
    sums = spans.self_queries_by_instance(span_list)
    return [
        f"instance {s.index}: self queries {sums.get(s.index, 0)}, counter {s.queries}"
        for s in samples
        if sums.get(s.index, 0) != s.queries
    ]


def traced_metrics(cm, checker, workload, seed, workdir, argvs, latency):
    """Per-layer metrics from one traced set-up, one traced pass and one
    traced pass under ``python -O``.  Traced results go through the run's
    checker, so they must also match the untraced query counts."""
    probe = spans.CounterProbe(cm.graph.Graph)
    probe.install()
    tracer = spans.Tracer(probe)
    tracer.instance = "setup"
    tracer.install()
    try:
        write_instances(cm, workload, seed, workdir)
        traced: list[Sample] = []
        solve_loop(Client(cm, probe, tracer), argvs, 0, traced.append)
    finally:
        tracer.uninstall()
        probe.uninstall()
    for s in traced:
        checker.add(s)
    checker.failures += attribution_errors(traced, tracer.spans)

    result = workdir / "release-result.json"
    run_child("release-pass", workdir, {"argvs": list(argvs.items()), "out": str(result)}, ("-O",))
    release = json.loads(result.read_text())
    rel = [Sample(*row) for row in release["samples"]]
    release_checker = Checker(checker.expects)
    for s in rel:
        release_checker.add(s)
    checker.checked += release_checker.checked
    checker.failures += release_checker.failures
    if release["debug"]:
        checker.failures.append("release pass ran with debug checks on")
    for s, t, self_q in zip(rel, traced, release["self_queries"]):
        if (s.code, s.out) != (t.code, t.out):
            checker.failures.append(f"instance {s.index}: result differs under python -O")
        if self_q != s.queries:
            checker.failures.append(f"instance {s.index}: release self queries do not sum up")

    setup_layers = spans.per_layer(tracer.spans, {"setup"})
    layers = spans.per_layer(tracer.spans, set(argvs))
    metrics = {}
    for name in PER_LAYER:
        fn, stat = name.rsplit(".", 1)
        source = setup_layers if fn in SETUP_LAYERS else layers
        if fn in source and stat in ("calls", "self_s", "queries"):
            metrics[name] = source[fn][stat]
    traced_p50 = statistics.median(s.seconds for s in traced)
    metrics.update(
        {
            "instances.read_instance.bytes": layers["instances.read_instance"]["extra"],
            "graph.induced_subgraph.dropped_nodes": layers["graph.induced_subgraph"]["extra"],
            "debug_checks.queries": sum(s.queries for s in traced) - sum(s.queries for s in rel),
            "release.traced_solve_p50_s": statistics.median(s.seconds for s in rel),
            "trace.solve_p50_s": traced_p50,
            "trace.overhead_ratio": traced_p50 / latency["solve_p50_s"],
            "untraced.solve_p50_s": latency["solve_p50_s"],
            "untraced.instances_per_s": latency["instances_per_s"],
        }
    )
    return metrics, tracer.spans


def measure(workload: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    expects: dict[int, oracle.Expect] = {}

    def inspect(cm, index, g, weights, cert):
        expects[index] = expectation(cm, workload, g, weights, cert)

    # Set-up repeats before and after the timed loop, so that each run's
    # median samples the host over the whole run and rests on at least
    # SETUP_WALL_S of set-up work; short set-ups repeat more often.
    setup_s: list[float] = []

    def set_up_until(reps: int, wall: float):
        started = perf_counter()
        while True:
            secs, instances, cm = set_up(workload, seed, workdir, None if setup_s else inspect)
            setup_s.append(secs)
            if len(setup_s) >= reps and perf_counter() - started >= wall:
                return instances, cm

    instances, cm = set_up_until(SETUP_REPS // 2, SETUP_WALL_S / 2)
    if not Path(cm.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"clawmwss imported from {cm.__file__}, not from {SRC}")

    flags = ["--validate"] if workload.validate else []
    argvs = {i.index: ["solve", "--input", str(i.path), *flags] for i in instances}
    rows = workdir / "timed-samples.jsonl"
    run_child(
        "timed-pass", workdir, {"argvs": list(argvs.items()), "out": str(rows), "seconds": seconds}
    )
    instances, cm = set_up_until(SETUP_REPS, SETUP_WALL_S / 2)

    # Only the times of each timed solve are kept, so this process's memory
    # hardly grows with the number of samples.
    checker = Checker(expects)
    timed = array("l"), array("d"), array("d")  # index, seconds, span
    with open(rows) as fh:
        for line in fh:
            tag, *row = json.loads(line)
            if tag == "end":
                (child_peak_mib,) = row
                continue
            sample = Sample(*row)
            checker.add(sample)
            if tag == "warmup":
                warmup = sample
                continue
            for column, value in zip(timed, astuple(sample)[:3]):
                column.append(value)
    indices, latencies, spans_s = timed
    record = {
        "instances": [
            {"index": i.index, "label": i.label, "n": i.n, "m": i.m, "bytes": i.bytes}
            for i in instances
        ],
        "setup_s_reps": setup_s,
        "warmup": {"seconds": warmup.seconds, "queries": warmup.queries},
        "queries": checker.queries,
        "samples": list(zip(indices, latencies, spans_s)),
        "passes": len(latencies) // len(instances),
        # Informational: the spans of the timed solves add up to the loop's
        # wall time.
        "latency": {
            "samples": len(latencies),
            "solve_p50_s": statistics.median(latencies),
            "solve_p90_s": (
                statistics.quantiles(latencies, n=10)[8] if len(latencies) >= 100 else None
            ),
            "instances_per_s": len(latencies) / sum(spans_s),
        },
    }
    metrics = {
        "queries_total": sum(checker.queries.values()),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": child_peak_mib,
    }
    if trace:
        metrics, record["spans"] = traced_metrics(
            cm, checker, workload, seed, workdir, argvs, record["latency"]
        )

    record["failures"] = checker.failures[:50]
    return {
        "attempted": checker.checked,
        "failed": len(checker.failures),
        "metrics": metrics,
        "record": record,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--timed-pass", help=argparse.SUPPRESS)
    parser.add_argument("--release-pass", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None and not (args.timed_pass or args.release_pass):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "clawmwss" / "__init__.py").is_file():
        print(f"error: no clawmwss sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.timed_pass:
        return timed_pass(json.loads(Path(args.timed_pass).read_text()))
    if args.release_pass:
        return release_pass(json.loads(Path(args.release_pass).read_text()))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    record = result.pop("record")
    span_list = record.pop("spans", None)
    record.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        python=platform.python_version(),
        debug=__debug__,
        nproc=os.cpu_count(),
        commit=git_commit(ROOT),
        metrics=result["metrics"],
    )
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if span_list is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for sp in span_list:
                fh.write(json.dumps(sp) + "\n")

    print(
        f"workload={workload.name} seed={args.seed} trace={args.trace} "
        f"instances={len(record['instances'])} passes={record['passes']} "
        f"samples={len(record['samples'])} failed={result['failed']}"
    )
    latency = record["latency"]
    p90 = latency["solve_p90_s"]
    print(
        f"ungated, over {latency['samples']} timed solves: "
        f"solve_p50_s {latency['solve_p50_s']:.6g} s, "
        + (f"solve_p90_s {p90:.6g} s, " if p90 is not None else "")
        + f"instances_per_s {latency['instances_per_s']:.6g} 1/s"
    )
    for reason in record["failures"][:5]:
        print(f"FAIL {reason}")
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()
    }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
