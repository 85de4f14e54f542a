"""A/B wall times of two source trees, from alternated child processes.

    python tools/ab.py OLD_TREE NEW_TREE [--pairs 11]

Stdlib only, and not part of tier-1.  Each tree is a checkout of this
repository whose ``src`` holds the package.  Each tree gets one worker, a
child process that builds the instances once with this checkout's
``tests/helpers.py``, so both trees time the same instances: the
``bench --seed 0`` family at the pinned bench sizes (``bench_specs``) and
C_n^k at k = 255 with ``cycle_power_weights``, the instance
``tests/test_scaling.py`` pins.  The stages are the ones ``bench`` times
at each size (generate, write, parse, solve, validate), plus the C_n^k
solve and validate (``find_claw``).  The harness asks the two workers for
one stage after the other, so the two times of a pair are taken seconds
apart, and the worker that runs first alternates from pair to pair.  A host whose speed drifts shows
it in the range, while the median of the per-pair ratios stays near 1 on
two equal trees.

The report on stdout has one row per stage: each tree's median ms, the
median of the per-pair ratios NEW/OLD and their range.  A ratio below 1
means NEW is faster.  The last rows give the queries of each solve and
validate stage on both trees, which do not depend on the host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIZES = [1024, 4096, 16384, 65536, 262144]
CYCLE_POWER_K = 255
HELPERS = Path(__file__).resolve().parents[1] / "tests"

# The worker: it prints its stage names as one JSON line, then answers each
# stage name read from stdin with one JSON line [ns, queries or null].
WORKER = """
import json, sys, time
from clawmwss import find_claw, generate, mwss_alpha3, read_instance, write_instance
from helpers import bench_specs, cycle_power, cycle_power_weights

def timed(call):
    start = time.perf_counter_ns()
    call()
    return time.perf_counter_ns() - start

def counted(run, g, *args):
    view = g.with_counter()
    return timed(lambda: run(view, *args)), view.counter.count

sizes, k = json.loads(sys.argv[1]), int(sys.argv[2])
stages = {}
for spec in bench_specs(sizes, 0):
    g, weights, _ = generate(spec)
    text = write_instance(g, weights)
    stages[f"gen m={g.m}"] = lambda spec=spec: (timed(lambda: generate(spec)), None)
    stages[f"write m={g.m}"] = lambda g=g, w=weights: (timed(lambda: write_instance(g, w)), None)
    stages[f"parse m={g.m}"] = lambda text=text: (timed(lambda: read_instance(text)), None)
    stages[f"solve m={g.m}"] = lambda g=g, w=weights: counted(mwss_alpha3, g, w)
    stages[f"validate m={g.m}"] = lambda g=g: counted(find_claw, g)
g = cycle_power(k)
weights = cycle_power_weights(g.n)
stages[f"solve C_n^{k} m={g.m}"] = lambda: counted(mwss_alpha3, g, weights)
stages[f"validate C_n^{k} m={g.m}"] = lambda: counted(find_claw, g)
print(json.dumps(list(stages)), flush=True)
for line in sys.stdin:
    print(json.dumps(stages[line.strip()]()), flush=True)
"""


class Worker:
    """One tree's worker process."""

    def __init__(self, tree: Path) -> None:
        path = os.pathsep.join([str(tree / "src"), str(HELPERS)])
        self.proc = subprocess.Popen(
            [sys.executable, "-c", WORKER, json.dumps(SIZES), str(CYCLE_POWER_K)],
            env=dict(os.environ, PYTHONPATH=path),
            cwd=tree,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.stages = json.loads(self._line())

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return line

    def run(self, stage: str) -> tuple[int, int | None]:
        """(ns, queries or None) of one run of ``stage``."""
        self.proc.stdin.write(stage + "\n")
        self.proc.stdin.flush()
        ns, queries = json.loads(self._line())
        return ns, queries

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def report(old: str, new: str, times: dict, queries: dict, pairs: int) -> str:
    """The table of medians and NEW/OLD ratios over the pairs."""
    lines = [
        f"OLD = {old}  NEW = {new}  pairs = {pairs}, alternated"
        f"  (Python {platform.python_version()}, {os.cpu_count()} CPUs)",
        f"{'stage':<28} {'OLD ms':>10} {'NEW ms':>10} {'NEW/OLD':>8}  range",
    ]
    for stage, (a, b) in times.items():
        ratios = [y / x for x, y in zip(a, b)]
        lines.append(
            f"{stage:<28} {statistics.median(a) / 1e6:>10.2f}"
            f" {statistics.median(b) / 1e6:>10.2f} {statistics.median(ratios):>8.3f}"
            f"  {min(ratios):.3f}-{max(ratios):.3f}"
        )
    lines.extend(
        f"queries {stage}: {a:,} -> {b:,}" for stage, (a, b) in queries.items() if a is not None
    )
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="the tree to compare against")
    parser.add_argument("new", type=Path, help="the tree under test")
    parser.add_argument("--pairs", type=int, default=11)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workers = []
    try:
        for tree in (args.old, args.new):
            workers.append(Worker(tree.resolve()))
        if workers[0].stages != workers[1].stages:
            raise RuntimeError("the two trees build different instances")
        times = {stage: ([], []) for stage in workers[0].stages}
        queries = {}
        for i in range(args.pairs):
            for stage, sides in times.items():
                for side in (0, 1) if i % 2 == 0 else (1, 0):
                    ns, count = workers[side].run(stage)
                    sides[side].append(ns)
                    queries.setdefault(stage, [None, None])[side] = count
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr)
    finally:
        for worker in workers:
            worker.close()
    print(report(args.old.resolve().name, args.new.resolve().name, times, queries, args.pairs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
