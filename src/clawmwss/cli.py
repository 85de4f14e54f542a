"""Command-line front end: solve, check, gen, verify, bench.

Result lines are machine-parseable and stable:

    OPTIMAL weight=<int> set=<comma ids>
    ALPHA_GE_4 witness=<comma ids>
    NOT_CLAW_FREE center=<id> leaves=<comma ids>
    CLAW_FREE alpha=<k> | CLAW_FREE alpha>=4

Node ids are printed 1-based ascending, matching the instance file format.
Exit codes: 0 optimal / success, 1 input or usage error, 2 alpha >= 4,
3 not claw-free.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass
from math import isqrt, log2
from typing import IO, Callable, Sequence

from .errors import ClawWitnessError, InstanceFormatError
from .gen import (
    EDGE_LIMIT, KINDS, GenSpec, SplitMix64, generate, sample_spec, verify_certificate
)
from .graph import Graph, total_weight
from .instances import dump_instance, read_instance, write_instance
from .oracles import brute_alpha_min4, brute_mwss, is_stable_set
from .cardinality import stable_set_min_alpha4
from .structure import Claw, find_claw
from .weighted import AlphaAtLeast4, Optimal, SolveOutcome, mwss_alpha3

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_ALPHA_GE_4 = 2
EXIT_NOT_CLAW_FREE = 3

# The largest --max-n for which every spec sample_spec draws passes
# generate: a complement_triangle_free instance on n nodes may have
# C(n, 2) <= n^2 / 2 edges.
VERIFY_MAX_N = isqrt(2 * EDGE_LIMIT)


def _ids(nodes: Sequence[int]) -> str:
    return ",".join(str(v + 1) for v in sorted(nodes))


def _load(path: str) -> tuple[Graph, list[int]]:
    # Non-ASCII bytes decode to surrogates; read_instance reports their line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        return read_instance(fh)


_INPUT_ERRORS = (OSError, InstanceFormatError)


def _error(message: object) -> int:
    """Print one ``error:`` line; return the input-error exit code."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _save(path: str, write: Callable[[IO[str]], object]) -> bool:
    """Open ``path`` and ``write`` to it; on failure print one error line
    instead."""
    try:
        with open(path, "w", encoding="ascii") as fh:
            write(fh)
    except OSError as exc:
        _error(exc)
        return False
    return True


def _not_claw_free(claw: Claw | ClawWitnessError) -> int:
    print(f"NOT_CLAW_FREE center={claw.center + 1} leaves={_ids(claw.leaves)}")
    return EXIT_NOT_CLAW_FREE


def cmd_solve(args: argparse.Namespace) -> int:
    try:
        g, weights = _load(args.input)
    except _INPUT_ERRORS as exc:
        return _error(exc)
    claw = find_claw(g) if args.validate else None
    if claw is not None:
        return _not_claw_free(claw)
    try:
        outcome = mwss_alpha3(g, weights)
    except ClawWitnessError as exc:
        return _not_claw_free(exc)
    if isinstance(outcome, AlphaAtLeast4):
        print(f"ALPHA_GE_4 witness={_ids(outcome.witness)}")
        return EXIT_ALPHA_GE_4
    print(f"OPTIMAL weight={outcome.weight} set={_ids(outcome.nodes)}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    try:
        g, _ = _load(args.input)
    except _INPUT_ERRORS as exc:
        return _error(exc)
    claw = find_claw(g)
    if claw is not None:
        return _not_claw_free(claw)
    report = stable_set_min_alpha4(g)
    if report.alpha_at_least_4:
        print("CLAW_FREE alpha>=4")
    else:
        print(f"CLAW_FREE alpha={report.exact_alpha}")
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    spec = GenSpec(
        kind=args.kind,
        size=args.size,
        weight_lo=args.wlo,
        weight_hi=args.whi,
        seed=args.seed,
    )
    try:
        g, weights, cert = generate(spec)
    except ValueError as exc:
        return _error(exc)
    if args.certify:
        try:
            verify_certificate(g, cert)
        except ValueError as exc:
            return _error(f"certification failed: {exc}")
    if not _save(args.out, lambda fh: dump_instance(g, weights, fh, cert.comment_lines())):
        return EXIT_INPUT_ERROR
    return EXIT_OK


@dataclass
class VerifyFailure:
    index: int
    spec: GenSpec
    reason: str
    instance_text: str


@dataclass
class VerifySummary:
    total: int
    passed: int
    failures: list[VerifyFailure]


def verify_instances(
    count: int,
    seed: int,
    max_n: int,
    solver: Callable[..., SolveOutcome] | None = None,
) -> VerifySummary:
    """Generate instances and compare solver results against the oracles.

    Checks, per instance: the cardinality report size equals min(alpha, 4)
    and is stable; an alpha >= 4 outcome carries a stable 4-set; an optimal
    outcome is stable, self-consistent, and matches the brute-force optimum
    exactly.  The solver is injectable so the harness can be self-tested
    against a deliberately broken implementation.
    """
    solve = solver if solver is not None else mwss_alpha3
    rng = SplitMix64(seed)
    failures: list[VerifyFailure] = []
    for index in range(count):
        spec = sample_spec(rng, max_n, negative_weights=bool(rng.below(2)))
        g, weights, _ = generate(spec)
        reason = _check_one(g, weights, solve)
        if reason is not None:
            failures.append(
                VerifyFailure(index, spec, reason, write_instance(g, weights))
            )
    return VerifySummary(count, count - len(failures), failures)


def _check_one(g: Graph, weights: list[int], solve: Callable[..., SolveOutcome]) -> str | None:
    alpha = brute_alpha_min4(g)
    report = stable_set_min_alpha4(g.with_counter())
    if len(report.nodes) != alpha:
        return f"cardinality report size {len(report.nodes)}, oracle alpha {alpha}"
    if not is_stable_set(g, report.nodes):
        return "cardinality report is not stable"

    outcome = solve(g.with_counter(), weights)
    if isinstance(outcome, AlphaAtLeast4):
        w = outcome.witness
        if len(set(w)) != 4 or not is_stable_set(g, w) or min(weights[v] for v in w) < 0:
            return f"witness {w} is not a stable 4-set of non-negative nodes"
        return None
    if not isinstance(outcome, Optimal):
        return f"unexpected outcome type {type(outcome).__name__}"
    if not is_stable_set(g, outcome.nodes):
        return f"optimal set {outcome.nodes} is not stable"
    if total_weight(weights, outcome.nodes) != outcome.weight:
        return "reported weight does not match the reported set"
    try:
        _, expected = brute_mwss(g, weights)
    except ValueError:
        return "solver returned Optimal but nonnegative nodes have alpha >= 4"
    if outcome.weight != expected:
        return f"optimal weight {outcome.weight}, oracle weight {expected}"
    return None


def cmd_verify(args: argparse.Namespace) -> int:
    if args.count < 0 or not 3 <= args.max_n <= VERIFY_MAX_N:
        return _error(f"verify needs --count >= 0 and 3 <= --max-n <= {VERIFY_MAX_N}")
    summary = verify_instances(args.count, args.seed, args.max_n)
    print(
        f"VERIFY total={summary.total} pass={summary.passed} "
        f"fail={len(summary.failures)}"
    )
    if summary.failures:
        first = summary.failures[0]
        header = f"c verify failure #{first.index}: {first.reason}\n"
        if _save(args.dump, lambda fh: fh.write(header + first.instance_text)):
            print(f"first failure dumped to {args.dump}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


@dataclass(frozen=True)
class BenchRecord:
    instance: str
    n: int
    m: int
    queries: int
    ns: int
    ratio: float
    write_ns: int
    parse_ns: int
    gen_ns: int
    validate_ns: int
    validate_queries: int
    store_bytes: int


def run_bench(sizes: Sequence[int], seed: int) -> list[BenchRecord]:
    """Solve the pinned scaling family, recording adjacency-query counts and
    the solve's time, plus the time of ``generate`` of each instance,
    ``write_instance`` of it and ``read_instance`` of that text, the time
    and queries of ``find_claw`` on it alone, and the bytes of its
    adjacency store (``sys.getsizeof`` summed over the per-node tuples)."""
    rng = SplitMix64(seed)
    records = []
    for target in sizes:
        spec = GenSpec(kind="line_graph_cover3", size=target, seed=rng.next_u64())
        t0 = time.perf_counter_ns()
        g, weights, _ = generate(spec)
        gen_ns = time.perf_counter_ns() - t0
        view = g.with_counter()
        t0 = time.perf_counter_ns()
        mwss_alpha3(view, weights)
        elapsed = time.perf_counter_ns() - t0
        queries = view.counter.count
        ratio = queries / (max(g.m, 1) * log2(g.n + 2))
        t0 = time.perf_counter_ns()
        text = write_instance(g, weights)
        t1 = time.perf_counter_ns()
        read_instance(text)
        t2 = time.perf_counter_ns()
        claw_view = g.with_counter()
        find_claw(claw_view)
        t3 = time.perf_counter_ns()
        records.append(
            BenchRecord(
                instance=f"line_graph_cover3-{target}",
                n=g.n,
                m=g.m,
                queries=queries,
                ns=elapsed,
                ratio=ratio,
                write_ns=t1 - t0,
                parse_ns=t2 - t1,
                gen_ns=gen_ns,
                validate_ns=t3 - t2,
                validate_queries=claw_view.counter.count,
                store_bytes=sum(sys.getsizeof(g.neighbors(v)) for v in range(g.n)),
            )
        )
    return records


def render_csv(records: Sequence[BenchRecord]) -> str:
    lines = ["instance,n,m,queries,ns,ratio"]
    for r in records:
        lines.append(f"{r.instance},{r.n},{r.m},{r.queries},{r.ns},{r.ratio:.6f}")
    return "\n".join(lines) + "\n"


def render_json(records: Sequence[BenchRecord], seed: int) -> str:
    """The records, with the generate, write, parse and claw-check figures
    and the store bytes the CSV leaves out, plus what they were measured
    under: the Python version, the build mode (``__debug__``, false under
    ``python -O``) and the seed."""
    doc = {
        "python": platform.python_version(),
        "debug": __debug__,
        "seed": seed,
        "records": [asdict(r) for r in records],
    }
    return json.dumps(doc, indent=1) + "\n"


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError:
        return _error(f"--sizes is not a comma-separated integer list: {args.sizes!r}")
    if not sizes:
        return _error("--sizes lists no size")
    try:
        records = run_bench(sizes, args.seed)
    except ValueError as exc:
        return _error(exc)
    if not _save(args.out, lambda fh: fh.write(render_csv(records))):
        return EXIT_INPUT_ERROR
    if args.json_out and not _save(
        args.json_out, lambda fh: fh.write(render_json(records, args.seed))
    ):
        return EXIT_INPUT_ERROR
    ratios = [r.ratio for r in records]
    lo, hi = min(ratios), max(ratios)
    spread = hi / lo if lo > 0 else float("inf")
    print(f"RATIO min={lo:.6f} max={hi:.6f} spread={spread:.3f}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """One ``error:`` line and exit code 1, not argparse's usage text and
        exit code 2 (the ALPHA_GE_4 code)."""
        raise SystemExit(_error(message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clawmwss",
        description="Exact maximum-weight stable set solver for claw-free "
        "graphs with independence number at most 3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance file")
    p.add_argument("--input", required=True, help="instance file path")
    p.add_argument("--validate", action="store_true", help="check claw-freeness first")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="report claw-freeness and min(alpha, 4)")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("gen", help="write a certified random instance")
    p.add_argument("--kind", choices=KINDS, default="line_graph_cover3")
    p.add_argument("--size", type=int, default=24, help="kind-specific size parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--wlo", type=int, default=1, help="minimum node weight")
    p.add_argument("--whi", type=int, default=100, help="maximum node weight")
    p.add_argument("--out", required=True)
    p.add_argument("--certify", action="store_true", help="re-verify the certificate")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify", help="fuzz solver against brute-force oracles")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-n", dest="max_n", type=int, default=60)
    p.add_argument("--dump", default="verify-failure.instance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="query-count scaling benchmark, CSV output")
    p.add_argument("--sizes", default="1024,4096,16384,65536,262144",
                   help="comma-separated target edge counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--json", dest="json_out", metavar="FILE",
                   help="also write the records, Python version, build mode and seed")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error, or --help
        return exc.code
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
