"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines as
they complete.  Every tolerance is pinned here; wall time is reported but
never asserted.
"""

import itertools
import time

from clawmwss import build_graph, find_claw, stable_set_min_alpha4
from clawmwss.cli import main, run_bench, verify_instances
from clawmwss.gen import GenSpec, KINDS, SplitMix64, generate, sample_spec
from clawmwss.oracles import brute_alpha_min4, is_stable_set
from clawmwss.structure import classify

from helpers import first_claw, prefix_rows, random_graph


def _verdict(criterion, ok, detail, started):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}, {elapsed:.1f}s)")
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    # Weighted solver vs brute force on >= 10^4 mixed instances, n <= 60,
    # weight ranges [1,100] and [-50,50], exact equality, witnesses checked.
    started = time.perf_counter()
    count = 10_000
    failures = verify_instances(count=count, seed=0xACCE97, max_n=60)
    detail = f"{count} instances, {len(failures)} mismatches"
    if failures:
        first = failures[0]
        detail += f"; first: #{first.index} {first.reason}"
    _verdict("1 oracle-equivalence", not failures, detail, started)


def test_criterion_2_cardinality_correctness():
    started = time.perf_counter()
    bad = 0
    graphs = 0

    # Exhaustive: every claw-free graph on at most 6 nodes.
    for n in range(0, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = build_graph(n, edges)
            if first_claw(g)[0] is not None:
                continue
            graphs += 1
            report = stable_set_min_alpha4(g)
            alpha = brute_alpha_min4(g)
            if len(report.nodes) != alpha or not is_stable_set(g, report.nodes):
                bad += 1
                continue
            if (report.exact_alpha is None) != (alpha >= 4):
                bad += 1

    # Random: 10^4 claw-free instances with n <= 40.
    rng = SplitMix64(0xACCE98)
    for _ in range(10_000):
        spec = sample_spec(rng, 40, negative_weights=False)
        g, _, _ = generate(spec)
        graphs += 1
        report = stable_set_min_alpha4(g)
        alpha = brute_alpha_min4(g)
        if len(report.nodes) != alpha or not is_stable_set(g, report.nodes):
            bad += 1
    _verdict(
        "2 cardinality-correctness", bad == 0, f"{graphs} graphs, {bad} bad", started
    )


def _probe_configs(cls):
    s, t, u = cls.anchors
    for a, b in ((s, t), (s, u), (t, u)):
        yield cls.exclusive_to(a), cls.shared_by(a, b), cls.exclusive_to(b)
    for a in (s, t, u):
        b, c = (x for x in (s, t, u) if x != a)
        yield cls.exclusive_to(b), cls.exclusive_to(c), cls.exclusive_to(a)
    yield cls.shared_by(s, t), cls.shared_by(t, u), cls.exclusive_to(u)


def test_criterion_3_subroutine_iff_properties():
    # The two facts the triple searches rest on, checked on 10^3
    # precondition-satisfying instances: a non-adjacent probe pair extends
    # into the clique iff its neighborhoods leave a coverage gap (both
    # directions), and the prefix predicate flips at most once.  Zero
    # violations tolerated.
    started = time.perf_counter()
    rng = SplitMix64(0xACCE99)
    instances = 0
    pairs_checked = 0
    violations = 0
    while instances < 1_000:
        spec = sample_spec(rng, 30, negative_weights=False)
        g, weights, _ = generate(spec)
        report = stable_set_min_alpha4(g)
        if report.exact_alpha != 3:
            continue
        instances += 1
        cls = classify(g, range(g.n), report.nodes)
        for xs, ys, zs in _probe_configs(cls):
            if not zs:
                continue
            order = sorted(zs, key=lambda z: (-weights[z], z))
            rows = prefix_rows(g, order, itertools.chain(xs, ys))
            p = len(order)
            for x in xs:
                for y in ys:
                    if y in g.neighbor_set(x):
                        continue
                    pairs_checked += 1
                    # Coverage gap iff a completion exists (both directions).
                    extends = any(
                        z not in g.neighbor_set(x) and z not in g.neighbor_set(y)
                        for z in zs
                    )
                    row_x, row_y = rows[x], rows[y]
                    if extends != (row_x[p] + row_y[p] < p):
                        violations += 1
                    # Once the prefix predicate holds it holds from then on.
                    seen = False
                    for i in range(1, p + 1):
                        holds = row_x[i] + row_y[i] < i
                        if seen and not holds:
                            violations += 1
                            break
                        seen = seen or holds
    _verdict(
        "3 subroutine-iff-properties",
        violations == 0,
        f"{instances} instances, {pairs_checked} probe pairs, {violations} violations",
        started,
    )


def test_criterion_4_complexity_scaling():
    # Pinned family m ~ 2^10..2^18: the weighted solver's query count
    # normalized by m*log2(n+2) and the cardinality stage's count
    # normalized by m each vary by at most a factor of 3.
    started = time.perf_counter()
    sizes = [2**10, 2**12, 2**14, 2**16, 2**18]
    records = run_bench(sizes, seed=0)
    ratios = [r.ratio for r in records]
    spread = max(ratios) / min(ratios)

    rng = SplitMix64(0)
    card_ratios = []
    for target in sizes:
        spec = GenSpec(kind="line_graph_cover3", size=target, seed=rng.next_u64())
        g, _, _ = generate(spec)
        view = g.with_counter()
        stable_set_min_alpha4(view)
        card_ratios.append(view.counter.count / g.m)
    card_spread = max(card_ratios) / min(card_ratios)

    ok = spread <= 3.0 and card_spread <= 3.0
    detail = (
        f"weighted spread {spread:.2f}, cardinality spread {card_spread:.2f}, "
        f"m {records[0].m}..{records[-1].m}"
    )
    _verdict("4 complexity-scaling", ok, detail, started)


def test_criterion_5_validation_and_certificates(tmp_path):
    started = time.perf_counter()
    rng = SplitMix64(0xACCE9B)
    disagreements = 0
    for _ in range(1_000):
        g = random_graph(rng, rng.randint(1, 30), rng.randint(0, 100))
        if (find_claw(g) is None) != (first_claw(g)[0] is None):
            disagreements += 1

    certify_failures = 0
    for seed in range(100):
        kind = KINDS[seed % 3]
        size = {"line_graph_cover3": 80, "complement_triangle_free": 25, "cycle": 11}[
            kind
        ]
        out = tmp_path / f"cert{seed}.txt"
        rc = main(
            ["gen", "--kind", kind, "--size", str(size), "--seed", str(seed),
             "--out", str(out), "--certify"]
        )
        if rc != 0:
            certify_failures += 1
    ok = disagreements == 0 and certify_failures == 0
    _verdict(
        "5 validation-and-certificates",
        ok,
        f"1000 claw checks ({disagreements} disagreements), "
        f"100 certified seeds ({certify_failures} failures)",
        started,
    )


def test_criterion_6_determinism(tmp_path, capsys):
    started = time.perf_counter()
    inst = tmp_path / "inst.txt"
    ok = True

    for seed in (0, 17):
        a, b = tmp_path / f"a{seed}.txt", tmp_path / f"b{seed}.txt"
        args = ["gen", "--kind", "line_graph_cover3", "--size", "150",
                "--seed", str(seed)]
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b)])
        ok = ok and a.read_bytes() == b.read_bytes()

    main(["gen", "--kind", "line_graph_cover3", "--size", "150", "--seed", "5",
          "--out", str(inst)])
    capsys.readouterr()
    main(["solve", "--input", str(inst)])
    first = capsys.readouterr().out
    main(["solve", "--input", str(inst)])
    second = capsys.readouterr().out
    ok = ok and first == second and first.startswith("OPTIMAL ")
    with capsys.disabled():
        _verdict("6 determinism", ok, "gen and solve byte-identical", started)
