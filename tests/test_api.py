"""The package's public surface and the names the benchmark tracer patches."""

import ast
import importlib
import importlib.util
from pathlib import Path

import clawmwss

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PACKAGE = Path(clawmwss.__file__).resolve().parent


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_public_names_are_exactly_the_documented_api():
    assert sorted(clawmwss.__all__) == [
        "AlphaAtLeast4",
        "Claw",
        "ClawMwssError",
        "ClawWitnessError",
        "GenSpec",
        "Graph",
        "InstanceFormatError",
        "Optimal",
        "SolveOutcome",
        "StableSetReport",
        "build_graph",
        "find_claw",
        "generate",
        "mwss_alpha3",
        "read_instance",
        "stable_set_min_alpha4",
        "write_instance",
    ]
    for name in clawmwss.__all__:
        assert hasattr(clawmwss, name), name


def test_every_traced_layer_resolves_at_module_level():
    spans = _load_spans()
    for mod_name, fns in spans.LAYERS.items():
        mod = importlib.import_module(f"clawmwss.{mod_name}")
        for fn_name in fns:
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                raw = getattr(mod, cls_name).__dict__[meth]
                assert isinstance(raw, classmethod), fn_name
            else:
                assert callable(getattr(mod, fn_name)), f"{mod_name}.{fn_name}"
    # One clique primitive: patching weighted.OrderedCliquePrefix.build also
    # traces the cardinality searches that build masks.
    assert clawmwss.weighted.OrderedCliquePrefix is clawmwss.graph.OrderedCliquePrefix


def test_every_graph_constructor_reaches_the_benchmark_query_probe():
    # perfbench's CounterProbe collects query counters by wrapping
    # Graph.__init__: a constructor route that skips it would make
    # queries_total read low, and nothing else would fail.
    spans = _load_spans()
    probe = spans.CounterProbe(clawmwss.Graph)
    probe.install()
    try:
        routes = {
            "build_graph": lambda: clawmwss.build_graph(3, [(0, 1)]),
            "read_instance": lambda: clawmwss.read_instance("p edge 3 1\ne 1 2\n")[0],
            "with_counter": lambda: clawmwss.build_graph(3, [(0, 1)]).with_counter(),
        }
        for kind in clawmwss.gen.KINDS:
            spec = clawmwss.GenSpec(kind, 12, seed=1)
            routes[kind] = lambda spec=spec: clawmwss.generate(spec)[0]
        for name, build in routes.items():
            probe.reset()
            g = build()
            before = probe.total()
            g.adjacent(0, g.n - 1)
            assert probe.total() == before + 1, name
    finally:
        probe.uninstall()


def _reads(tree) -> set[str]:
    """The names that ``tree`` reads, as a bare name or an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_module_level_definition_has_a_user():
    # A function or class that is not public, that no other code in src/
    # reads and that the benchmark tracer does not patch is kept alive only
    # by tests: it belongs in tests/helpers.py.
    traced = {fn.split(".")[0] for fns in _load_spans().LAYERS.values() for fn in fns}
    top = [
        (path.stem, stmt)
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    reads = [_reads(stmt) for _, stmt in top]
    unused = [
        f"{module}.{stmt.name}"
        for i, (module, stmt) in enumerate(top)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in clawmwss.__all__
        and stmt.name not in traced
        and not any(stmt.name in names for j, names in enumerate(reads) if j != i)
    ]
    assert unused == []
