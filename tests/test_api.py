"""The package's public surface and the names the benchmark tracer patches."""

import importlib
import importlib.util
from pathlib import Path

import clawmwss

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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
