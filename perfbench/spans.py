"""Query counting and per-layer spans, recorded from outside the program.

``CounterProbe`` watches every ``Graph`` built while it is installed and
sums the adjacency-query counters they carry; a solve charges all of its
queries to those counters, so the sum is the solve's exact query count.

``Tracer`` replaces the public functions of each ``clawmwss`` module, in
every module namespace that bound them, with wrappers that record a span:
name, start, end, parent span, instance id, and the probe's query total at
entry and exit.  Spans stay in memory until the run writes them out.  A
layer's self time (self queries) is its span's duration (query delta) minus
that of its direct child spans.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

# Traced functions, by module under src/clawmwss/.  ``oracles`` is left out:
# the benchmark only uses it to check answers.
LAYERS = {
    "instances": ("read_instance", "write_instance"),
    "graph": ("build_graph", "induced_subgraph"),
    "cardinality": (
        "stable_set_min_alpha4",
        "stable_pair",
        "extend_to_three",
        "extend_to_four",
        "three_sets_stable",
        "four_sets_stable",
    ),
    "structure": ("classify", "find_claw"),
    "weighted": (
        "mwss_alpha3",
        "mwss_small",
        "mwss_intersecting",
        "mwss_type_path6",
        "mwss_type_cycle6",
        "mwss_type_iii",
        "weighted_three_sets",
        "OrderedCliquePrefix.build",
    ),
    "gen": ("generate",),
    "cli": ("main",),
}

TRACED = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Span fields, stored as lists to keep recording cheap.
NAME, START, END, PARENT, INSTANCE, Q0, Q1, EXTRA = range(8)


class CounterProbe:
    """Sums the query counters of all graphs built since the last reset."""

    def __init__(self, graph_cls):
        self._cls = graph_cls
        self._init = graph_cls.__init__
        self._counters: dict[int, object] = {}

    def install(self) -> None:
        init = self._init
        probe = self

        def __init__(g, *args, **kwargs):
            init(g, *args, **kwargs)
            probe._counters[id(g.counter)] = g.counter

        self._cls.__init__ = __init__

    def uninstall(self) -> None:
        self._cls.__init__ = self._init

    def reset(self) -> None:
        # The dict holds the counters alive, so their ids stay unique.
        self._counters = {}

    def total(self) -> int:
        return sum(c.count for c in self._counters.values())


def _extra(name: str, args: tuple, result) -> int:
    if name == "graph.induced_subgraph":
        return args[0].n - result[0].n  # nodes dropped by the rebuild
    if name == "instances.read_instance":
        src = args[0]
        return os.fstat(src.fileno()).st_size if hasattr(src, "fileno") else len(src)
    return 0


class Tracer:
    """Records a span around each call of the functions in ``LAYERS``."""

    def __init__(self, probe: CounterProbe):
        self.probe = probe
        self.spans: list[list] = []
        self.instance: object = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, probe = self.spans, self._stack, self.probe

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance, 0, 0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[Q0] = probe.total()
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                span[Q1] = probe.total()
                stack.pop()
            span[EXTRA] = _extra(name, args, result)
            return result

        return traced

    def install(self) -> None:
        package = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "clawmwss"]
        for mod_name, fns in LAYERS.items():
            mod = importlib.import_module(f"clawmwss.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = cls.__dict__[meth]
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                    self._restore.append((cls, meth, raw))
                    continue
                orig = getattr(mod, fn_name)
                traced = self._wrap(name, orig)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, traced)
                            self._restore.append((m, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def self_costs(spans: list[list]) -> list[tuple[float, int]]:
    """Per span: (self seconds, self queries)."""
    child_s = [0.0] * len(spans)
    child_q = [0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child_s[parent] += span[END] - span[START]
            child_q[parent] += span[Q1] - span[Q0]
    return [
        (s[END] - s[START] - child_s[i], s[Q1] - s[Q0] - child_q[i])
        for i, s in enumerate(spans)
    ]


def per_layer(spans: list[list], instances) -> dict[str, dict[str, float]]:
    """calls, self_s, queries and the extra count, summed per traced name
    over the spans of the given instances."""
    out = {name: {"calls": 0, "self_s": 0.0, "queries": 0, "extra": 0} for name in TRACED}
    for span, (self_s, self_q) in zip(spans, self_costs(spans)):
        if span[INSTANCE] not in instances:
            continue
        agg = out[span[NAME]]
        agg["calls"] += 1
        agg["self_s"] += self_s
        agg["queries"] += self_q
        agg["extra"] += span[EXTRA]
    return out


def self_queries_by_instance(spans: list[list]) -> dict[object, int]:
    totals: dict[object, int] = {}
    for span, (_, self_q) in zip(spans, self_costs(spans)):
        totals[span[INSTANCE]] = totals.get(span[INSTANCE], 0) + self_q
    return totals
