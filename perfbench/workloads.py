"""The benchmark's workloads and their set-up.

Set-up imports ``clawmwss`` afresh, then generates and writes the workload's
instance files with ``gen.generate`` and ``instances.write_instance``; its
duration, less the time the disk takes to store the files, is the
``setup_s`` metric.  Storing them is the benchmark's own I/O, and on a
shared ext4 virtual disk it varied threefold between set-ups of one seed.
Everything is derived from the workload seed, so one seed always yields
byte-identical files.

The line-graph workloads hold one instance per number k = 0..3 of
centre-centre host edges.  k is drawn by the generator (three fair coins)
and sets most of an instance's cost: at m = 2^18 the solve makes about
5.2M queries with k = 0 and 7.6M with k = 3, and at m = 2^14 ``find_claw``
makes 8.2M against 18.7M.  Fixing the mix keeps a run's figures comparable
across seeds; candidates of a class already filled are generated and
discarded, and the time they take is left out of set-up, which so covers
the import and the kept instances alone.  For the same reason the mixed
workload takes equal shares of the three generator kinds, half of each
with weights in [-50, 50]; spec draws for a full share are skipped.
"""

from __future__ import annotations

import gc
import importlib
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracle

WEIGHT_HI = 1 << 40

Inspect = Callable[[object, int, object, list, object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "line": line_graph_cover3 by centre-edge class; "mixed": sample_spec
    size: int  # target edge count (line) or max_n (mixed)
    count: int  # instance files per run
    validate: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("large_alpha3", "line", 1 << 18, 4),
        Workload("validate_mid", "line", 1 << 14, 4, validate=True),
        Workload("small_mixed", "mixed", 60, 3000),
    )
}


@dataclass(frozen=True)
class Instance:
    index: int
    path: Path
    n: int
    m: int
    bytes: int
    label: str  # centre-edge class or generator kind


def import_clawmwss():
    """Import the package and its command line afresh, dropping any copy
    already loaded."""
    for name in [k for k in sys.modules if k.split(".")[0] == "clawmwss"]:
        del sys.modules[name]
    importlib.import_module("clawmwss.cli")
    return sys.modules["clawmwss"]


def centre_edges(cert) -> int:
    centers = set(cert.detail["centers"])
    return sum(1 for a, b in cert.detail["host_edges"] if a in centers and b in centers)


def _specs(cm, workload: Workload, seed: int):
    """Yield the workload's generator specs.

    Mixed specs come from ``gen.sample_spec``; line-graph candidates go on
    until the caller has filled every centre-edge class.
    """
    rng = cm.gen.SplitMix64(seed)
    if workload.kind == "mixed":
        # Equal shares of each kind, with and without negative weights.
        quota = {
            (kind, negative): workload.count // 6
            for kind in cm.gen.KINDS
            for negative in (False, True)
        }
        while any(quota.values()):
            negative = bool(rng.below(2))
            spec = cm.gen.sample_spec(rng, workload.size, negative_weights=negative)
            if quota[spec.kind, negative]:
                quota[spec.kind, negative] -= 1
                yield spec
        return
    while True:
        yield cm.gen.GenSpec(
            kind="line_graph_cover3",
            size=workload.size,
            weight_lo=1,
            weight_hi=WEIGHT_HI,
            seed=rng.next_u64(),
        )


def write_instances(
    cm, workload: Workload, seed: int, workdir: Path, inspect: Inspect | None = None
) -> tuple[float, list[Instance]]:
    """Generate and write the workload's files; return (seconds spent in
    ``inspect``, on discarded candidates and storing files, instances).

    ``inspect(cm, index, graph, weights, certificate)`` runs on each
    written instance.
    """
    paused = 0.0
    # Line-graph slots are centre-edge classes; each class fills one file.
    slots = set(range(workload.count)) if workload.kind == "line" else None
    instances: list[Instance] = []
    for spec in _specs(cm, workload, seed):
        started = perf_counter()
        g, weights, cert = cm.gen.generate(spec)
        index, label = len(instances), spec.kind
        if slots is not None:
            index = centre_edges(cert)
            if index not in slots:
                paused += perf_counter() - started
                continue
            slots.discard(index)
            label = f"k{index}"
        text = cm.instances.write_instance(g, weights, comments=cert.comment_lines())
        path = workdir / f"{workload.name}-{index:04d}.col"
        t = perf_counter()
        path.write_text(text, encoding="ascii")
        paused += perf_counter() - t
        instances.append(Instance(index, path, g.n, g.m, len(text), label))
        if inspect is not None:
            t = perf_counter()
            inspect(cm, index, g, weights, cert)
            paused += perf_counter() - t
        if slots is not None and not slots:
            break
    instances.sort(key=lambda inst: inst.index)
    return paused, instances


def set_up(workload: Workload, seed: int, workdir: Path, inspect: Inspect | None = None):
    """Import ``clawmwss`` afresh and write the workload's files.

    Returns (set-up seconds, instances, the package); time spent in
    ``inspect``, on discarded candidates and storing files is left out.
    """
    # The collector starts clean and never rescans what the caller holds,
    # so set-up time does not grow with the harness's heap.
    gc.collect()
    gc.freeze()
    started = perf_counter()
    cm = import_clawmwss()
    paused, instances = write_instances(cm, workload, seed, workdir, inspect)
    return perf_counter() - started - paused, instances, cm


def expectation(cm, workload: Workload, g, weights, cert) -> oracle.Expect:
    if workload.kind == "line":
        return oracle.expect_line_graph(g, weights, cert, cm.oracles)
    return oracle.expect_small(g, weights, cm.graph.build_graph, cm.oracles)
