"""Exact maximum-weight stable set solving for claw-free graphs with
independence number at most 3.

The cardinality routine finds a stable set of size min(alpha, 4) in O(m)
adjacency queries; when alpha <= 3 the weighted routine returns an exact
maximum-weight stable set in O(m log n).  Brute-force oracles and certified
instance generators back the test and benchmark machinery.
"""

from .errors import (
    ClawMwssError,
    ClawWitnessError,
    InstanceFormatError,
)
from .graph import Graph, build_graph
from .instances import read_instance, write_instance
from .structure import Claw, find_claw
from .cardinality import StableSetReport, stable_set_min_alpha4
from .weighted import AlphaAtLeast4, Optimal, SolveOutcome, mwss_alpha3
from .gen import GenSpec, generate

__all__ = [
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
