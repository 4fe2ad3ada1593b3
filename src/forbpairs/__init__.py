"""forbpairs: a workbench for forbidden induced pairs on small graphs.

Exact invariants, canonical forms, the pair-collection classifier, Ramsey
thresholds, structural decompositions with a constructive colouring, and
an exhaustive verification harness, all on graphs of at most 64 vertices.
"""

from .canon import canonical_code, canonical_form, isomorphic
from .expr import graph_from_expr, parse_expr
from .graph6 import decode_graph6, encode_graph6
from .graphs import (
    Graph,
    Invariants,
    build,
    complement,
    disjoint_union,
    induced_subgraph,
    invariants,
    shape_report,
)
from .induced import contains_induced, induced_closure, is_free
from .pairs import (
    COLLECTIONS,
    NAMED_CLASSES,
    ClassSpec,
    PairSpec,
    classify_pair,
    in_collection,
    theorem_collection,
)
from .perfection import (
    is_omega_colourable,
    is_perfect_definition,
    is_perfect_spgt,
    odd_hole,
)
from .ramsey import BoundValue, ramsey, threshold
from .twins import TwinCollapse, blow_up, twin_collapse

__all__ = [
    "Graph", "Invariants", "build", "complement", "disjoint_union",
    "induced_subgraph", "invariants", "shape_report",
    "canonical_code", "canonical_form", "isomorphic",
    "parse_expr", "graph_from_expr", "encode_graph6", "decode_graph6",
    "contains_induced", "is_free", "induced_closure",
    "PairSpec", "ClassSpec", "COLLECTIONS", "NAMED_CLASSES",
    "classify_pair", "in_collection", "theorem_collection",
    "odd_hole", "is_perfect_spgt", "is_perfect_definition",
    "is_omega_colourable",
    "BoundValue", "ramsey", "threshold",
    "TwinCollapse", "twin_collapse", "blow_up",
]
