"""Hamilton-connectivity certification via signless Laplacian spectral
conditions, with exact oracles and extremal-family machinery."""

from .certifier import Certificate, certify, explain
from .errors import HamqError
from .families import (
    AppendixReport,
    FamilyHandle,
    Thresholds,
    appendix_check,
    build_S,
    build_T,
    class_bound,
    enumerate_class,
    family_member,
    thresholds,
)
from .graph import (
    Graph,
    complete,
    copies,
    delete_edges,
    disjoint_union,
    emit_graph6,
    join,
    min_degree,
    parse_edgelist,
    parse_graph6,
)
from .hamilton import (
    OracleAnswer,
    is_hamilton_connected,
    ore_check,
)
from .spectral import (
    SpectralEstimate,
    perron_pair,
    rayleigh_quotient_exact,
    upper_bound_edge_count,
)
from .transforms import ClosureTrace, closure, kelmans

__version__ = "0.1.0"

__all__ = [
    "AppendixReport",
    "Certificate",
    "ClosureTrace",
    "FamilyHandle",
    "Graph",
    "HamqError",
    "OracleAnswer",
    "SpectralEstimate",
    "Thresholds",
    "appendix_check",
    "build_S",
    "build_T",
    "certify",
    "class_bound",
    "complete",
    "copies",
    "closure",
    "delete_edges",
    "disjoint_union",
    "emit_graph6",
    "enumerate_class",
    "explain",
    "family_member",
    "is_hamilton_connected",
    "join",
    "kelmans",
    "min_degree",
    "ore_check",
    "parse_edgelist",
    "parse_graph6",
    "perron_pair",
    "rayleigh_quotient_exact",
    "thresholds",
    "upper_bound_edge_count",
]
