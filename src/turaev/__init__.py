"""Turaev genus, alternating tangle structure, and cutting-arc surgery
for planar link diagrams."""

from .pdcore import (
    DiagramError,
    ParseError,
    PlanarDiagram,
    Refused,
    canonical_code,
    checkerboard,
    composite_circles,
    crossing_signs,
    edge_alternation,
    is_alternating,
    is_prime,
    mirror,
    parse_pd,
)
from .states import (
    AdequacyReport,
    loop_crossings,
    turaev_genus,
)

__all__ = [
    "DiagramError",
    "ParseError",
    "PlanarDiagram",
    "Refused",
    "canonical_code",
    "checkerboard",
    "composite_circles",
    "crossing_signs",
    "edge_alternation",
    "is_alternating",
    "is_prime",
    "mirror",
    "parse_pd",
    "AdequacyReport",
    "loop_crossings",
    "turaev_genus",
]

from . import corpus, fixtures, moves, render, surfcheck, surgery, tangles  # noqa: E402,F401
