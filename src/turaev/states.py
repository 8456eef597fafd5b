# -*- coding: utf-8 -*-
"""Kauffman states, state circles, Turaev genus, and adequacy.

A state chooses an A- or B-smoothing at every crossing. The A-smoothing
joins the corners between slots (0,1) and (2,3), so it pairs slot s with
s ^ 1; the B-smoothing joins the corners between slots (1,2) and (3,0),
pairing s with s ^ 3. Tracing the smoothed diagram gives a disjoint union
of circles; the genus of the closed orientable surface spanned between the
all-A and all-B circle families (the Turaev surface, which
``surfcheck.turaev_surface`` writes from the crossing signs) is

    g = (c + 2 - |s_A| - |s_B|) / 2.

The genus needs only the two counts, and adequacy only which circle each
edge lies on; ``PlanarDiagram.edge_circles`` reads both off dart orbits
without tracing a circle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pdcore import PlanarDiagram


def turaev_genus(diagram: PlanarDiagram) -> int:
    """(c + 2 - |s_A| - |s_B|) / 2 for a connected diagram, from
    ``PlanarDiagram.circle_counts``."""
    return diagram.genus


# -- adequacy ----------------------------------------------------------------

ADEQUATE = "adequate"
A_SEMI_ADEQUATE = "A-semi-adequate"
B_SEMI_ADEQUATE = "B-semi-adequate"
INADEQUATE = "inadequate-diagram"


@dataclass(frozen=True)
class AdequacyReport:
    a_loops: tuple[int, ...]
    b_loops: tuple[int, ...]

    @property
    def ab_loops(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.a_loops) & set(self.b_loops)))

    @property
    def verdict(self) -> str:
        if not self.a_loops and not self.b_loops:
            return ADEQUATE
        if not self.a_loops:
            return A_SEMI_ADEQUATE
        if not self.b_loops:
            return B_SEMI_ADEQUATE
        return INADEQUATE


def loop_crossings(diagram: PlanarDiagram) -> AdequacyReport:
    """Crossings whose two same-state corners land on one state circle.

    The A-smoothing joins slots 0 and 1, and 2 and 3, so a crossing is an
    A-loop when the edges at slots 0 and 2 share their all-A circle; the
    B-smoothing joins 1 and 2, and 3 and 0, so a B-loop when the edges at
    slots 1 and 3 share their all-B circle.
    """
    a_ids, b_ids = diagram.edge_circles
    rows = diagram.crossings
    a_loops = tuple(c for c, row in enumerate(rows) if a_ids[row[0]] == a_ids[row[2]])
    b_loops = tuple(c for c, row in enumerate(rows) if b_ids[row[1]] == b_ids[row[3]])
    return AdequacyReport(a_loops, b_loops)


def diagram_report(diagram: PlanarDiagram) -> dict:
    na, nb = diagram.circle_counts
    adequacy = loop_crossings(diagram)
    return {
        "c": diagram.n,
        "sA": na,
        "sB": nb,
        "genus": diagram.genus,
        "adequacy": adequacy.verdict,
        "loopCrossings": {"A": list(adequacy.a_loops), "B": list(adequacy.b_loops)},
    }
