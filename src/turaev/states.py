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
without tracing a circle. ``state_circles`` traces the circles themselves,
with their darts and corners, for any state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .pdcore import DiagramError, PlanarDiagram, crossing_of, slot_of

State = tuple[str, ...]  # "A" or "B" per crossing


def all_a(diagram: PlanarDiagram) -> State:
    return ("A",) * diagram.n


def all_b(diagram: PlanarDiagram) -> State:
    return ("B",) * diagram.n


def _smooth_pair(slot: int, choice: str) -> int:
    return slot ^ 1 if choice == "A" else slot ^ 3


def _corner_of_transition(slot_in: int, choice: str) -> int:
    # The smoothing arc used when entering at slot_in hugs this corner.
    if choice == "A":
        return slot_in & 2
    return 1 if slot_in in (1, 2) else 3


@dataclass(frozen=True)
class Circle:
    """One state circle, as a directed traversal.

    ``darts[i]`` leaves a crossing along an edge; the transition after it
    happens at ``corners[i]`` = (crossing, corner index).
    """

    id: int
    darts: tuple[int, ...]
    corners: tuple[tuple[int, int], ...]

    def edges(self, diagram: PlanarDiagram) -> tuple[int, ...]:
        return tuple(diagram.label(d) for d in self.darts)


@dataclass(frozen=True)
class StateCircles:
    state: State
    circles: tuple[Circle, ...]

    @property
    def n(self) -> int:
        return len(self.circles)


def state_circles(diagram: PlanarDiagram, state: Sequence[str]) -> StateCircles:
    """Trace the circles of a state.

    Circles are numbered by their smallest traversed edge label; each is
    reported in the traversal direction whose dart set contains the
    smallest dart, starting at that dart.
    """
    state = tuple(state)
    if len(state) != diagram.n or any(ch not in ("A", "B") for ch in state):
        raise DiagramError("state must assign 'A' or 'B' to every crossing")
    alpha = diagram.alpha
    nd = diagram.n_darts
    rho = [0] * nd
    for d in range(nd):
        a = alpha[d]
        c = crossing_of(a)
        rho[d] = 4 * c + _smooth_pair(slot_of(a), state[c])
    seen = [False] * nd
    raw: list[tuple[int, ...]] = []
    for start in range(nd):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = rho[d]
        # Mark the reverse traversal as visited; it is the same circle.
        for d in orbit:
            rev = alpha[d]
            if not seen[rev]:
                rev_orbit = []
                x = rev
                while not seen[x]:
                    seen[x] = True
                    rev_orbit.append(x)
                    x = rho[x]
        raw.append(tuple(orbit))
    keyed = sorted(raw, key=lambda orbit: min(diagram.label(d) for d in orbit))
    circles = []
    for cid, orbit in enumerate(keyed):
        # Start the cyclic listing at the smallest (edge label, dart) spot.
        k = min(range(len(orbit)), key=lambda i: (diagram.label(orbit[i]), orbit[i]))
        darts = orbit[k:] + orbit[:k]
        corners = []
        for d in darts:
            a = alpha[d]
            c = crossing_of(a)
            corners.append((c, _corner_of_transition(slot_of(a), state[c])))
        circles.append(Circle(cid, tuple(darts), tuple(corners)))
    return StateCircles(state, tuple(circles))


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


def diagram_report_json(diagram: PlanarDiagram) -> str:
    return json.dumps(diagram_report(diagram), sort_keys=True)
