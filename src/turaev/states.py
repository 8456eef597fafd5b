# -*- coding: utf-8 -*-
"""Kauffman states, state circles, Turaev genus, and adequacy.

A state chooses an A- or B-smoothing at every crossing. The A-smoothing
joins the corners between slots (0,1) and (2,3), so it pairs slot s with
s ^ 1; the B-smoothing joins the corners between slots (1,2) and (3,0),
pairing s with s ^ 3. Tracing the smoothed diagram gives a disjoint union
of circles; the genus of the closed orientable surface spanned between the
all-A and all-B circle families is

    g = (c + 2 - |s_A| - |s_B|) / 2.

The genus needs only the two counts, which ``PlanarDiagram.circle_counts``
reads off dart orbits without tracing a circle. ``state_circles`` traces
the circles themselves, for the readers of their darts and corners:
adequacy, cutting arcs and the Turaev cell complex, whose Euler check
compares the traced counts with the orbit counts.
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

    def circle_of_edge(self, diagram: PlanarDiagram) -> dict[int, int]:
        out: dict[int, int] = {}
        for circ in self.circles:
            for lab in circ.edges(diagram):
                if lab in out:
                    raise DiagramError(f"edge {lab} traversed by two circles")
                out[lab] = circ.id
        return out

    @property
    def circle_of_corner(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for circ in self.circles:
            for corner in circ.corners:
                out[corner] = circ.id
        return out


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
    """(c + 2 - |s_A| - |s_B|) / 2 for a connected diagram, from the
    orbit counts of ``PlanarDiagram.circle_counts``."""
    return diagram.genus


@dataclass(frozen=True)
class TuraevCellComplex:
    """Cell decomposition of the spanning surface.

    Vertices are the crossings, edges the diagram edges, 2-cells the all-A
    circles (white) and all-B circles (black). ``orientations[cell]`` is
    +1 to use the traced direction and -1 for its reverse; with these
    choices every edge is traversed once in each direction, which
    witnesses orientability.
    """

    diagram: PlanarDiagram
    a_circles: StateCircles
    b_circles: StateCircles
    orientations: tuple[int, ...]  # a-circles first, then b-circles

    @property
    def euler(self) -> int:
        return self.diagram.n - 2 * self.diagram.n + self.a_circles.n + self.b_circles.n

    @property
    def genus(self) -> int:
        return (2 - self.euler) // 2

    @property
    def cells(self) -> tuple[tuple[str, Circle], ...]:
        return tuple([("A", c) for c in self.a_circles.circles] + [("B", c) for c in self.b_circles.circles])

    def oriented_walk(self, cell_index: int) -> tuple[int, ...]:
        """Boundary walk of a 2-cell with the witness orientation applied."""
        kind, circ = self.cells[cell_index]
        if self.orientations[cell_index] == 1:
            return circ.darts
        alpha = self.diagram.alpha
        return tuple(alpha[d] for d in reversed(circ.darts))


def build_turaev_complex(diagram: PlanarDiagram) -> TuraevCellComplex:
    if not diagram.is_connected:
        raise DiagramError("the Turaev surface is built for connected diagrams")
    sa, sb = diagram.a_circles, diagram.b_circles
    # Dart used by the traced direction of each circle, per edge.
    a_dir: dict[int, tuple[int, int]] = {}
    for circ in sa.circles:
        for d in circ.darts:
            lab = diagram.label(d)
            if lab in a_dir:
                raise DiagramError(f"edge {lab} on two all-A cells")
            a_dir[lab] = (circ.id, d)
    b_dir: dict[int, tuple[int, int]] = {}
    for circ in sb.circles:
        for d in circ.darts:
            lab = diagram.label(d)
            if lab in b_dir:
                raise DiagramError(f"edge {lab} on two all-B cells")
            b_dir[lab] = (circ.id, d)
    if set(a_dir) != set(b_dir):
        raise DiagramError("cell boundaries do not cover the edges twice")
    # Choose cell orientations so the two sides of every edge disagree.
    n_cells = sa.n + sb.n
    flips: list[int | None] = [None] * n_cells
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_cells)]
    for lab in a_dir:
        ca, da = a_dir[lab]
        cb, db = b_dir[lab]
        parity = 1 if da == db else 0  # same dart: exactly one cell must flip
        adj[ca].append((sa.n + cb, parity))
        adj[sa.n + cb].append((ca, parity))
    for seed in range(n_cells):
        if flips[seed] is not None:
            continue
        flips[seed] = 0
        stack = [seed]
        while stack:
            u = stack.pop()
            for v, parity in adj[u]:
                want = flips[u] ^ parity
                if flips[v] is None:
                    flips[v] = want
                    stack.append(v)
                elif flips[v] != want:
                    raise DiagramError("cell complex is not orientable")
    orientations = tuple(1 if f == 0 else -1 for f in flips)  # type: ignore[arg-type]
    complex_ = TuraevCellComplex(diagram, sa, sb, orientations)
    if complex_.euler != 2 - 2 * diagram.genus:
        raise DiagramError("Euler characteristic disagrees with the genus formula")
    return complex_


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
    """Crossings whose two same-state corners land on one state circle."""
    amap = diagram.a_circles.circle_of_corner
    bmap = diagram.b_circles.circle_of_corner
    a_loops = tuple(c for c in range(diagram.n) if amap[(c, 0)] == amap[(c, 2)])
    b_loops = tuple(c for c in range(diagram.n) if bmap[(c, 1)] == bmap[(c, 3)])
    return AdequacyReport(a_loops, b_loops)


def diagram_report(diagram: PlanarDiagram) -> dict:
    sa, sb = diagram.a_circles, diagram.b_circles
    adequacy = loop_crossings(diagram)
    return {
        "c": diagram.n,
        "sA": sa.n,
        "sB": sb.n,
        "genus": (diagram.n + 2 - sa.n - sb.n) // 2,
        "adequacy": adequacy.verdict,
        "loopCrossings": {"A": list(adequacy.a_loops), "B": list(adequacy.b_loops)},
    }


def diagram_report_json(diagram: PlanarDiagram) -> str:
    return json.dumps(diagram_report(diagram), sort_keys=True)
