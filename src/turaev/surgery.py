# -*- coding: utf-8 -*-
"""Cutting arcs, arc surgery, and the genus reduction ladder.

A cutting arc lives inside one face and joins the midpoints of two
non-alternating edges whose all-A circles coincide and whose all-B circles
coincide. Surgery along it cuts both edges and rejoins the four ends with
two parallel copies of the arc; this leaves the crossing count alone,
splits one all-A and one all-B circle in two, and so lowers the Turaev
genus by one.

Every prime connected non-alternating diagram has a face with exactly two
non-alternating incidences: the region between the two state-circle arcs
hugging such a face is an empty bigon, and a face with crossings inside a
bigon of that kind would exhibit a composite circle. The deterministic
``outermost_bigon_arc`` picks among those faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from .pdcore import (
    BLACK,
    Coloring,
    CompositeCircle,
    DiagramError,
    PlanarDiagram,
    Refused,
    checkerboard,
    composite_circles,
    is_alternating,
)
from .states import turaev_genus


@dataclass(frozen=True)
class CuttingArc:
    """An arc in ``face`` joining the midpoints of edges at two positions
    of the face's boundary walk; both edges lie on one common all-A circle
    and one common all-B circle."""

    face: int
    positions: tuple[int, int]
    edges: tuple[int, int]
    alpha_circle: int
    beta_circle: int


@dataclass(frozen=True)
class AttachingEdge:
    """Inverse-surgery data: the two edges created by a surgery, located
    by the darts whose right face is the merged face of the surgery.
    Surgering the new diagram along the arc joining their midpoints
    restores the original up to relabeling."""

    new_edges: tuple[int, int]
    darts: tuple[tuple[int, int], tuple[int, int]]  # (crossing, slot) of each new edge
    cut_edges: tuple[int, int]
    cut_face: int


def find_cutting_arcs(diagram: PlanarDiagram) -> tuple[CuttingArc, ...]:
    """All cutting arcs of a prime connected non-alternating diagram."""
    arcs = [arc for _, _, arc in _face_arcs(diagram) if arc is not None]
    return tuple(sorted(arcs, key=lambda arc: (arc.alpha_circle, arc.face, arc.positions)))


def outermost_bigon_arc(diagram: PlanarDiagram) -> CuttingArc:
    """Deterministic cutting arc through an empty bigon.

    Faces with exactly two non-alternating incidences are the empty bigons
    between an all-A and an all-B arc; the one whose A-circle has the
    smallest id is preferred, then smallest face id and positions.
    """
    candidates = []
    for face_id, spots, arc in _face_arcs(diagram):
        if spots != 2:
            continue
        if arc is None:
            # The hugging arcs of a two-incidence face always share their
            # circles; anything else indicates corrupted input.
            raise DiagramError(f"bigon face {face_id} has mismatched state circles")
        candidates.append(arc)
    if not candidates:
        raise DiagramError(
            "no empty bigon face found; a prime connected non-alternating "
            "diagram always has one, so the input is corrupted"
        )
    return min(candidates, key=lambda arc: (arc.alpha_circle, arc.face, arc.positions))


def _face_arcs(diagram: PlanarDiagram) -> list[tuple[int, int, CuttingArc | None]]:
    """One scan of the face boundaries: per pair of non-alternating
    incidences on distinct edges of one face, the face id, its incidence
    count and the arc joining them, or None when the two edges do not share
    both their all-A and their all-B circle."""
    _require_surgery_input(diagram)
    alt = diagram.alternation
    a_of = diagram.a_circles.circle_of_edge(diagram)
    b_of = diagram.b_circles.circle_of_edge(diagram)
    out = []
    for face in diagram.faces:
        spots = [(i, diagram.label(d)) for i, d in enumerate(face.darts) if not alt[diagram.label(d)]]
        for (i, e1), (j, e2) in combinations(spots, 2):
            if e1 == e2:
                continue
            shared = a_of[e1] == a_of[e2] and b_of[e1] == b_of[e2]
            arc = CuttingArc(face.id, (i, j), (e1, e2), a_of[e1], b_of[e1]) if shared else None
            out.append((face.id, len(spots), arc))
    return out


def _require_surgery_input(diagram: PlanarDiagram) -> None:
    if not diagram.is_connected:
        raise Refused("disconnected diagram")
    if is_alternating(diagram):
        raise Refused("alternating diagram has no cutting arcs")
    if composite_circles(diagram):
        raise Refused("composite diagram")


def surger_arc(
    diagram: PlanarDiagram, face: int, pos1: int, pos2: int
) -> tuple[PlanarDiagram, AttachingEdge]:
    """Surger along an arc in ``face`` between two boundary positions.

    Both edges are cut at their midpoints and the four ends are rejoined
    by two parallel copies of the arc: the end of the first edge beyond
    its position joins the start of the second edge, and vice versa. The
    arc need not be a cutting arc. The result can be disconnected.
    """
    walk = diagram.faces[face].darts
    if pos1 == pos2 or not (0 <= pos1 < len(walk)) or not (0 <= pos2 < len(walk)):
        raise DiagramError("arc positions must be two distinct boundary positions")
    u1, u2 = walk[pos1], walk[pos2]
    e1, e2 = diagram.label(u1), diagram.label(u2)
    if e1 == e2:
        raise DiagramError("arc endpoints lie on the same edge")
    result = surger_darts(diagram, u1, u2)
    a1, a2 = diagram.alpha[u1], diagram.alpha[u2]
    fx = max(diagram.edge_labels) + 1
    fy = fx + 1
    attaching = AttachingEdge(
        (fx, fy),
        ((a1 >> 2, a1 & 3), (a2 >> 2, a2 & 3)),
        (e1, e2),
        face,
    )
    return result, attaching


def surger_cutting_arc(diagram: PlanarDiagram, arc: CuttingArc) -> tuple[PlanarDiagram, AttachingEdge]:
    return surger_arc(diagram, arc.face, arc.positions[0], arc.positions[1])


def inverse_surgery(diagram: PlanarDiagram, attaching: AttachingEdge) -> PlanarDiagram:
    """Surger along the attaching edge, restoring the pre-surgery diagram
    up to relabeling."""
    (c1, s1), (c2, s2) = attaching.darts
    d1 = 4 * c1 + s1
    d2 = 4 * c2 + s2
    if diagram.label(d1) != attaching.new_edges[0] or diagram.label(d2) != attaching.new_edges[1]:
        raise DiagramError("attaching-edge record does not match this diagram")
    f1 = diagram.face_of_dart[d1]
    f2 = diagram.face_of_dart[d2]
    if f1 != f2:
        raise DiagramError("attaching edges no longer share the merged face")
    walk = diagram.faces[f1].darts
    result, _ = surger_arc(diagram, f1, walk.index(d1), walk.index(d2))
    return result


def surger_darts(diagram: PlanarDiagram, d1: int, d2: int) -> PlanarDiagram:
    """Cut the edges of darts d1, d2 and rejoin head(d1)-tail(d2),
    tail(d1)-head(d2). The raw splice behind arc surgery; callers must
    ensure the geometric arc exists (same face, or separate components)."""
    e1, e2 = diagram.label(d1), diagram.label(d2)
    if e1 == e2:
        raise DiagramError("cannot splice an edge with itself")
    a1, a2 = diagram.alpha[d1], diagram.alpha[d2]
    fx = max(diagram.edge_labels) + 1
    fy = fx + 1
    rows = [list(row) for row in diagram.crossings]
    rows[a1 >> 2][a1 & 3] = fx
    rows[d2 >> 2][d2 & 3] = fx
    rows[d1 >> 2][d1 & 3] = fy
    rows[a2 >> 2][a2 & 3] = fy
    return PlanarDiagram.from_rows(rows, allow_disconnected=True)


def connect_sum(d1: PlanarDiagram, dart1: int, d2: PlanarDiagram, dart2: int) -> PlanarDiagram:
    """Join two diagrams by inverse surgery across one edge of each."""
    shift_c = d1.n
    shift_e = max(d1.edge_labels)
    rows = [list(row) for row in d1.crossings]
    rows += [[x + shift_e for x in row] for row in d2.crossings]
    union = PlanarDiagram.from_rows(rows, allow_disconnected=True)
    joined = surger_darts(union, dart1, 4 * shift_c + dart2)
    if not joined.is_connected:
        raise DiagramError("connected sum came out disconnected")
    return PlanarDiagram.from_rows(joined.crossings)


# -- one genus-reduction step with prime splitting ---------------------------


@dataclass(frozen=True)
class SplitStep:
    """One cutting-arc surgery followed by splitting along every composite
    circle of the intermediate diagram.

    The cutting arc is taken in a black face (the coloring is re-anchored
    to arrange that). The intermediate composite circles admit a total
    nesting order, recorded as ``concentric_witness``: per circle, the
    crossing side chosen so the sides form an ascending chain.
    """

    input: PlanarDiagram
    arc: CuttingArc
    intermediate: PlanarDiagram
    attaching: AttachingEdge
    intermediate_circles: tuple[CompositeCircle, ...]
    concentric_witness: tuple[tuple[int, ...], ...]
    components: tuple[PlanarDiagram, ...]
    component_attachings: tuple[AttachingEdge, ...]

    @property
    def genus_sum(self) -> int:
        return sum(turaev_genus(c) for c in self.components)


def certify_concentric(circles: tuple[CompositeCircle, ...]) -> tuple[tuple[int, ...], ...]:
    """A chain of sides witnessing that the circles are concentric.

    Chooses one crossing side per circle so the chosen sides are totally
    ordered by inclusion. Raises DiagramError when no choice works.
    """
    if not circles:
        return ()
    k = len(circles)
    if k > 16:
        raise DiagramError("too many composite circles to certify by search")
    side_sets = [(frozenset(c.sides[0]), frozenset(c.sides[1])) for c in circles]
    for choice in product((0, 1), repeat=k):
        chosen = sorted((side_sets[i][choice[i]] for i in range(k)), key=len)
        if all(chosen[i] <= chosen[i + 1] for i in range(k - 1)):
            ordered = sorted(range(k), key=lambda i: len(side_sets[i][choice[i]]))
            return tuple(tuple(sorted(side_sets[i][choice[i]])) for i in ordered)
    raise DiagramError("composite circles are not concentric")


def _black_face_of_circle(
    diagram: PlanarDiagram, coloring: Coloring, circle: CompositeCircle
) -> int:
    f1, f2 = circle.faces
    if coloring.color(f1) == BLACK:
        return f1
    if coloring.color(f2) == BLACK:
        return f2
    raise DiagramError("composite circle has no black face")


def _surger_composite(
    diagram: PlanarDiagram, coloring: Coloring, circle: CompositeCircle
) -> tuple[list[tuple[PlanarDiagram, Coloring]], AttachingEdge]:
    """Surger along the black arc of a composite circle and split the
    disconnected result into components with their induced colorings."""
    face = _black_face_of_circle(diagram, coloring, circle)
    walk = diagram.faces[face].darts
    positions = [i for i, d in enumerate(walk) if diagram.label(d) in circle.edges]
    if len(positions) != 2:
        raise DiagramError("composite circle edges not found on its black face")
    result, attaching = surger_arc(diagram, face, positions[0], positions[1])
    if result.is_connected:
        raise DiagramError("surgery along a composite circle must disconnect")
    comps = split_components(result)
    out = []
    for comp, old_to_new in comps:
        # The merged face of the surgery is white; anchor on whichever new
        # edge this component received.
        anchor = None
        for (c, s), lab in zip(attaching.darts, attaching.new_edges):
            d = 4 * c + s
            if d in old_to_new:
                nd = old_to_new[d]
                anchor = comp.face_of_dart[nd]
                break
        if anchor is None:
            raise DiagramError("component lost both attaching edges")
        col = checkerboard(comp, black_face=anchor).swapped()
        out.append((comp, col))
    return out, attaching


def split_components(
    diagram: PlanarDiagram,
) -> list[tuple[PlanarDiagram, dict[int, int]]]:
    """Connected components as separate diagrams with dart translation."""
    out = []
    for comp in diagram.components:
        index = {c: i for i, c in enumerate(comp)}
        rows = [diagram.crossings[c] for c in comp]
        sub = PlanarDiagram.from_rows(rows)
        old_to_new = {}
        for c in comp:
            for s in range(4):
                old_to_new[4 * c + s] = 4 * index[c] + s
        out.append((sub, old_to_new))
    return out


def split_step(diagram: PlanarDiagram) -> SplitStep:
    """Reduce the genus by one and split off prime factors.

    The intermediate diagram (after the cutting-arc surgery, arc taken in
    a black face) has concentric composite circles; surgering along the
    black arc of each leaves prime components whose genera sum to one less
    than the input genus. All of that is asserted, not assumed.
    """
    _require_surgery_input(diagram)
    g = diagram.genus
    arc = outermost_bigon_arc(diagram)
    intermediate, attaching = surger_cutting_arc(diagram, arc)
    if not intermediate.is_connected:
        raise DiagramError("cutting-arc surgery of a prime diagram must stay connected")
    if intermediate.a_circles.n != diagram.a_circles.n + 1:
        raise DiagramError("cutting-arc surgery must split the all-A circle")
    if intermediate.b_circles.n != diagram.b_circles.n + 1:
        raise DiagramError("cutting-arc surgery must split the all-B circle")
    if intermediate.genus != g - 1:
        raise DiagramError("cutting-arc surgery must lower the genus by one")
    # Induced coloring: the merged face (right of the first attaching dart)
    # is white.
    c, s = attaching.darts[0]
    inter_coloring = checkerboard(
        intermediate, black_face=intermediate.face_of_dart[4 * c + s]
    ).swapped()
    circles = composite_circles(intermediate)
    witness = certify_concentric(circles)
    pending = [(intermediate, inter_coloring)]
    finals: list[PlanarDiagram] = []
    used_attachings: list[AttachingEdge] = []
    while pending:
        cur, col = pending.pop()
        cur_circles = composite_circles(cur)
        if not cur_circles:
            finals.append(cur)
            continue
        pieces, att = _surger_composite(cur, col, cur_circles[0])
        used_attachings.append(att)
        pending.extend(pieces)
    finals.sort(key=lambda d: d.crossings)
    total = sum(turaev_genus(f) for f in finals)
    if total != g - 1:
        raise DiagramError(f"component genera sum to {total}, expected {g - 1}")
    return SplitStep(
        diagram,
        arc,
        intermediate,
        attaching,
        circles,
        witness,
        tuple(finals),
        tuple(used_attachings),
    )


# -- the reduction ladder -----------------------------------------------------


@dataclass(frozen=True)
class LadderStep:
    kind: str  # "cut" or "factor"
    diagram: PlanarDiagram
    arc: CuttingArc | None
    attaching: tuple[AttachingEdge, ...]
    results: tuple[PlanarDiagram, ...]


@dataclass(frozen=True)
class ReductionLadder:
    input: PlanarDiagram
    steps: tuple[LadderStep, ...]
    terminals: tuple[PlanarDiagram, ...]

    @property
    def cut_steps(self) -> int:
        return sum(1 for s in self.steps if s.kind == "cut")

    def to_json_dict(self) -> dict:
        return {
            "input": self.input.to_pd_text(),
            "steps": [
                {
                    "kind": s.kind,
                    "diagram": s.diagram.to_pd_text(),
                    "arc": None
                    if s.arc is None
                    else {
                        "face": s.arc.face,
                        "positions": list(s.arc.positions),
                        "edges": list(s.arc.edges),
                    },
                    "attachingEdges": [
                        {"newEdges": list(a.new_edges), "darts": [list(x) for x in a.darts]}
                        for a in s.attaching
                    ],
                    "results": [r.to_pd_text() for r in s.results],
                }
                for s in self.steps
            ],
            "terminals": [t.to_pd_text() for t in self.terminals],
            "cutSteps": self.cut_steps,
        }


def _factor_composite(diagram: PlanarDiagram) -> tuple[tuple[PlanarDiagram, ...], tuple[AttachingEdge, ...]]:
    """Split a composite diagram along one composite circle."""
    circles = composite_circles(diagram)
    circle = circles[0]
    coloring = checkerboard(diagram, black_face=min(circle.faces))
    pieces, att = _surger_composite(diagram, coloring, circle)
    return tuple(p for p, _ in pieces), (att,)


def reduce_ladder(diagram: PlanarDiagram) -> ReductionLadder:
    """Iterate genus-reduction splits until every component is alternating.

    For a prime connected input the number of cutting-arc steps equals the
    Turaev genus.
    """
    if not diagram.is_connected:
        raise DiagramError("the reduction ladder starts from a connected diagram")
    steps: list[LadderStep] = []
    terminals: list[PlanarDiagram] = []
    pending = [diagram]
    while pending:
        cur = pending.pop()
        if is_alternating(cur):
            terminals.append(cur)
            continue
        if composite_circles(cur):
            pieces, atts = _factor_composite(cur)
            steps.append(LadderStep("factor", cur, None, atts, pieces))
            pending.extend(pieces)
            continue
        step = split_step(cur)
        steps.append(
            LadderStep("cut", cur, step.arc, (step.attaching,) + step.component_attachings, step.components)
        )
        pending.extend(step.components)
    terminals.sort(key=lambda d: d.crossings)
    return ReductionLadder(diagram, tuple(steps), tuple(terminals))
