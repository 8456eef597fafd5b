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

Every surgery here, an arc surgery, its inverse, a connected sum and the
cuts along composite circles, is one splice of a ``_DartTable``: the
labels and the edge pairing ``alpha`` of the darts, rewired in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .pdcore import (
    CompositeCircle,
    DiagramError,
    PlanarDiagram,
    Refused,
    composite_circles,
    is_alternating,
    is_prime,
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
    labels, alpha = diagram.flat_labels, diagram.alpha
    a_of, b_of = diagram.edge_circles
    out = []
    for face in diagram.faces:
        # A non-alternating edge joins two slots of equal parity.
        spots = [(i, labels[d]) for i, d in enumerate(face.darts) if not (d ^ alpha[d]) & 1]
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
    if not is_prime(diagram):
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
    if not 0 <= face < len(diagram.faces):
        raise DiagramError(f"face {face} is not a face of the diagram")
    walk = diagram.faces[face].darts
    if pos1 == pos2 or not (0 <= pos1 < len(walk)) or not (0 <= pos2 < len(walk)):
        raise DiagramError("arc positions must be two distinct boundary positions")
    return _surgered(diagram, walk[pos1], walk[pos2])


def surger_cutting_arc(diagram: PlanarDiagram, arc: CuttingArc) -> tuple[PlanarDiagram, AttachingEdge]:
    return surger_arc(diagram, arc.face, arc.positions[0], arc.positions[1])


def inverse_surgery(diagram: PlanarDiagram, attaching: AttachingEdge) -> PlanarDiagram:
    """Surger along the attaching edge, restoring the pre-surgery diagram
    up to relabeling."""
    d1, d2 = (4 * c + s for c, s in attaching.darts)
    if diagram.label(d1) != attaching.new_edges[0] or diagram.label(d2) != attaching.new_edges[1]:
        raise DiagramError("attaching-edge record does not match this diagram")
    if diagram.face_of_dart[d1] != diagram.face_of_dart[d2]:
        raise DiagramError("attaching edges no longer share the merged face")
    return _surgered(diagram, d1, d2)[0]


def connect_sum(d1: PlanarDiagram, dart1: int, d2: PlanarDiagram, dart2: int) -> PlanarDiagram:
    """Join two diagrams by inverse surgery across one edge of each."""
    shift_c = d1.n
    shift_e = max(d1.edge_labels)
    rows = [list(row) for row in d1.crossings]
    rows += [[x + shift_e for x in row] for row in d2.crossings]
    union = PlanarDiagram.from_rows(rows, allow_disconnected=True)
    joined, _ = _surgered(union, dart1, 4 * shift_c + dart2)
    if not joined.is_connected:
        raise DiagramError("connected sum came out disconnected")
    return joined


def _surgered(diagram: PlanarDiagram, u1: int, u2: int) -> tuple[PlanarDiagram, AttachingEdge]:
    """The diagram spliced at darts u1 and u2, possibly disconnected, and
    the attaching record of the splice."""
    table = _DartTable(diagram)
    attaching = table.splice(table.everything, max(diagram.edge_labels), u1, u2)
    return table.diagram(table.everything, allow_disconnected=True), attaching


# -- one genus-reduction step with prime splitting ---------------------------


@dataclass(frozen=True)
class SplitStep:
    """One cutting-arc surgery followed by splitting along every composite
    circle of the intermediate diagram.

    The merged face of the cutting-arc surgery is white, and each circle
    is cut in its black face. The intermediate composite circles admit a
    total nesting order, recorded as ``concentric_witness``: per circle,
    the crossing side chosen so the sides form an ascending chain.
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
    ordered by inclusion, and lists them innermost first. Of all such
    choices it takes the one whose choice vector (0 for ``sides[0]``, 1 for
    ``sides[1]``, circle by circle) is lexicographically smallest. A chain
    exists iff, for some crossing x, the sides containing x form a chain:
    every side of a chain contains the crossings of its innermost side. So
    the choices to test are the side vectors of the crossings. Raises
    DiagramError when no crossing's sides form a chain.
    """
    if not circles:
        return ()
    # Crossing x's choice vector as an int, circle 0 in the top bit, so
    # that int order is lexicographic order: bit i is set iff x lies in
    # circle i's sides[1]. The sides partition the crossings, so each
    # circle reads only its smaller side: it flips its bit there, from a
    # base vector, and takes the other side's mask as the complement.
    k = len(circles)
    every = circles[0].sides[0] + circles[0].sides[1]
    full = _crossing_mask(every)
    flips = dict.fromkeys(every, 0)
    base = 0
    masks = []
    for i, (s0, s1) in enumerate(c.sides for c in circles):
        bit = 1 << (k - 1 - i)
        flip_s0 = len(s0) < len(s1)
        mask = 0
        for x in s0 if flip_s0 else s1:
            flips[x] ^= bit
            mask |= 1 << x
        if flip_s0:
            base |= bit
            masks.append((mask, full ^ mask))
        else:
            masks.append((full ^ mask, mask))
    for v in sorted({base ^ f for f in flips.values()}):
        best = [v >> (k - 1 - i) & 1 for i in range(k)]
        chosen = sorted((masks[i][best[i]] for i in range(k)), key=int.bit_count)
        if all(inner & ~outer == 0 for inner, outer in zip(chosen, chosen[1:])):
            break
    else:
        raise DiagramError("composite circles are not concentric")
    ordered = sorted(range(k), key=lambda i: len(circles[i].sides[best[i]]))
    return tuple(tuple(sorted(circles[i].sides[best[i]])) for i in ordered)


def _crossing_mask(crossings) -> int:
    """Bitmask with bit x set for each crossing x."""
    mask = 0
    for x in crossings:
        mask |= 1 << x
    return mask


def _dart_mask(crossings) -> int:
    """Bitmask with the four dart bits of each crossing set."""
    mask = 0
    for c in crossings:
        mask |= 15 << 4 * c
    return mask


class _DartTable:
    """The labels and edge pairing of one diagram's darts, surgered in place.

    A piece is a set of crossings held as a dart bitmask (four bits per
    crossing). The table numbers a piece's crossings as
    ``PlanarDiagram.from_rows`` would number the piece's own rows, in
    ascending order. ``splice`` is the one place where a surgery rewires
    darts.
    """

    def __init__(self, diagram: PlanarDiagram):
        self.labels = list(diagram.flat_labels)
        self.alpha = list(diagram.alpha)
        self.everything = (1 << diagram.n_darts) - 1

    def _walk(self, d: int) -> list[int]:
        """The face walk through dart d, following phi = sigma(alpha)."""
        alpha = self.alpha
        walk = []
        x = d
        while True:
            walk.append(x)
            x = alpha[x]
            x = (x & ~3) | ((x + 1) & 3)
            if x == d:
                return walk

    def splice(self, piece: int, top: int, u1: int, u2: int) -> AttachingEdge:
        """Cut the edges of darts u1 and u2 and rejoin alpha(u1) to u2 as
        edge ``top + 1`` and u1 to alpha(u2) as edge ``top + 2``, where
        ``top`` is the largest label of ``piece``.

        Returns the attaching record in the piece's numbering.
        """
        labels, alpha = self.labels, self.alpha
        a1, a2 = alpha[u1], alpha[u2]
        fx, fy = top + 1, top + 2
        alpha[a1], alpha[u2], alpha[u1], alpha[a2] = u2, a1, a2, u1
        labels[a1] = labels[u2] = fx
        labels[u1] = labels[a2] = fy
        return AttachingEdge((fx, fy), (self._at(piece, a1), self._at(piece, a2)))

    def cut(self, piece: int, side: int, top: int, u1: int, u2: int) -> tuple[AttachingEdge, list[tuple[int, int]]]:
        """Surger ``piece`` along the arc joining the edges of darts u1 and
        u2 inside the face of u1, as ``surger_arc`` would on the piece's
        own diagram whose largest label is ``top``, and split it into
        ``piece & side`` and the rest.

        Returns the attaching record, in the piece's numbering, and the two
        parts with their largest labels, the part holding the piece's
        smallest crossing first.
        """
        walk = self._walk(u1)
        if u2 not in walk:
            raise DiagramError("composite circle edges not found on its black face")
        # surger_arc orders the darts by their position in the face walk,
        # which starts at the face's smallest dart.
        start = walk.index(min(walk))
        if (walk.index(u2) - start) % len(walk) < -start % len(walk):
            u1, u2 = u2, u1
        # The new edges join alpha(u1) to u2 and u1 to alpha(u2); each must
        # stay on its side of the circle, which every cut edge crosses.
        inner, outer = piece & side, piece & ~side
        in_u1, in_u2, in_a1, in_a2 = (inner >> d & 1 for d in (u1, u2, self.alpha[u1], self.alpha[u2]))
        if not (inner and outer and in_u1 == in_a2 != in_a1 == in_u2):
            raise DiagramError("surgery along a composite circle must disconnect")
        attaching = self.splice(piece, top, u1, u2)
        fx, fy = attaching.new_edges
        parts = [(inner, fy if in_u1 else fx), (outer, fx if in_u1 else fy)]
        if not inner & piece & -piece:  # piece & -piece: its smallest dart
            parts.reverse()
        return attaching, parts

    def _at(self, piece: int, d: int) -> tuple[int, int]:
        """(crossing, slot) of dart d in the piece's own numbering."""
        return (piece & ((1 << (d & ~3)) - 1)).bit_count() >> 2, d & 3

    def diagram(self, piece: int, *, allow_disconnected: bool = False) -> PlanarDiagram:
        labels = self.labels
        rows = []
        while piece:  # the piece's crossings in ascending order, four dart bits each
            d = (piece & -piece).bit_length() - 1
            rows.append(labels[d : d + 4])
            piece &= ~(15 << d)
        return PlanarDiagram.from_rows(rows, allow_disconnected=allow_disconnected)


def split_step(diagram: PlanarDiagram) -> SplitStep:
    """Reduce the genus by one and split off prime factors.

    The intermediate diagram (after the cutting-arc surgery, arc taken in
    a black face) has concentric composite circles; surgering along the
    black arc of each leaves prime components whose genera sum to one less
    than the input genus. All of that is asserted, not assumed.

    One dart table of the input carries every surgery of the step: the
    cutting arc first, then the circles, one piece at a time, last piece
    first and in each piece along its circle of smallest edge pair. Every
    record is written in the numbering of the piece it cuts. A surgery
    keeps the color of every corner, so the input's checkerboard signs
    color the intermediate and all pieces: the face right of dart d is
    black iff ``(signs[d >> 2] > 0) == bool(d & 1)``, and the merged face
    of the cutting arc is taken white. The composite circles of a piece
    are the uncut circles of the intermediate inside it: concentric
    circles lie in distinct face pairs, so each lies on one side of
    another, and a two-edge cut of a piece through an edge made by a cut
    would put three edges into one face pair of the intermediate. So the
    pieces left without circles are prime. Only the intermediate and
    those final pieces are built as diagrams.
    """
    _require_surgery_input(diagram)
    g = diagram.genus
    arc = outermost_bigon_arc(diagram)
    table = _DartTable(diagram)
    walk = diagram.faces[arc.face].darts
    attaching = table.splice(table.everything, max(diagram.edge_labels), *(walk[p] for p in arc.positions))
    intermediate = table.diagram(table.everything, allow_disconnected=True)
    if not intermediate.is_connected:
        raise DiagramError("cutting-arc surgery of a prime diagram must stay connected")
    (na, nb), (ia, ib) = diagram.circle_counts, intermediate.circle_counts
    if ia != na + 1:
        raise DiagramError("cutting-arc surgery must split the all-A circle")
    if ib != nb + 1:
        raise DiagramError("cutting-arc surgery must split the all-B circle")
    if intermediate.genus != g - 1:
        raise DiagramError("cutting-arc surgery must lower the genus by one")
    circles = composite_circles(intermediate)
    witness = certify_concentric(circles)
    finals: list[PlanarDiagram] = []
    used_attachings: list[AttachingEdge] = []
    if not circles:
        finals.append(intermediate)
    else:
        signs, edge_darts = diagram.signs, intermediate.edge_darts
        c, s = attaching.darts[0]  # the merged dart
        pending = [(table.everything, max(intermediate.edge_labels), circles)]
        while pending:
            piece, top, cur_circles = pending.pop()
            if not cur_circles:
                finals.append(table.diagram(piece))
                continue
            circle = cur_circles[0]
            # Of each edge's two darts, the one whose face is black: a face
            # has the merged face's color iff its dart's crossing sign and
            # slot parity both agree with the merged dart's, or both differ.
            darts = (edge_darts[e] for e in circle.edges)
            da, db = (d if (signs[d >> 2] == signs[c]) == bool((d ^ s) & 1) else a for d, a in darts)
            att, parts = table.cut(piece, _dart_mask(circle.sides[0]), top, da, db)
            used_attachings.append(att)
            for part, part_top in parts:
                rest = tuple(cc for cc in cur_circles[1:] if part >> edge_darts[cc.edges[0]][0] & 1)
                pending.append((part, part_top, rest))
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
    """Split a composite diagram along its circle of smallest edge pair,
    surgering inside the circle's face of smaller id."""
    circle = composite_circles(diagram)[0]
    face = min(circle.faces)
    da, db = (next(d for d in diagram.edge_darts[e] if diagram.face_of_dart[d] == face) for e in circle.edges)
    table = _DartTable(diagram)
    att, parts = table.cut(table.everything, _dart_mask(circle.sides[0]), max(diagram.edge_labels), da, db)
    return tuple(table.diagram(part) for part, _ in parts), (att,)


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
        if not is_prime(cur):
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
