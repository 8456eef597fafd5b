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

The split step after a cutting-arc surgery reads its prime pieces off
the intermediate diagram's blocks, the crossing classes left when the
two edges of every composite circle are deleted. The blocks must form a
path, neighbours joined by one circle, which is the concentricity check;
each cut is checked to disconnect its piece, and the final pieces are
checked in one pass over the dart table instead of one ``validate``
each. ``SplitStep.intermediate_circles`` and ``concentric_witness`` are
computed only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations
from operator import or_

from .pdcore import (
    CompositeCircle,
    DiagramError,
    PlanarDiagram,
    Refused,
    _crossing_classes,
    _genus_of_counts,
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
    if not all(0 <= c < diagram.n and 0 <= s < 4 for c, s in attaching.darts):
        raise DiagramError("attaching-edge record does not match this diagram")
    d1, d2 = (4 * c + s for c, s in attaching.darts)
    if diagram.label(d1) != attaching.new_edges[0] or diagram.label(d2) != attaching.new_edges[1]:
        raise DiagramError("attaching-edge record does not match this diagram")
    if diagram.face_of_dart[d1] != diagram.face_of_dart[d2]:
        raise DiagramError("attaching edges no longer share the merged face")
    return _surgered(diagram, d1, d2)[0]


def connect_sum(d1: PlanarDiagram, dart1: int, d2: PlanarDiagram, dart2: int) -> PlanarDiagram:
    """Join two diagrams by inverse surgery across one edge of each: the
    edges of dart ``dart1`` of ``d1`` and dart ``dart2`` of ``d2``."""
    for name, d, dart in (("dart1", d1, dart1), ("dart2", d2, dart2)):
        if not 0 <= dart < d.n_darts:
            raise DiagramError(f"{name} {dart} is not a dart of its diagram, which has darts 0..{d.n_darts - 1}")
    shift_c = d1.n
    # Shift the second diagram's labels past the first's largest label;
    # its label 0, when it has one, needs one more.
    shift_e = max(d1.edge_labels) + (1 if d2.edge_labels[0] == 0 else 0)
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
    is cut in its black face. The components are the intermediate's
    blocks: the crossing classes left when the two edges of every circle
    are deleted. The circles and their nesting order are computed only
    when read: ``intermediate_circles`` by ``composite_circles``, and
    ``concentric_witness`` by ``certify_concentric``, per circle the
    crossing side chosen so the sides form an ascending chain.
    """

    input: PlanarDiagram
    arc: CuttingArc
    intermediate: PlanarDiagram
    attaching: AttachingEdge
    components: tuple[PlanarDiagram, ...]
    component_attachings: tuple[AttachingEdge, ...]

    @cached_property
    def intermediate_circles(self) -> tuple[CompositeCircle, ...]:
        return composite_circles(self.intermediate)

    @cached_property
    def concentric_witness(self) -> tuple[tuple[int, ...], ...]:
        return certify_concentric(self.intermediate_circles)

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


def _circle_path(diagram: PlanarDiagram) -> tuple[list[list[int]], list[tuple[tuple[int, ...], tuple[int, int]]]]:
    """The blocks of a connected diagram in path order, and for the j-th
    link of the path the composite circle joining blocks j and j + 1, as
    its edge pair and face pair.

    The blocks are the crossing classes left when the edges of every face
    pair are deleted, as ``composite_circles`` takes them. Every face pair
    must hold exactly two edges, one circle, and the blocks must form a
    path whose neighbours are joined by the two edges of one circle. Then
    the circle between blocks j and j + 1 has blocks 0..j on one side, so
    the sides nest. Conversely, nested circles leave between two
    neighbours a region that is one block: a region in two parts would cut
    one part off the diagram, or put the edges of both circles into one
    face pair. A face pair of three edges bounds three side-by-side
    regions. Anything else raises DiagramError.
    """
    circles = []
    for faces, labs in diagram.face_pair_edges.items():
        if len(labs) != 2:
            raise DiagramError("composite circles are not concentric")
        circles.append((labs, faces))
    ed = diagram.edge_darts
    cut = {lab for labs, _ in circles for lab in labs}
    blocks = _crossing_classes(diagram.n, ((d1 >> 2, d2 >> 2) for lab, (d1, d2) in ed.items() if lab not in cut))
    block_of = [0] * diagram.n
    for b, group in enumerate(blocks):
        for c in group:
            block_of[c] = b
    ends = [tuple((block_of[ed[lab][0] >> 2], block_of[ed[lab][1] >> 2]) for lab in labs) for labs, _ in circles]
    block_order, circle_order = _block_path(len(blocks), ends)
    return [blocks[b] for b in block_order], [circles[i] for i in circle_order]


def _block_path(n_blocks: int, ends: list[tuple[tuple[int, int], ...]]) -> tuple[list[int], list[int]]:
    """The blocks in path order, from the end of smaller id, and the
    circles in the order they join them, when ``ends[i]``, the blocks at
    the two ends of each edge of circle i, make the blocks a path whose
    neighbours are joined by both edges of one circle. The blocks of a
    connected diagram are joined, so there ``n_blocks`` blocks and one
    fewer circles, with no block on three circles, are such a path.
    Raises DiagramError otherwise."""
    if n_blocks != len(ends) + 1:
        raise DiagramError("composite circles are not concentric")
    links: list[list[tuple[int, int]]] = [[] for _ in range(n_blocks)]
    for i, ((p, q), (r, s)) in enumerate(ends):
        if p == q or (p, q) not in ((r, s), (s, r)):
            raise DiagramError("composite circles are not concentric")
        links[p].append((q, i))
        links[q].append((p, i))
    if any(len(x) > 2 for x in links):
        raise DiagramError("composite circles are not concentric")
    # Fewer links than twice the blocks: some block is an end.
    block_order = [next(b for b, x in enumerate(links) if len(x) < 2)]
    circle_order = [-1]
    while len(block_order) < n_blocks:
        onward = [link for link in links[block_order[-1]] if link[1] != circle_order[-1]]
        if not onward:
            raise DiagramError("composite circles are not concentric")
        block_order.append(onward[0][0])
        circle_order.append(onward[0][1])
    return block_order, circle_order[1:]


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
        u2 inside their common face, as ``surger_arc`` would on the piece's
        own diagram whose largest label is ``top``, and split it into
        ``piece & side`` and the rest. ``surger_arc`` orders the darts by
        their position in the face walk from the face's smallest dart, so
        u1 must come first there.

        Returns the attaching record, in the piece's numbering, and the two
        parts with their largest labels, the part holding the piece's
        smallest crossing first.
        """
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

    def rows(self, piece: int) -> tuple[tuple[int, ...], ...]:
        """The piece's PD rows, its crossings in ascending order."""
        labels = self.labels
        rows = []
        while piece:  # four dart bits per crossing
            d = (piece & -piece).bit_length() - 1
            rows.append(tuple(labels[d : d + 4]))
            piece &= ~(15 << d)
        return tuple(rows)

    def diagram(self, piece: int, *, allow_disconnected: bool = False) -> PlanarDiagram:
        return PlanarDiagram.from_rows(self.rows(piece), allow_disconnected=allow_disconnected)

    def genera(self, pieces: list[list[int]]) -> list[int]:
        """The Turaev genus of each piece, given as its crossings, checked
        on the whole table: the pieces must cover it, each closed under
        ``alpha``, and every dart must carry its partner's label.

        One walk of the phi orbits gives each piece's face count, which
        must pass the Euler test V - E + F = 2, and one walk each of the
        orbits of ``d -> alpha[d] ^ 1`` and ``^ 3`` counts its all-A and
        all-B circles, two orbits per circle, as ``circle_counts`` does.
        """
        labels, alpha = self.labels, self.alpha
        owner = [0] * (len(alpha) >> 2)
        for i, piece in enumerate(pieces):
            for c in piece:
                owner[c] = i
        faces = [0] * len(pieces)
        seen = bytearray(len(alpha))
        for start in range(len(alpha)):
            if seen[start]:
                continue
            faces[owner[start >> 2]] += 1
            d = start
            while not seen[d]:
                seen[d] = 1
                a = alpha[d]
                if labels[a] != labels[d]:
                    raise DiagramError(f"darts {d} and {a} of one edge carry different labels")
                d = (a & ~3) | ((a + 1) & 3)
        orbits = []
        for mask in (1, 3):
            count = [0] * len(pieces)
            seen = bytearray(len(alpha))
            for start in range(len(alpha)):
                if seen[start]:
                    continue
                count[owner[start >> 2]] += 1
                d = start
                while not seen[d]:
                    seen[d] = 1
                    d = alpha[d] ^ mask
            orbits.append(count)
        genera = []
        for piece, f, oa, ob in zip(pieces, faces, *orbits):
            if f != len(piece) + 2:
                raise DiagramError(f"rotation system is not planar: V-E+F = {f - len(piece)} on a split piece")
            genera.append(_genus_of_counts(len(piece), oa >> 1, ob >> 1))
        return genera


def split_step(diagram: PlanarDiagram) -> SplitStep:
    """Reduce the genus by one and split off prime factors.

    The intermediate diagram (after the cutting-arc surgery, arc taken in
    a black face) has concentric composite circles; surgering along the
    black arc of each leaves prime components whose genera sum to one less
    than the input genus. All of that is asserted, not assumed.

    The intermediate is built and validated. Its circles are read off its
    blocks (``_circle_path``), which must form a path joined by one circle
    per link: that is the concentricity check, and the blocks are the
    final pieces. One dart table of the input carries every surgery of
    the step: the cutting arc first, then the circles, one piece (a run
    of blocks along the path) at a time, last piece first and in each
    piece along its circle of smallest edge pair. Every record is written
    in the numbering of the piece it cuts.

    A surgery keeps the color of every corner, so the input's
    checkerboard signs color the intermediate: the face right of dart d
    is black iff ``(signs[d >> 2] > 0) == bool(d & 1)``, and the merged
    face of the cutting arc is taken white. Each circle must join its
    black face to the merged face; the input is prime, so no circle
    misses the surgered region. So each black face belongs to one circle,
    no other cut rewires it, and each cut is oriented by its darts'
    positions in the intermediate's face walk. Each cut must disconnect
    its piece, and each final piece must be exactly one block, so it is
    connected. The final pieces are built without ``validate``: one pass
    over the cut table (``_DartTable.genera``) gives each piece the Euler
    test and its genus, the genera must sum to one less than the input
    genus, and each piece's own ``alpha`` checks its labels.
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
    blocks, circles = _circle_path(intermediate)
    if not circles:
        return SplitStep(diagram, arc, intermediate, attaching, (intermediate,), ())
    signs, edge_darts, fod = diagram.signs, intermediate.edge_darts, intermediate.face_of_dart
    c, s = attaching.darts[0]  # the merged dart
    merged = fod[4 * c + s]
    cuts = []
    for edges, faces in circles:
        # Of each edge's two darts, the one whose face is black: a face
        # has the merged face's color iff its dart's crossing sign and
        # slot parity both agree with the merged dart's, or both differ.
        darts = (edge_darts[e] for e in edges)
        da, db = (d if (signs[d >> 2] == signs[c]) == bool((d ^ s) & 1) else a for d, a in darts)
        black = fod[da]
        if fod[db] != black or faces != (min(black, merged), max(black, merged)):
            raise DiagramError("composite circle edges not found on its black face")
        walk = intermediate.faces[black].darts
        cuts.append((da, db) if walk.index(da) < walk.index(db) else (db, da))
    # prefix[j + 1] holds blocks 0..j: one side of the circle after block j.
    masks = [_dart_mask(b) for b in blocks]
    prefix = list(accumulate(masks, or_, initial=0))
    finals: list[PlanarDiagram] = []
    used_attachings: list[AttachingEdge] = []
    pending = [(table.everything, max(intermediate.edge_labels), 0, len(blocks) - 1)]
    while pending:
        piece, top, lo, hi = pending.pop()
        if lo == hi:
            if piece != masks[lo]:
                raise DiagramError("a split piece is not one block of the intermediate")
            finals.append(PlanarDiagram(table.rows(piece)))
            continue
        j = min(range(lo, hi), key=lambda j: circles[j][0])
        att, parts = table.cut(piece, prefix[j + 1], top, *cuts[j])
        used_attachings.append(att)
        for part, part_top in parts:
            pending.append((part, part_top, lo, j) if part & prefix[j + 1] else (part, part_top, j + 1, hi))
    total = sum(table.genera(blocks))
    if total != g - 1:
        raise DiagramError(f"component genera sum to {total}, expected {g - 1}")
    for f in finals:
        f.alpha  # every label of the piece exactly twice, by its own pairing
    finals.sort(key=lambda d: d.crossings)
    return SplitStep(diagram, arc, intermediate, attaching, tuple(finals), tuple(used_attachings))


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
    labels = diagram.flat_labels
    u1, u2 = (d for d in diagram.faces[min(circle.faces)].darts if labels[d] in circle.edges)
    table = _DartTable(diagram)
    att, parts = table.cut(table.everything, _dart_mask(circle.sides[0]), max(diagram.edge_labels), u1, u2)
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
