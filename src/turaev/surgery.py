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
The table is ``pdcore``'s orbit core ``_Orbits``, whose walks every
diagram reads its own facts off, with the splices, cuts and rungs added;
``find_cutting_arcs`` and ``outermost_bigon_arc`` read the diagram's own
walk.

The reduction ladder runs on one dart table built from its input. A rung
is a piece of the table (its crossings and their dart mask) and its
largest label. What a rung reads, its alternation, face pairs, face
walks and state circles, comes from walks of the piece's orbits
(``_Orbits.walk``) numbered as ``PlanarDiagram.from_rows`` would
number the piece's own rows, so no piece is rebuilt or revalidated. The
intermediate diagram of a cut is never built: its checks (connected,
V - E + F = 2, both darts of each edge on one label, one more all-A and
all-B circle, genus one lower) are made on the table. The split reads
the prime pieces off the intermediate's blocks, the crossing classes
left when the two edges of every composite circle are deleted; the
blocks must form a path, neighbours joined by one circle, which is the
concentricity check. ``split_step`` runs the same rung on a table of
its own and builds the validated intermediate for its ``SplitStep``;
``SplitStep.intermediate_circles`` and ``concentric_witness`` are
computed only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, combinations, groupby
from operator import or_

from .pdcore import (
    CompositeCircle,
    DiagramError,
    PlanarDiagram,
    Refused,
    _crossing_classes,
    _dart_mask,
    _genus_of_counts,
    _Orbits,
    _Walk,
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
    _require_surgery_input(diagram)
    arcs = _cutting_arcs(diagram._orbits, diagram._walk)
    return tuple(sorted(arcs, key=lambda arc: (arc.alpha_circle, arc.face, arc.positions)))


def outermost_bigon_arc(diagram: PlanarDiagram) -> CuttingArc:
    """Deterministic cutting arc through an empty bigon.

    Faces with exactly two non-alternating incidences are the empty bigons
    between an all-A and an all-B arc; the one whose A-circle has the
    smallest id is preferred, then smallest face id and positions.
    """
    _require_surgery_input(diagram)
    return _outermost_arc(diagram._orbits, diagram._walk)[0]


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
    walk = diagram.faces[face]
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
    are deleted. ``intermediate`` is built and validated from the table
    after its checks; the circles and their nesting order are computed
    only when read: ``intermediate_circles`` by ``composite_circles``, and
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


# -- arcs ---------------------------------------------------------------------
# The arc finders only read an orbit core, so they run on a diagram's own
# core and walk as well as on a piece of a dart table.


def _spot_runs(core: _Orbits, walk: _Walk):
    """Each face of the piece with non-alternating incidences, as its
    piece id and those incidences' darts in walk order."""
    for f, run in groupby(walk.spots, key=core.face.__getitem__):
        yield f - walk.base, list(run)


def _cutting_arcs(core: _Orbits, walk: _Walk) -> list[CuttingArc]:
    """Per pair of non-alternating incidences on distinct edges of one
    face, when the two edges share both their all-A and their all-B
    circle, the arc joining them, with the circle ids of
    ``PlanarDiagram.edge_circles``."""
    core.circles(walk)
    labels, (ca, cb), (base_a, base_b) = core.labels, core.circle, walk.bases
    out = []
    for f, run in _spot_runs(core, walk):
        for d1, d2 in combinations(run, 2):
            if labels[d1] != labels[d2] and ca[d1] == ca[d2] and cb[d1] == cb[d2]:
                positions = (core.position(walk, d1), core.position(walk, d2))
                out.append(CuttingArc(f, positions, (labels[d1], labels[d2]), ca[d1] - base_a, cb[d1] - base_b))
    return out


def _outermost_arc(core: _Orbits, walk: _Walk) -> tuple[CuttingArc, int, int]:
    """The arc of ``outermost_bigon_arc`` on the piece, with the darts of
    its two edges on its face, in walk order."""
    core.circles(walk)
    labels, (ca, cb), (base_a, base_b) = core.labels, core.circle, walk.bases
    best = None
    for f, run in _spot_runs(core, walk):
        if len(run) != 2:
            continue
        d1, d2 = run
        if labels[d1] == labels[d2]:
            continue
        if ca[d1] != ca[d2] or cb[d1] != cb[d2]:
            # The hugging arcs of a two-incidence face always share
            # their circles; anything else indicates corrupted input.
            raise DiagramError(f"bigon face {f} has mismatched state circles")
        # A face holds one candidate, so no two tie on the face.
        key = (ca[d1], f)
        if best is None or key < best[0]:
            best = (key, f, d1, d2)
    if best is None:
        raise DiagramError(
            "no empty bigon face found; a prime connected non-alternating "
            "diagram always has one, so the input is corrupted"
        )
    _, f, d1, d2 = best
    arc = CuttingArc(
        f,
        (core.position(walk, d1), core.position(walk, d2)),
        (labels[d1], labels[d2]),
        ca[d1] - base_a,
        cb[d1] - base_b,
    )
    return arc, d1, d2


class _DartTable(_Orbits):
    """The orbit core of one diagram's darts, surgered in place.

    The table copies the diagram's labels and ``alpha`` into lists, which
    ``splice``, the one place where a surgery rewires darts, changes.
    Pieces split from one another never share a dart, so a piece's marks
    stay valid until the piece is spliced; its walk is kept in ``walked``
    until then.
    """

    def __init__(self, diagram: PlanarDiagram):
        super().__init__(list(diagram.flat_labels), list(diagram.alpha), diagram.n)

    # -- surgery ------------------------------------------------------------

    def splice(self, piece: int, top: int, u1: int, u2: int) -> AttachingEdge:
        """Cut the edges of darts u1 and u2 and rejoin alpha(u1) to u2 as
        edge ``top + 1`` and u1 to alpha(u2) as edge ``top + 2``, where
        ``top`` is the largest label of ``piece``.

        Returns the attaching record in the piece's numbering.
        """
        self.walked.pop(piece, None)
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

    # -- walks --------------------------------------------------------------

    def genus(self, walk: _Walk) -> int:
        return _genus_of_counts(len(walk.crossings), *self.circles(walk))

    def genera(self, pieces: list[list[int]]) -> list[int]:
        """The Turaev genus of each piece, given as its ascending
        crossings: each piece is walked (and its walk kept), must pass the
        Euler test V - E + F = 2, and gets its genus from its all-A and
        all-B circle counts."""
        out = []
        for piece in pieces:
            walk = self.walk(piece)
            walk.check_planar("a split piece")
            out.append(self.genus(walk))
        return out

    def circle_path(self, walk: _Walk, blocks: list[list[int]]) -> tuple[list[list[int]], list]:
        """The blocks in path order and, for the j-th link of the path,
        the composite circle joining blocks j and j + 1, as its edge pair,
        face pair and the (smaller, larger) darts of each edge.

        Every face pair must hold exactly two edges, one circle, and the
        blocks must form a path whose neighbours are joined by the two
        edges of one circle. Then the circle between blocks j and j + 1
        has blocks 0..j on one side, so the sides nest. Conversely, nested
        circles leave between two neighbours a region that is one block: a
        region in two parts would cut one part off the diagram, or put the
        edges of both circles into one face pair. A face pair of three
        edges bounds three side-by-side regions. Anything else raises
        DiagramError.
        """
        labels, alpha, block = self.labels, self.alpha, self.block
        # The blocks of one ``blocks`` call carry consecutive ids.
        circles = []
        for faces, ds in self.face_pairs(walk).items():
            if len(ds) != 2:
                raise DiagramError("composite circles are not concentric")
            darts = tuple((d, alpha[d]) if d < alpha[d] else (alpha[d], d) for d in ds)
            circles.append((tuple(labels[d] for d in ds), faces, darts))
        base = block[blocks[0][0]]
        ends = [tuple((block[d >> 2] - base, block[a >> 2] - base) for d, a in darts) for _, _, darts in circles]
        block_order, circle_order = _block_path(len(blocks), ends)
        return [blocks[b] for b in block_order], [circles[i] for i in circle_order]

    # -- rungs --------------------------------------------------------------

    outermost_arc = _outermost_arc  # the arc a cut rung surgers along

    def surger_rung(self, walk: _Walk, top: int) -> tuple[CuttingArc, AttachingEdge, int]:
        """The cutting-arc surgery of a prime non-alternating piece along
        its outermost bigon arc: the arc, the attaching record and the
        merged dart, whose right face is the merged face. The piece's
        circles are counted, for ``split_rung``, before the splice."""
        arc, u1, u2 = self.outermost_arc(walk)
        attaching = self.splice(walk.mask, top, u1, u2)
        return arc, attaching, self.alpha[u2]

    def split_rung(
        self, walk: _Walk, top: int, merged: int, signs
    ) -> tuple[list[tuple[list[int], int, int]], list[AttachingEdge]]:
        """Check the intermediate diagram a cutting-arc surgery left in the
        piece of ``walk`` (the piece before the surgery), whose largest
        label is now ``top``, and split it along its composite circles.

        The intermediate is walked on the table, and each check its
        ``validate`` would make is made there: it must be connected (its
        blocks joined through the circles' edges), pass V - E + F = 2,
        carry one label on both darts of every edge (checked by the walk),
        have one more all-A and one more all-B circle than the piece, and
        genus one lower. Its blocks must form a path (``circle_path``),
        and are the final pieces.

        A surgery keeps the color of every corner, so checkerboard
        ``signs`` of the ladder's input color every piece: the face right
        of dart d has the merged face's color iff the sign of d's crossing
        and d's slot parity both agree with the merged dart's, or both
        differ; the merged face is white. Each circle must join its black
        face to the merged face, so each black face belongs to one circle,
        no other cut rewires it, and each cut is oriented by its darts'
        positions in the intermediate's face walk. The circles are cut one
        piece (a run of blocks along the path) at a time, last piece first
        and in each piece along its circle of smallest edge pair. Each cut
        must disconnect its piece, each final piece must be exactly one
        block, so it is connected, and one walk of each final piece gives
        the Euler test and its genus; the genera must sum to one less than
        the piece's. Returns the final pieces, as (crossings, dart mask,
        largest label), and the attaching record of each cut.
        """
        g = self.genus(walk)
        inter = self.walk(walk.crossings, walk.mask)
        blocks = self.blocks(inter)
        if len(blocks) > 1:
            block, alpha, base = self.block, self.alpha, self.block[blocks[0][0]]
            pairs = self.face_pairs(inter)
            links = ((block[d >> 2] - base, block[alpha[d] >> 2] - base) for ds in pairs.values() for d in ds)
            if len(_crossing_classes(len(blocks), links)) > 1:
                raise DiagramError("cutting-arc surgery of a prime diagram must stay connected")
        inter.check_planar("the intermediate diagram")
        (na, nb), (ia, ib) = self.circles(walk), self.circles(inter)
        if ia != na + 1:
            raise DiagramError("cutting-arc surgery must split the all-A circle")
        if ib != nb + 1:
            raise DiagramError("cutting-arc surgery must split the all-B circle")
        if self.genus(inter) != g - 1:
            raise DiagramError("cutting-arc surgery must lower the genus by one")
        blocks, circles = self.circle_path(inter, blocks)
        if not circles:
            return [(walk.crossings, walk.mask, top)], []
        face = self.face
        merged_face = face[merged] - inter.base
        cuts = []
        for _, faces, darts in circles:
            # Of each edge's two darts, the one whose face is black.
            da, db = (
                d if (signs[d >> 2] == signs[merged >> 2]) == bool((d ^ merged) & 1) else a for d, a in darts
            )
            black = face[da] - inter.base
            if face[db] - inter.base != black or faces != (min(black, merged_face), max(black, merged_face)):
                raise DiagramError("composite circle edges not found on its black face")
            cuts.append((da, db) if self.position(inter, da) < self.position(inter, db) else (db, da))
        # prefix[j + 1] holds blocks 0..j: one side of the circle after block j.
        masks = [_dart_mask(b) for b in blocks]
        prefix = list(accumulate(masks, or_, initial=0))
        finals = []
        attachings = []
        pending = [(walk.mask, top, 0, len(blocks) - 1)]
        while pending:
            piece, piece_top, lo, hi = pending.pop()
            if lo == hi:
                if piece != masks[lo]:
                    raise DiagramError("a split piece is not one block of the intermediate")
                finals.append((blocks[lo], piece, piece_top))
                continue
            j = min(range(lo, hi), key=lambda j: circles[j][0])
            att, parts = self.cut(piece, prefix[j + 1], piece_top, *cuts[j])
            attachings.append(att)
            for part, part_top in parts:
                pending.append((part, part_top, lo, j) if part & prefix[j + 1] else (part, part_top, j + 1, hi))
        total = sum(self.genera([crossings for crossings, _, _ in finals]))
        if total != g - 1:
            raise DiagramError(f"component genera sum to {total}, expected {g - 1}")
        return finals, attachings

    def factor_rung(self, walk: _Walk, top: int) -> tuple[AttachingEdge, list[tuple[list[int], int, int]]]:
        """Split a composite piece along its circle of smallest edge pair,
        surgering inside the circle's face of smaller id, as
        ``composite_circles(d)[0]`` of the piece's diagram d names it.
        Deleting the circle's two edges must leave two blocks, the sides;
        each part is walked and must pass V - E + F = 2. Returns the
        attaching record and the two parts, as (crossings, dart mask,
        largest label), the one holding the piece's smallest crossing
        first."""
        labels, alpha, face = self.labels, self.alpha, self.face
        # Each face pair's labels ascend, so its first two are its
        # smallest edge pair.
        faces, ds = min(self.face_pairs(walk).items(), key=lambda x: (labels[x[1][0]], labels[x[1][1]]))
        darts = [x for d in ds[:2] for x in (d, alpha[d])]
        sides = self.blocks(walk, set(darts))
        u1, u2 = sorted((d for d in darts if face[d] - walk.base == faces[0]), key=lambda d: self.position(walk, d))
        att, parts = self.cut(walk.mask, _dart_mask(sides[0]), top, u1, u2)
        if len(sides) != 2:
            raise DiagramError("a factor of a composite diagram is disconnected")
        out = []
        for crossings, (mask, part_top) in zip(sides, parts):
            self.walk(crossings, mask).check_planar("a factor")
            out.append((crossings, mask, part_top))
        return att, out

    def output(self, pieces: list[tuple[list[int], int, int]]) -> list[tuple[PlanarDiagram, list[int], int, int]]:
        """Each piece with its diagram, built from its rows without
        ``validate``; the diagram's own ``alpha`` checks that each of its
        labels occurs exactly twice."""
        out = []
        for crossings, mask, top in pieces:
            d = PlanarDiagram(self.rows(mask))
            d.alpha  # every label of the piece exactly twice, by its own pairing
            out.append((d, crossings, mask, top))
        return out


def split_step(diagram: PlanarDiagram) -> SplitStep:
    """Reduce the genus by one and split off prime factors.

    The intermediate diagram (after the cutting-arc surgery, arc taken in
    a black face) has concentric composite circles; surgering along the
    black arc of each leaves prime components whose genera sum to one less
    than the input genus. All of that is asserted, not assumed.

    The step is the ladder's cut rung (``_DartTable.surger_rung`` and
    ``split_rung``) on a dart table of the input, colored by the input's
    checkerboard signs. Every record is written in the numbering of the
    piece it cuts. The intermediate is built from the table's rows once
    the rung's checks have passed, and validated; the components are
    built without ``validate``.
    """
    _require_surgery_input(diagram)
    table = _DartTable(diagram)
    walk = table.walk(range(diagram.n), table.everything)
    top = max(diagram.edge_labels)
    arc, attaching, merged = table.surger_rung(walk, top)
    rows = table.rows(table.everything)
    finals, attachings = table.split_rung(walk, top + 2, merged, diagram.signs)
    components = sorted((d for d, *_ in table.output(finals)), key=lambda d: d.crossings)
    intermediate = PlanarDiagram.from_rows(rows)
    return SplitStep(diagram, arc, intermediate, attaching, tuple(components), tuple(attachings))


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


def reduce_ladder(diagram: PlanarDiagram) -> ReductionLadder:
    """Iterate genus-reduction splits until every component is alternating.

    For a prime connected input the number of cutting-arc steps equals the
    Turaev genus.

    Every rung runs on one dart table of the input. A rung is a piece and
    its largest label; its walk (alternation, face pairs, face walks, and
    for a cut its circles) was made when the rung before it checked the
    piece, and only the input is walked afresh. An alternating piece is a
    terminal, a composite one is factored along its circle of smallest
    edge pair (``_DartTable.factor_rung``), and a prime one is cut along
    its outermost bigon arc and split (``surger_rung``, ``split_rung``).
    The input's checkerboard signs are computed once: a surgery keeps the
    color of every corner. The diagrams of the steps and terminals are
    built from the table's rows without ``validate``.
    """
    if not diagram.is_connected:
        raise DiagramError("the reduction ladder starts from a connected diagram")
    table = _DartTable(diagram)
    crossings = range(diagram.n)
    table.walk(crossings, table.everything).check_planar("the input")
    signs = diagram.signs
    steps: list[LadderStep] = []
    terminals: list[PlanarDiagram] = []
    pending = [(diagram, crossings, table.everything, max(diagram.edge_labels))]
    while pending:
        cur, crossings, mask, top = pending.pop()
        walk = table.walk(crossings, mask)
        if not walk.spots:
            terminals.append(cur)
            continue
        if table.face_pairs(walk):
            att, parts = table.factor_rung(walk, top)
            pieces = table.output(parts)
            steps.append(LadderStep("factor", cur, None, (att,), tuple(d for d, *_ in pieces)))
            pending.extend(pieces)
            continue
        arc, attaching, merged = table.surger_rung(walk, top)
        finals, attachings = table.split_rung(walk, top + 2, merged, signs)
        pieces = sorted(table.output(finals), key=lambda p: p[0].crossings)
        results = tuple(d for d, *_ in pieces)
        steps.append(LadderStep("cut", cur, arc, (attaching,) + tuple(attachings), results))
        pending.extend(pieces)
    terminals.sort(key=lambda d: d.crossings)
    return ReductionLadder(diagram, tuple(steps), tuple(terminals))
