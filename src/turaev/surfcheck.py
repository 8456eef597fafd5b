# -*- coding: utf-8 -*-
"""Link diagrams on closed orientable surfaces via rotation systems.

A surface diagram is a rotation system like a planar one (the shared
``pdcore.RotationSystem``) but drops the planarity invariant; the faces
traced from the rotation system are the complementary discs of a
cellular embedding and the genus is (2 - V + E - F) / 2.

Simple loops avoiding the crossings correspond to cycles in the dual
graph (faces as nodes, one dual edge per diagram edge); their number of
intersections with the diagram is the cycle length. Their class in first
homology with Z/2 coefficients is read from per-edge signatures: one
tree-cotree split gives 2g primal cycles forming a homology basis, an
edge's signature records which of them pass through it, and a dual cycle
is null-homologous exactly when the signatures of the edges it crosses
XOR to 0 (Eppstein, SODA 2003; Erickson & Whittlesey, SODA 2005). The
test holds for dual cycles only, and every caller passes one. The
Gaussian span of the vertex coboundaries stays as the independent
homology-rank check. On a surface produced as a spanning
state surface of a prime non-alternating planar diagram, the genus
reduction arc guarantees a homologically nontrivial loop meeting the
diagram exactly twice, so an alternating cellular diagram without one
cannot arise that way.

That state surface is the Turaev surface (Dasbach, Futer, Kalfagianni,
Lin & Stoltzfus, "The Jones polynomial and graphs on surfaces", JCTB
2008): the diagram's 4-valent graph cellularly embedded with the all-A
and all-B circles as its faces. ``turaev_surface`` writes it from the
crossing signs alone. Its rotation is the planar one at the crossings of
one checkerboard sign and the reversed one at the others. A face walk
then turns, at each crossing, the way an all-A or an all-B circle turns,
chosen by slot parity XOR sign; an alternating edge joins crossings of
equal sign and a non-alternating edge crossings of opposite sign, so the
choice holds along the whole walk, and every face is one state circle.
Turning by one slot the rows of the crossings of one sign (those signed
unlike crossing 0) swaps over and under there and makes every edge
alternate, by the same parity count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .pdcore import (
    DiagramError,
    ParseError,
    PlanarDiagram,
    Refused,
    RotationSystem,
    _union_find,
    is_alternating,
    read_rows,
)


@dataclass(frozen=True)
class SurfaceDiagram(RotationSystem):
    """A diagram cellularly embedded in a closed orientable surface.

    Besides the rotation-system facts it caches the edge signatures that
    every mod-2 homology test of a loop reads, and the edge index and
    vertex coboundary span of the homology-rank check.
    """

    @staticmethod
    def from_rows(rows) -> "SurfaceDiagram":
        s = SurfaceDiagram(tuple(tuple(map(int, row)) for row in rows))
        s.validate()
        return s

    @staticmethod
    def from_planar(diagram: PlanarDiagram) -> "SurfaceDiagram":
        return SurfaceDiagram.from_rows(diagram.crossings)

    def validate(self) -> None:
        self._validate_graph(allow_disconnected=False)
        v, e, f = self.n, 2 * self.n, len(self._walk.faces)
        if (2 - v + e - f) % 2:
            raise DiagramError("odd Euler defect; rotation system corrupted")

    @property
    def genus(self) -> int:
        return (2 - self.n + 2 * self.n - len(self._walk.faces)) // 2

    @cached_property
    def edge_index(self) -> Mapping[int, int]:
        """label -> bit position of the edge in mod-2 chain vectors."""
        return MappingProxyType({lab: i for i, lab in enumerate(self.edge_labels)})

    @cached_property
    def vertex_span(self) -> "_Gf2Span":
        """Span of the vertex stars; dual cycles in it are null-homologous."""
        return _Gf2Span.of(self.chain_vector(row) for row in self.crossings)

    @cached_property
    def edge_signature(self) -> Mapping[int, int]:
        """label -> 2g-bit int: bit k set when the edge lies on the k-th
        basis cycle of a tree-cotree split.

        A breadth-first tree T spans the crossings and a spanning tree of
        the dual graph takes the edges outside T it can; each of the 2g
        leftover edges closes one primal cycle with its path in T, and
        these cycles form a basis of H1(F; Z/2). A dual cycle is
        null-homologous iff its crossed edges' signatures XOR to 0, since
        it meets each basis cycle in an even number of edges exactly
        then. The test means nothing for an edge set that is not a dual
        cycle.
        """
        alpha, labels, n = self.alpha, self.flat_labels, self.n
        up = [-1] * n  # the dart from the tree parent into each crossing
        up[0] = 0  # the root: any non-negative mark
        order = [0]
        for c in order:
            for d in range(4 * c, 4 * c + 4):
                c2 = alpha[d] >> 2
                if up[c2] < 0:
                    up[c2] = d
                    order.append(c2)
        if len(order) != n:
            raise DiagramError("spanning tree misses a crossing")
        tree = {labels[up[c]] for c in order[1:]}
        fod = self.face_of_dart
        parent, find = _union_find(len(self.faces))
        signature = dict.fromkeys(self.edge_labels, 0)
        # A leftover edge's bit marks both its ends; a tree edge lies on
        # the cycle when exactly one end is below it, so its signature is
        # the XOR of the marks in its subtree.
        marks = [0] * n
        bit = 1
        for lab, (d1, d2) in self.edge_darts.items():
            if lab in tree:
                continue
            f1, f2 = find(fod[d1]), find(fod[d2])
            if f1 != f2:
                parent[f1] = f2
                continue
            signature[lab] = bit
            marks[d1 >> 2] ^= bit
            marks[d2 >> 2] ^= bit
            bit <<= 1
        if bit != 1 << (2 * self.genus):
            raise DiagramError(
                f"tree-cotree split leaves {bit.bit_length() - 1} edges, not twice the genus {self.genus}"
            )
        for c in reversed(order[1:]):
            d = up[c]
            signature[labels[d]] = marks[c]
            marks[d >> 2] ^= marks[c]
        return MappingProxyType(signature)

    def chain_vector(self, labels: Iterable[int]) -> int:
        """Mod-2 chain vector of the edges, a label listed twice cancelling."""
        vec = 0
        for lab in labels:
            vec ^= 1 << self.edge_index[lab]
        return vec

    def to_pd_text(self) -> str:
        return "genus-free: true\n" + " ".join("X[%d,%d,%d,%d]" % row for row in self.crossings)


def parse_surface(text: str) -> SurfaceDiagram:
    """Parse PD text with an optional ``genus-free: true`` header line.

    The header disables the planarity requirement; the rotation system is
    read as a cellular embedding in the surface its faces determine.
    """
    stripped = text.strip()
    if stripped.lower().startswith("genus-free:"):
        first, _, rest = stripped.partition("\n")
        if first.split(":", 1)[1].strip().lower() != "true":
            raise ParseError("genus-free header must be 'true'")
        stripped = rest
    return SurfaceDiagram.from_rows(read_rows(stripped))


# -- mod-2 homology of the dual complex --------------------------------------


@dataclass(frozen=True)
class _Gf2Span:
    """Echelon basis of a span of bit vectors (ints), as in Gaussian
    elimination: each row keyed by its leading bit's ``bit_length``."""

    rows: Mapping[int, int]

    @staticmethod
    def of(vectors: Iterable[int]) -> "_Gf2Span":
        rows: dict[int, int] = {}
        span = _Gf2Span(MappingProxyType(rows))
        for vec in vectors:
            x = span.reduce(vec)
            if x:
                rows[x.bit_length()] = x
        return span

    def reduce(self, vec: int) -> int:
        """``vec`` less rows until its leading bit leads no row; 0 iff
        ``vec`` lies in the span."""
        rows = self.rows
        x = vec
        while x:
            r = rows.get(x.bit_length())
            if r is None:
                break
            x ^= r
        return x

    def __contains__(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    @property
    def rank(self) -> int:
        return len(self.rows)


def homology_rank_check(s: SurfaceDiagram) -> int:
    """dim H1(F; Z/2) computed from the cell structure; equals 2 * genus."""
    face_span = _Gf2Span.of(s.chain_vector(map(s.label, face)) for face in s.faces)
    dim = len(s.edge_index) - s.vertex_span.rank - face_span.rank
    if dim != 2 * s.genus:
        raise DiagramError(f"homology dimension {dim} disagrees with genus {s.genus}")
    return dim


@dataclass(frozen=True)
class DualLoop:
    """A simple loop avoiding crossings, as the cycle of edges it crosses
    and the faces it passes through."""

    edges: tuple[int, ...]
    face_path: tuple[int, ...]
    nontrivial: bool

    @property
    def intersections(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class LoopReport:
    surface_genus: int
    loops: tuple[DualLoop, ...]
    verdict: str  # "obstructed" | "loop-found" | "not-applicable"

    @property
    def minimum_intersections(self) -> int | None:
        vals = [l.intersections for l in self.loops if l.nontrivial]
        return min(vals) if vals else None

    def to_json_dict(self) -> dict:
        return {
            "genus": self.surface_genus,
            "verdict": self.verdict,
            "minIntersections": self.minimum_intersections,
            "loops": [
                {
                    "edges": list(l.edges),
                    "faces": list(l.face_path),
                    "nontrivial": l.nontrivial,
                    "intersections": l.intersections,
                }
                for l in self.loops
            ],
        }


def two_intersection_loops(s: SurfaceDiagram) -> LoopReport:
    """Loops meeting the diagram at most twice, with their homology.

    The verdict is "obstructed" when no homologically nontrivial loop
    meets the diagram exactly twice: such a surface diagram cannot be the
    state surface of a prime non-alternating planar diagram. Each loop is
    a dual cycle, so its class is the XOR of its edges' signatures.
    """
    if not is_alternating(s):
        raise Refused("surface diagram is not alternating")
    if s.genus == 0:
        return LoopReport(0, (), "not-applicable")
    sig = s.edge_signature
    loops: list[DualLoop] = []
    # One face on both sides of an edge: a loop crossing it once.
    for lab, (d1, d2) in sorted(s.edge_darts.items()):
        f1, f2 = s.face_of_dart[d1], s.face_of_dart[d2]
        if f1 == f2:
            loops.append(DualLoop((lab,), (f1,), sig[lab] != 0))
    # Two faces sharing two or more edges: loops crossing two of them.
    for faces, labs in s.face_pair_edges.items():
        for a, b in combinations(labs, 2):
            loops.append(DualLoop((a, b), faces, sig[a] != sig[b]))
    found = any(l.nontrivial and l.intersections == 2 for l in loops)
    return LoopReport(s.genus, tuple(loops), "loop-found" if found else "obstructed")


@dataclass(frozen=True)
class HayashiResult:
    value: int
    examined: int
    certified = True  # the fundamental-cycle search is exact

    def to_json_dict(self) -> dict:
        return {
            "complexity": self.value,
            "certified": self.certified,
            "marker": "exact",
            "loopsExamined": self.examined,
        }


def is_reduced(s: SurfaceDiagram) -> bool:
    """No nugatory crossing.

    A crossing is nugatory when a loop meeting the diagram only there
    bounds a disc. Combinatorially: one face spans two opposite corners,
    and the loop through them, pushed off the crossing to either side, is
    null-homologous. Each pushed-off side crosses the two edges between
    the corners, a dual cycle, so it is null-homologous when their
    signatures agree. On the sphere every signature is 0 and this is the
    usual isthmus test.
    """
    sig = s.edge_signature
    for c, row in enumerate(s.crossings):
        for k in (0, 1):
            if s.face_at_corner(c, k) != s.face_at_corner(c, k + 2):
                continue
            for a, b in ((row[(k + 1) % 4], row[(k + 2) % 4]), (row[k], row[(k + 3) % 4])):
                if sig[a] == sig[b]:
                    return False
    return True


def hayashi_complexity(s: SurfaceDiagram) -> HayashiResult:
    """Fewest intersections of a non-separating simple loop with the diagram.

    A simple loop avoiding the crossings is a simple dual cycle, meeting
    the diagram once per dual edge; it is non-separating when its mod-2
    class is nonzero, i.e. its crossed edges' signatures XOR to nonzero.
    At genus 1 that is the same as essential; at higher genus a shorter
    separating essential loop is not counted. Non-separating cycles obey
    the 3-path condition, so the shortest is the fundamental cycle of a
    non-tree edge in a breadth-first tree rooted on the cycle (Erickson &
    Har-Peled 2004; Cabello & Mohar 2007): one search per root face gives
    the exact minimum. Each face carries the XOR of the signatures along
    its tree path, so a fundamental cycle's class costs two XORs.
    """
    if s.genus < 1:
        raise Refused("complexity is defined for positive-genus surfaces")
    if not is_alternating(s):
        raise Refused("surface diagram is not alternating")
    if not is_reduced(s):
        raise Refused("surface diagram is not reduced")
    homology_rank_check(s)
    nf = len(s.faces)
    sig = s.edge_signature
    # Dual multigraph: faces as nodes, each edge carrying its signature;
    # an edge with one face on both sides is a loop of length 1.
    best = nf + 1  # longer than any simple dual cycle
    examined = 0
    dual_edges: list[tuple[int, int, int]] = []
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(nf)]
    for lab, (d1, d2) in sorted(s.edge_darts.items()):
        f1, f2 = s.face_of_dart[d1], s.face_of_dart[d2]
        if f1 == f2:
            examined += 1
            if sig[lab]:
                best = 1
        else:
            adjacency[f1].append((f2, len(dual_edges)))
            adjacency[f2].append((f1, len(dual_edges)))
            dual_edges.append((f1, f2, sig[lab]))
    for root in range(nf):
        if best <= 2:
            break
        depth, path_sig, up = [-1] * nf, [0] * nf, [-1] * nf
        depth[root] = 0
        queue = [root]
        for node in queue:
            for nxt, k in adjacency[node]:
                if depth[nxt] < 0:
                    depth[nxt] = depth[node] + 1
                    path_sig[nxt] = path_sig[node] ^ dual_edges[k][2]
                    up[nxt] = k
                    queue.append(nxt)
        # Each non-tree edge closes one cycle through the root; a tree edge,
        # the one by which a node was reached, closes none.
        for k, (f1, f2, edge_sig) in enumerate(dual_edges):
            length = depth[f1] + depth[f2] + 1
            if length < best and up[f1] != k and up[f2] != k:
                examined += 1
                if path_sig[f1] ^ path_sig[f2] ^ edge_sig:
                    best = length
    return HayashiResult(best, examined)


# -- the Turaev surface of a planar diagram ---------------------------------


def turaev_surface(diagram: PlanarDiagram) -> SurfaceDiagram:
    """The diagram on its Turaev surface, as an alternating rotation system
    with the diagram's edge labels.

    Written straight from the crossing signs, by the rule in the module
    docstring. Of the two orientations, the one written reverses the
    rotation at the crossings signed like the lowest-numbered crossing on
    the all-A circle through the smallest edge label (so at every crossing
    of an alternating diagram), and crossing 0 keeps its under-strand.
    """
    if not diagram.is_connected:
        raise DiagramError("the Turaev surface is built for connected diagrams")
    flip = [0 if diagram.signs[c] == 1 else 1 for c in range(diagram.n)]
    a_ids = diagram.edge_circles[0]
    first = min(d1 for lab, (d1, _) in diagram.edge_darts.items() if a_ids[lab] == 0) >> 2
    rows = []
    for c, row in enumerate(diagram.crossings):
        order = (0, 3, 2, 1) if flip[c] == flip[first] else (0, 1, 2, 3)
        turn = flip[c] ^ flip[0]
        rows.append(tuple(row[slot] for slot in order[turn:] + order[:turn]))
    out = SurfaceDiagram.from_rows(rows)
    if out.genus != diagram.genus:
        raise DiagramError(f"surface genus {out.genus} disagrees with the Turaev genus {diagram.genus}")
    if not is_alternating(out):
        raise DiagramError("Turaev surface diagram is not alternating")
    return out
