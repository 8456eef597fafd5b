# -*- coding: utf-8 -*-
"""Link diagrams on closed orientable surfaces via rotation systems.

A surface diagram is a rotation system like a planar one (the shared
``pdcore.RotationSystem``) but drops the planarity invariant; the faces
traced from the rotation system are the complementary discs of a
cellular embedding and the genus is (2 - V + E - F) / 2.

Simple loops avoiding the crossings correspond to cycles in the dual
graph (faces as nodes, one dual edge per diagram edge); their number of
intersections with the diagram is the cycle length, and their class in
first homology with Z/2 coefficients is the crossed-edge vector modulo
the span of the vertex coboundaries. On a surface produced as a spanning
state surface of a prime non-alternating planar diagram, the genus
reduction arc guarantees a homologically nontrivial loop meeting the
diagram exactly twice, so an alternating cellular diagram without one
cannot arise that way.
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
    is_alternating,
    read_rows,
)
from .states import TuraevCellComplex


@dataclass(frozen=True)
class SurfaceDiagram(RotationSystem):
    """A diagram cellularly embedded in a closed orientable surface.

    Besides the rotation-system facts it caches the edge index and the
    vertex coboundary span that every mod-2 homology test reads.
    """

    @staticmethod
    def from_rows(rows) -> "SurfaceDiagram":
        s = SurfaceDiagram(tuple(tuple(int(x) for x in row) for row in rows))
        s.validate()
        return s

    @staticmethod
    def from_planar(diagram: PlanarDiagram) -> "SurfaceDiagram":
        return SurfaceDiagram.from_rows(diagram.crossings)

    def validate(self) -> None:
        self._validate_graph(allow_disconnected=False)
        v, e, f = self.n, 2 * self.n, len(self.faces)
        if (2 - v + e - f) % 2:
            raise DiagramError("odd Euler defect; rotation system corrupted")

    @property
    def genus(self) -> int:
        return (2 - self.n + 2 * self.n - len(self.faces)) // 2

    @cached_property
    def edge_index(self) -> Mapping[int, int]:
        """label -> bit position of the edge in mod-2 chain vectors."""
        return MappingProxyType({lab: i for i, lab in enumerate(self.edge_labels)})

    @cached_property
    def vertex_span(self) -> "_Gf2Span":
        """Span of the vertex stars; dual cycles in it are null-homologous."""
        return _Gf2Span.of(self.chain_vector(row) for row in self.crossings)

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
    """Row-echelon basis of a span of bit vectors (ints), descending, as
    in Gaussian elimination."""

    rows: tuple[int, ...]

    @staticmethod
    def of(vectors: Iterable[int]) -> "_Gf2Span":
        span = _Gf2Span(())
        for vec in vectors:
            x = span.reduce(vec)
            if x:
                span = _Gf2Span(tuple(sorted(span.rows + (x,), reverse=True)))
        return span

    def reduce(self, vec: int) -> int:
        x = vec
        for r in self.rows:
            x = min(x, x ^ r)
        return x

    def __contains__(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    @property
    def rank(self) -> int:
        return len(self.rows)


def homology_rank_check(s: SurfaceDiagram) -> int:
    """dim H1(F; Z/2) computed from the cell structure; equals 2 * genus."""
    face_span = _Gf2Span.of(s.chain_vector(map(s.label, face.darts)) for face in s.faces)
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
    state surface of a prime non-alternating planar diagram.
    """
    if not is_alternating(s):
        raise Refused("surface diagram is not alternating")
    if s.genus == 0:
        return LoopReport(0, (), "not-applicable")
    span = s.vertex_span
    loops: list[DualLoop] = []
    # One face on both sides of an edge: a loop crossing it once.
    for lab, (d1, d2) in sorted(s.edge_darts.items()):
        f1, f2 = s.face_of_dart[d1], s.face_of_dart[d2]
        if f1 == f2:
            loops.append(DualLoop((lab,), (f1,), s.chain_vector((lab,)) not in span))
    # Two faces sharing two or more edges: loops crossing two of them.
    for faces, labs in s.face_pair_edges.items():
        for pair in combinations(labs, 2):
            loops.append(DualLoop(pair, faces, s.chain_vector(pair) not in span))
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
    null-homologous. On the sphere the homology condition is automatic and
    this is the usual isthmus test.
    """
    for c, row in enumerate(s.crossings):
        for k in (0, 1):
            if s.face_at_corner(c, k) != s.face_at_corner(c, k + 2):
                continue
            for side in ((row[(k + 1) % 4], row[(k + 2) % 4]), (row[k], row[(k + 3) % 4])):
                if s.chain_vector(side) in s.vertex_span:
                    return False
    return True


def hayashi_complexity(s: SurfaceDiagram) -> HayashiResult:
    """Fewest intersections of a non-separating simple loop with the diagram.

    A simple loop avoiding the crossings is a simple dual cycle, meeting
    the diagram once per dual edge; it is non-separating when its mod-2
    class is nonzero, i.e. its crossed edges lie outside the vertex span.
    At genus 1 that is the same as essential; at higher genus a shorter
    separating essential loop is not counted. Non-separating cycles obey
    the 3-path condition, so the shortest is the fundamental cycle of a
    non-tree edge in a breadth-first tree rooted on the cycle (Erickson &
    Har-Peled 2004; Cabello & Mohar 2007): one search per root face gives
    the exact minimum.
    """
    if s.genus < 1:
        raise Refused("complexity is defined for positive-genus surfaces")
    if not is_alternating(s):
        raise Refused("surface diagram is not alternating")
    if not is_reduced(s):
        raise Refused("surface diagram is not reduced")
    homology_rank_check(s)
    nf = len(s.faces)
    span = s.vertex_span
    # Dual multigraph: faces as nodes, each edge carrying its chain vector;
    # an edge with one face on both sides is a loop of length 1.
    best = nf + 1  # longer than any simple dual cycle
    examined = 0
    dual_edges: list[tuple[int, int, int]] = []
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(nf)]
    for lab, (d1, d2) in sorted(s.edge_darts.items()):
        f1, f2 = s.face_of_dart[d1], s.face_of_dart[d2]
        edge_vec = s.chain_vector((lab,))
        if f1 == f2:
            examined += 1
            if edge_vec not in span:
                best = 1
        else:
            dual_edges.append((f1, f2, edge_vec))
            adjacency[f1].append((f2, edge_vec))
            adjacency[f2].append((f1, edge_vec))
    for root in range(nf):
        if best <= 2:
            break
        depth, path_vec = {root: 0}, {root: 0}
        queue = [root]
        for node in queue:
            for nxt, edge_vec in adjacency[node]:
                if nxt not in depth:
                    depth[nxt] = depth[node] + 1
                    path_vec[nxt] = path_vec[node] ^ edge_vec
                    queue.append(nxt)
        # Each non-tree edge closes one cycle through the root; a tree edge
        # closes none and its class comes out zero.
        for f1, f2, edge_vec in dual_edges:
            length = depth[f1] + depth[f2] + 1
            cycle_vec = path_vec[f1] ^ path_vec[f2] ^ edge_vec
            if length < best and cycle_vec:
                examined += 1
                if cycle_vec not in span:
                    best = length
    return HayashiResult(best, examined)


# -- re-expressing a state surface complex as a surface diagram ---------------


def from_turaev_complex(complex_: TuraevCellComplex) -> SurfaceDiagram:
    """The diagram on its spanning state surface, as a rotation system.

    The oriented 2-cell walks define the face permutation; composing with
    the edge involution gives the rotation at each crossing. Over/under is
    reassigned per crossing so that every edge alternates, which the
    surface always admits.
    """
    diagram = complex_.diagram
    nd = diagram.n_darts
    alpha = diagram.alpha
    phi = [-1] * nd
    for cell_index in range(len(complex_.cells)):
        walk = complex_.oriented_walk(cell_index)
        for i, d in enumerate(walk):
            nxt = walk[(i + 1) % len(walk)]
            if phi[d] != -1:
                raise DiagramError("cell walks overlap; orientation witness invalid")
            phi[d] = nxt
    if any(p < 0 for p in phi):
        raise DiagramError("cell walks do not cover every dart")
    rot = [phi[alpha[d]] for d in range(nd)]
    # Group darts into rotation cycles per crossing; they must be 4-cycles
    # alternating between the two strands of the crossing.
    new_rows: list[list[int]] = []
    order: list[list[int]] = []
    for c in range(diagram.n):
        d0 = 4 * c
        cycle = [d0]
        while True:
            nxt = rot[cycle[-1]]
            if nxt == d0:
                break
            cycle.append(nxt)
            if len(cycle) > 4:
                raise DiagramError("rotation orbit exceeds the crossing valence")
        if len(cycle) != 4 or any(d >> 2 != c for d in cycle):
            raise DiagramError("rotation orbits do not match the crossings")
        if (cycle[0] & 1) != (cycle[2] & 1) or (cycle[1] & 1) != (cycle[3] & 1):
            raise DiagramError("strands do not interleave around a crossing")
        order.append(cycle)
    # Choose per crossing which strand counts as under so that every edge
    # alternates on the surface; propagate the parity constraints.
    flip: list[int | None] = [None] * diagram.n
    # under_parity[c] = parity bit (dart & 1) of the strand taken as under
    # when flip[c] == 0.
    constraints: list[list[tuple[int, int]]] = [[] for _ in range(diagram.n)]
    pos_in_cycle = {}
    for c, cycle in enumerate(order):
        for k, d in enumerate(cycle):
            pos_in_cycle[d] = k
    for d1 in range(nd):
        d2 = alpha[d1]
        if d1 > d2:
            continue
        c1, c2 = d1 >> 2, d2 >> 2
        # End is "under with flip 0" iff its cycle position is even.
        p1 = pos_in_cycle[d1] & 1
        p2 = pos_in_cycle[d2] & 1
        # Alternation requires underness to differ: flip1 ^ flip2 == p1 ^ p2 ^ 1.
        constraints[c1].append((c2, p1 ^ p2 ^ 1))
        constraints[c2].append((c1, p1 ^ p2 ^ 1))
    flip[0] = 0
    stack = [0]
    while stack:
        c = stack.pop()
        for c2, want in constraints[c]:
            target = flip[c] ^ want
            if flip[c2] is None:
                flip[c2] = target
                stack.append(c2)
            elif flip[c2] != target:
                raise DiagramError("surface diagram cannot be made alternating")
    for c, cycle in enumerate(order):
        shift = flip[c] or 0
        arranged = cycle[shift:] + cycle[:shift]
        new_rows.append([diagram.label(d) for d in arranged])
    out = SurfaceDiagram.from_rows(new_rows)
    if out.genus != complex_.genus:
        raise DiagramError("surface genus disagrees with the cell complex")
    if not is_alternating(out):
        raise DiagramError("re-expressed diagram is not alternating")
    return out
