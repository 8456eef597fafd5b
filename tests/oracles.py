"""Independent oracles the tests check the library against.

These deliberately re-derive results through different algorithms: state
circles by union-find instead of orbit tracing, adequacy by brute-force
corner incidence, face counts by the Euler formula, alternation straight
from slot parity of the raw PD rows. The state-circle tracer
(``state_circles``) and a loop crossing's surgery arc (``core_arc``) are
references the library has no use for: it reads state circles off its
orbit walk without building them.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def groups(self) -> int:
        return len({self.find(x) for x in range(len(self.parent))})


def _alpha(rows):
    where = {}
    alpha = {}
    for c, row in enumerate(rows):
        for s, lab in enumerate(row):
            d = 4 * c + s
            if lab in where:
                alpha[d] = where[lab]
                alpha[where[lab]] = d
            else:
                where[lab] = d
    return alpha


def circle_count_unionfind(rows, state) -> int:
    """Number of state circles via union-find over darts.

    Each edge joins its two darts; each smoothing joins the darts of the
    paired slots. Every circle is one component containing both traversal
    directions.
    """
    alpha = _alpha(rows)
    n = len(rows)
    uf = UnionFind(4 * n)
    for d, a in alpha.items():
        uf.union(d, a)
    for c in range(n):
        for s in range(4):
            mate = s ^ 1 if state[c] == "A" else s ^ 3
            uf.union(4 * c + s, 4 * c + mate)
    return uf.groups()


def circle_of_corner_bruteforce(rows, state):
    """Map (crossing, corner) -> circle via union-find components.

    The smoothing arc entering at slot s hugs the corner between s and its
    smoothing partner; circles are identified with component roots.
    """
    alpha = _alpha(rows)
    n = len(rows)
    uf = UnionFind(4 * n)
    for d, a in alpha.items():
        uf.union(d, a)
    for c in range(n):
        for s in range(4):
            mate = s ^ 1 if state[c] == "A" else s ^ 3
            uf.union(4 * c + s, 4 * c + mate)
    corner_root = {}
    for c in range(n):
        for s in range(4):
            mate = s ^ 1 if state[c] == "A" else s ^ 3
            if state[c] == "A":
                corner = s & 2
            else:
                corner = 1 if s in (1, 2) else 3
            corner_root[(c, corner)] = uf.find(4 * c + s)
    return corner_root


def adequacy_verdict_bruteforce(rows) -> tuple[tuple[int, ...], tuple[int, ...], str]:
    n = len(rows)
    amap = circle_of_corner_bruteforce(rows, "A" * n)
    bmap = circle_of_corner_bruteforce(rows, "B" * n)
    a_loops = tuple(c for c in range(n) if amap[(c, 0)] == amap[(c, 2)])
    b_loops = tuple(c for c in range(n) if bmap[(c, 1)] == bmap[(c, 3)])
    if not a_loops and not b_loops:
        verdict = "adequate"
    elif not a_loops:
        verdict = "A-semi-adequate"
    elif not b_loops:
        verdict = "B-semi-adequate"
    else:
        verdict = "inadequate-diagram"
    return a_loops, b_loops, verdict


def euler_face_count(rows) -> int:
    """F forced by the Euler formula for a connected sphere diagram."""
    return 2 - len(rows) + 2 * len(rows)


def alternation_from_text(rows) -> dict[int, bool]:
    slots: dict[int, list[int]] = {}
    for row in rows:
        for s, lab in enumerate(row):
            slots.setdefault(lab, []).append(s)
    return {lab: (ss[0] % 2) != (ss[1] % 2) for lab, ss in slots.items()}


def is_almost_alternating_by_switching(rows) -> bool:
    """Reference for ``moves.is_almost_alternating``: switch each crossing
    in turn (turn its row by one slot) and test every edge of the result."""
    for c, row in enumerate(rows):
        switched = list(rows)
        switched[c] = tuple(row[1:]) + tuple(row[:1])
        if all(alternation_from_text(switched).values()):
            return True
    return False


def brute_force_all_diagrams(n: int):
    """Every connected planar diagram with n crossings, via raw matchings.

    Exponential; usable for n <= 3. Returns a set of canonical encodings.
    """
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from turaev import pdcore

    darts = list(range(4 * n))
    found = set()

    def matchings(remaining):
        if not remaining:
            yield []
            return
        a = remaining[0]
        for k in range(1, len(remaining)):
            rest = remaining[1:k] + remaining[k + 1 :]
            for m in matchings(rest):
                yield [(a, remaining[k])] + m

    for m in matchings(darts):
        rows = [[0] * 4 for _ in range(n)]
        for lab, (a, b) in enumerate(m, start=1):
            rows[a >> 2][a & 3] = lab
            rows[b >> 2][b & 3] = lab
        try:
            d = pdcore.PlanarDiagram.from_rows(rows)
        except pdcore.DiagramError:
            continue
        found.add(pdcore.canonical_encoding(d))
    return found


def exhaustive_by_insertion(max_crossings: int):
    """Canonical rows of every connected diagram with 1..max_crossings
    crossings, grown one crossing at a time with the over/under choice made
    at each insertion.

    The reference for ``corpus.exhaustive``, which grows projections in
    their planar arrangements only and chooses the crossings at the end:
    here each insertion tries all 12 stub arrangements (6 cyclic orders,
    each in both slot rotations), keeps those ``PlanarDiagram.from_rows``
    accepts, and canonicalizes every survivor. Levels are sorted, as in
    the corpus.
    """
    from itertools import permutations

    from turaev import corpus
    from turaev.pdcore import DiagramError, PlanarDiagram, canonical_encoding

    orders = sorted({(0,) + rest for rest in permutations((1, 2, 3))})

    def arrangements(stubs):
        for order in orders:
            row = [stubs[i] for i in order]
            yield row
            yield row[1:] + row[:1]

    def children(rows):
        diagram = PlanarDiagram(rows)
        m = max(diagram.edge_labels)
        base = [list(row) for row in rows]
        cuts = [
            (face[i], face[j], (m + 1, m + 2, m + 3, m + 4))
            for face in diagram.faces
            for i in range(len(face))
            for j in range(i + 1, len(face))
            if diagram.label(face[i]) != diagram.label(face[j])
        ]
        cuts += [(d, None, (m + 1, m + 2, m + 3, m + 3)) for d, _ in diagram.edge_darts.values()]
        for u, v, stubs in cuts:
            new = [r[:] for r in base]
            for k, d in enumerate((u, v)):
                if d is not None:
                    a = diagram.alpha[d]
                    new[d >> 2][d & 3] = m + 1 + 2 * k
                    new[a >> 2][a & 3] = m + 2 + 2 * k
            for row in arrangements(stubs):
                try:
                    yield PlanarDiagram.from_rows(new + [row])
                except DiagramError:
                    pass

    out = []
    level = {canonical_encoding(d) for d in corpus.one_crossing_diagrams()}
    for n in range(1, max_crossings + 1):
        if n > 1:
            level = {
                canonical_encoding(child)
                for rows in level
                for child in children(rows)
            }
        out.extend(sorted(level))
    return out


def hayashi_by_dual_dfs(s) -> int | None:
    """Fewest edges of a simple dual cycle of ``s`` outside the vertex
    span, by depth-first search over every simple dual cycle.

    The reference for ``surfcheck.hayashi_complexity``, which reads the
    minimum off breadth-first fundamental cycles; exponential in the
    number of faces.
    """
    nf = len(s.faces)
    span = s.vertex_span
    # Dual multigraph: per face, (neighbor face, chain vector of the edge
    # crossed); the vectors grow with the labels, so sorting keeps label
    # order.
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(nf)]
    best: int | None = None
    for lab, (d1, d2) in sorted(s.edge_darts.items()):
        f1, f2 = s.face_of_dart[d1], s.face_of_dart[d2]
        edge_vec = s.chain_vector((lab,))
        if f1 == f2:
            if edge_vec not in span:
                best = 1 if best is None else min(best, 1)
        else:
            adjacency[f1].append((f2, edge_vec))
            adjacency[f2].append((f1, edge_vec))
    for a in adjacency:
        a.sort()

    # Simple cycles rooted at their smallest face, extended by DFS.
    def dfs(root: int, node: int, visited: set[int], vec: int, length: int) -> None:
        nonlocal best
        if best is not None and length >= best:
            return
        for nxt, edge_vec in adjacency[node]:
            if nxt == root and length >= 1:
                cycle_vec = vec ^ edge_vec
                if cycle_vec and cycle_vec not in span:
                    total = length + 1
                    if best is None or total < best:
                        best = total
            if nxt <= root or nxt in visited:
                continue
            if length + 1 >= nf:
                continue
            visited.add(nxt)
            dfs(root, nxt, visited, vec ^ edge_vec, length + 1)
            visited.remove(nxt)

    for root in range(nf):
        if best is not None and best <= 2:
            break
        dfs(root, root, {root}, 0, 0)
    return best


# -- the rotation-system core, label by label ---------------------------------
# The dict-of-lists pairing, the sigma face walk, the union-find components
# and the edge-circle counts that ``pdcore`` computed before it read every
# fact off the flat ``flat_labels`` and ``alpha`` arrays.


def alpha_by_label_lists(diagram):
    """The dart involution from a label -> darts list per label."""
    from turaev.pdcore import DiagramError

    where = {}
    for d in range(diagram.n_darts):
        where.setdefault(diagram.label(d), []).append(d)
    bad = sorted(lab for lab, ds in where.items() if len(ds) != 2)
    if bad:
        raise DiagramError(f"edge labels must occur exactly twice, violated by {bad}")
    a = [0] * diagram.n_darts
    for d1, d2 in where.values():
        a[d1], a[d2] = d2, d1
    return tuple(a)


def edge_darts_by_label(diagram):
    """label -> (smaller dart, larger dart), read dart by dart."""
    alpha = alpha_by_label_lists(diagram)
    return {diagram.label(d): (d, alpha[d]) for d in range(diagram.n_darts) if d < alpha[d]}


def alternation_by_label(diagram):
    """label -> whether the edge's two slots differ in parity."""
    return {lab: bool((d1 ^ d2) & 1) for lab, (d1, d2) in edge_darts_by_label(diagram).items()}


def faces_by_sigma_walk(diagram):
    """The faces as dart tuples, indexed by face id, and each dart's face
    id, from phi = sigma(alpha) orbits taken in order of their smallest
    dart."""
    from turaev.pdcore import sigma

    alpha = alpha_by_label_lists(diagram)
    seen = [False] * diagram.n_darts
    faces = []
    for start in range(diagram.n_darts):
        if seen[start]:
            continue
        walk = []
        d = start
        while not seen[d]:
            seen[d] = True
            walk.append(d)
            d = sigma(alpha[d])
        faces.append(tuple(walk))
    face_of_dart = [0] * diagram.n_darts
    for f, darts in enumerate(faces):
        for d in darts:
            face_of_dart[d] = f
    return tuple(faces), tuple(face_of_dart)


def components_by_union_find(diagram):
    """Crossing classes joined by every dart link, each ascending, sorted."""
    alpha = alpha_by_label_lists(diagram)
    uf = UnionFind(diagram.n)
    for d in range(diagram.n_darts):
        uf.union(d >> 2, alpha[d] >> 2)
    groups = {}
    for c in range(diagram.n):
        groups.setdefault(uf.find(c), []).append(c)
    return tuple(tuple(g) for g in sorted(groups.values()))


def face_pair_edges_by_faces(diagram):
    """(f1, f2) with f1 < f2 -> the ascending labels of the edges between
    those faces, for the pairs sharing two or more edges, in sorted order:
    each edge's two faces read off ``faces_by_sigma_walk``.

    The reference for ``RotationSystem.face_pair_edges``, which meets the
    pairs face by face along the faces of the diagram's walk."""
    _, face_of_dart = faces_by_sigma_walk(diagram)
    shared = {}
    for lab, (d1, d2) in edge_darts_by_label(diagram).items():
        f1, f2 = sorted((face_of_dart[d1], face_of_dart[d2]))
        if f1 != f2:
            shared.setdefault((f1, f2), []).append(lab)
    return {pair: tuple(sorted(labs)) for pair, labs in sorted(shared.items()) if len(labs) > 1}


def edge_circles_by_orbits(diagram):
    """Per smoothing mask 1 (all-A) and 3 (all-B): label -> id of the orbit
    of ``d -> alpha[d] ^ mask`` through the edge, ids in the order of the
    orbits' smallest labels, each orbit started at its smallest label. An
    orbit meets each of its edges once, and the reverse orbit of a circle
    meets the same edges.

    The reference for ``PlanarDiagram.edge_circles``, which numbers the
    circles of the diagram's walk by their least labels."""
    alpha = alpha_by_label_lists(diagram)
    labels = [diagram.label(d) for d in range(diagram.n_darts)]
    dart_of = dict(zip(labels, range(len(labels))))
    out = []
    for mask in (1, 3):
        ids = {}
        n_ids = 0
        for lab in sorted(dart_of):
            if lab in ids:
                continue
            start = d = dart_of[lab]
            while True:
                ids[labels[d]] = n_ids
                d = alpha[d] ^ mask
                if d == start:
                    break
            n_ids += 1
        out.append(ids)
    return out[0], out[1]


def circle_counts_by_edge_circles(diagram):
    """(|s_A|, |s_B|) as one more than the largest circle id the orbit
    numbering of ``edge_circles_by_orbits`` gives any edge label."""
    a_ids, b_ids = edge_circles_by_orbits(diagram)
    return max(a_ids.values()) + 1, max(b_ids.values()) + 1


def genus_by_edge_circles(diagram):
    na, nb = circle_counts_by_edge_circles(diagram)
    return (diagram.n + 2 - na - nb) // 2


def checkerboard_by_face_adjacency(diagram, anchor=None):
    """The checkerboard coloring with face ``anchor`` black (by default
    the face at corner 0 of crossing 0), by a search over the face
    adjacency sets, and the crossing signs read off two corners per
    crossing: +1 when the corners at slots (0,1) and (2,3) are black.

    The reference for ``PlanarDiagram.signs``, which propagates the signs
    over ``alpha`` by slot parity and reads the coloring off them."""
    from turaev.pdcore import BLACK, WHITE, DiagramError

    faces, face_of_dart = faces_by_sigma_walk(diagram)
    if anchor is None:
        anchor = face_of_dart[1]
    adjacency = [set() for _ in faces]
    for lab, (d1, d2) in edge_darts_by_label(diagram).items():
        f1, f2 = face_of_dart[d1], face_of_dart[d2]
        if f1 == f2:
            raise DiagramError(f"edge {lab} has the same face on both sides")
        adjacency[f1].add(f2)
        adjacency[f2].add(f1)
    colors = [None] * len(faces)
    colors[anchor] = BLACK
    stack = [anchor]
    while stack:
        f = stack.pop()
        want = WHITE if colors[f] == BLACK else BLACK
        for g in sorted(adjacency[f]):
            if colors[g] is None:
                colors[g] = want
                stack.append(g)
            elif colors[g] != want:
                raise DiagramError("face adjacency graph is not 2-colorable")
    if None in colors:
        raise DiagramError("coloring did not reach every face; diagram disconnected?")
    signs = {}
    for c in range(diagram.n):
        corner01, corner23 = colors[face_of_dart[4 * c + 1]], colors[face_of_dart[4 * c + 3]]
        if corner01 != corner23:
            raise DiagramError(f"opposite corners of crossing {c} disagree in color")
        signs[c] = 1 if corner01 == BLACK else -1
    return tuple(colors), signs


def validate_by_reference(diagram, *, planar=True, allow_disconnected=False):
    """The checks of ``validate`` in their order and with their messages,
    on the kernels above: the row widths, label multiplicity, connectivity,
    then the Euler test, per component for a planar diagram and the parity
    of the Euler defect for a surface diagram."""
    from turaev.pdcore import DiagramError

    if not diagram.crossings:
        raise DiagramError("diagram has no crossings")
    for row in diagram.crossings:
        if len(row) != 4:
            raise DiagramError(f"crossing {row!r} does not have 4 slots")
    alpha_by_label_lists(diagram)
    components = components_by_union_find(diagram)
    if not allow_disconnected and len(components) > 1:
        raise DiagramError("underlying 4-valent graph is disconnected")
    faces, _ = faces_by_sigma_walk(diagram)
    if not planar:
        if (2 - diagram.n + 2 * diagram.n - len(faces)) % 2:
            raise DiagramError("odd Euler defect; rotation system corrupted")
        return
    comp_of = {c: i for i, comp in enumerate(components) for c in comp}
    fcount = [0] * len(components)
    for f in faces:
        fcount[comp_of[f[0] >> 2]] += 1
    for i, comp in enumerate(components):
        chi = len(comp) - 2 * len(comp) + fcount[i]
        if chi != 2:
            raise DiagramError(f"rotation system is not planar: V-E+F = {chi} on component {i}")


def split_components(diagram):
    """Connected components as separate diagrams, each with its dart
    translation old dart -> new dart."""
    from turaev.pdcore import PlanarDiagram

    out = []
    for comp in diagram.components:
        index = {c: i for i, c in enumerate(comp)}
        sub = PlanarDiagram.from_rows([diagram.crossings[c] for c in comp])
        old_to_new = {4 * c + s: 4 * index[c] + s for c in comp for s in range(4)}
        out.append((sub, old_to_new))
    return out


def composite_circles_by_cut_pairs(diagram):
    """Composite circles by one union-find per edge pair of each face pair:
    the pair is kept when deleting its two edges leaves exactly two crossing
    classes.

    The reference for ``pdcore.composite_circles``, which takes every face
    pair's edge pair as composite and reads all sides off the blocks of
    the diagram's walk.
    """
    from itertools import combinations

    from turaev.pdcore import CompositeCircle

    out = []
    for faces, labs in face_pair_edges_by_faces(diagram).items():
        for e1, e2 in combinations(labs, 2):
            uf = UnionFind(diagram.n)
            for lab, (d1, d2) in diagram.edge_darts.items():
                if lab not in (e1, e2):
                    uf.union(d1 >> 2, d2 >> 2)
            groups: dict[int, list[int]] = {}
            for c in range(diagram.n):
                groups.setdefault(uf.find(c), []).append(c)
            if len(groups) == 2:
                side0, side1 = sorted(groups.values())
                out.append(CompositeCircle((e1, e2), faces, (tuple(side0), tuple(side1))))
    out.sort(key=lambda cc: cc.edges)
    return tuple(out)


def certify_concentric_by_search(circles):
    """The side chain of ``surgery.certify_concentric`` by trying all 2^k
    side choices in lexicographic order; exponential in the number of
    circles."""
    from itertools import product

    from turaev.pdcore import DiagramError

    k = len(circles)
    side_sets = [(frozenset(c.sides[0]), frozenset(c.sides[1])) for c in circles]
    for choice in product((0, 1), repeat=k):
        chosen = sorted((side_sets[i][choice[i]] for i in range(k)), key=len)
        if all(chosen[i] <= chosen[i + 1] for i in range(k - 1)):
            ordered = sorted(range(k), key=lambda i: len(side_sets[i][choice[i]]))
            return tuple(tuple(sorted(side_sets[i][choice[i]])) for i in ordered)
    raise DiagramError("composite circles are not concentric")


def surger_arc_by_rows(diagram, face, pos1, pos2):
    """``surgery.surger_arc`` by copying the PD rows and relabeling four
    slots, as the library did before it spliced a dart table.

    The darts at the two positions of the face walk are d1 and d2; the
    slots of alpha(d1) and d2 get the new label m + 1, those of d1 and
    alpha(d2) get m + 2, where m is the largest label. Returns the new rows
    and the attaching record as (new labels, (crossing, slot) of alpha(d1)
    and of alpha(d2)).
    """
    from turaev.pdcore import DiagramError

    faces, _ = faces_by_sigma_walk(diagram)
    alpha = alpha_by_label_lists(diagram)
    walk = faces[face]
    d1, d2 = walk[pos1], walk[pos2]
    if diagram.label(d1) == diagram.label(d2):
        raise DiagramError("arc endpoints lie on the same edge")
    a1, a2 = alpha[d1], alpha[d2]
    fx = max(max(row) for row in diagram.crossings) + 1
    fy = fx + 1
    rows = [list(row) for row in diagram.crossings]
    rows[a1 >> 2][a1 & 3] = fx
    rows[d2 >> 2][d2 & 3] = fx
    rows[d1 >> 2][d1 & 3] = fy
    rows[a2 >> 2][a2 & 3] = fy
    return [tuple(row) for row in rows], ((fx, fy), ((a1 >> 2, a1 & 3), (a2 >> 2, a2 & 3)))


def split_by_sequential_peel(intermediate, attaching):
    """Components and attaching records of ``surgery.split_step`` by
    peeling one composite circle at a time.

    Each piece is re-built as a diagram after every cut, its composite
    circles are recomputed, and the piece is re-coloured from the merged
    face of the cut; the circle of smallest edge pair is cut next, last
    piece first, until every piece is prime. ``attaching`` is the record
    of the cutting-arc surgery that made ``intermediate``.
    """
    from turaev.pdcore import BLACK, DiagramError, checkerboard, composite_circles
    from turaev.surgery import surger_arc

    def surger_composite(diagram, coloring, circle):
        f1, f2 = circle.faces
        face = f1 if coloring.color(f1) == BLACK else f2
        if coloring.color(face) != BLACK:
            raise DiagramError("composite circle has no black face")
        walk = diagram.faces[face]
        positions = [i for i, d in enumerate(walk) if diagram.label(d) in circle.edges]
        if len(positions) != 2:
            raise DiagramError("composite circle edges not found on its black face")
        result, att = surger_arc(diagram, face, positions[0], positions[1])
        if result.is_connected:
            raise DiagramError("surgery along a composite circle must disconnect")
        pieces = []
        for comp, old_to_new in split_components(result):
            anchor = next(
                comp.face_of_dart[old_to_new[4 * c + s]]
                for c, s in att.darts
                if 4 * c + s in old_to_new
            )
            pieces.append((comp, checkerboard(comp, black_face=anchor).swapped()))
        return pieces, att

    c, s = attaching.darts[0]
    coloring = checkerboard(intermediate, black_face=intermediate.face_of_dart[4 * c + s]).swapped()
    pending = [(intermediate, coloring)]
    finals = []
    attachings = []
    while pending:
        cur, col = pending.pop()
        circles = composite_circles(cur)
        if not circles:
            finals.append(cur)
            continue
        pieces, att = surger_composite(cur, col, circles[0])
        attachings.append(att)
        pending.extend(pieces)
    finals.sort(key=lambda d: d.crossings)
    return tuple(finals), tuple(attachings)


# The genus-two case labels as first catalogued: canonical junction
# structures observed for each family, keyed by their string under
# ``canonical_by_junction_orderings``.
_GENUS_TWO_TABLE = {
    "one-valence-4": {
        "[v2d:r0.0p0,r0.0p0,s0,s1][v4d:r0.1p0,r0.1p0,s1,r1.0p1,r1.0p1,r1.1p1,r1.1p1,s0]": 3,
        "[v4d:r0.0p1,r0.0p1,r0.1p1,r0.1p1,r1.0p1,r1.0p1,r1.1p1,r1.1p1]": 1,
    },
    "two-valence-3": {
        "[v3d:r0.0p0,r0.0p0,s0,r1.0p0,r1.0p0,s1][v3d:r0.1p0,r0.1p0,s1,r1.1p0,r1.1p0,s0]": 2,
        "[v3d:r0.0p0,r0.0p0,s0,s1,s2,s3][v3d:r0.1p0,r0.1p0,s3,s2,s1,s0]": 2,
        "[v3d:r0.0p1,r0.0p1,r1.0p1,r1.0p1,r2.0p1,r2.0p1][v3d:r0.1p1,r0.1p1,r2.1p1,r2.1p1,r1.1p1,r1.1p1]": 5,
        "[v3d:s0,s1,s2,s3,s4,s5][v3d:s0,s5,s4,s3,s2,s1]": 2,
    },
}


def canonical_by_junction_orderings(words, ribbons) -> str:
    """Canonical string of the junction structure.

    Minimizes over junction orderings, per-circle rotations, and a global
    reflection, renaming connections by first appearance. Ribbon parities
    ride along; each junction records its valence, half its legs, and
    whether it is a disc, that is has one boundary circle.

    The reference for ``tangles._canonical_junction_structure``, which
    walks from every root leg instead; the search is factorial in the
    number of junctions, and each circle's rotation is picked greedily.
    """
    from itertools import permutations

    parity = {r.id: r.parity for r in ribbons}

    def encode(order: tuple[int, ...], reflect: bool) -> str:
        # rename: (kind, ident) -> (tag, first end seen); a ribbon's two
        # ends are interchangeable, so the first one encountered is end 0.
        rename: dict[tuple[str, int], tuple[str, int]] = {}
        pieces = []
        for j in order:
            circle_words = [list(w) for w in words[j]]
            if reflect:
                circle_words = [list(reversed(w)) for w in circle_words]
            vertex_pieces = []
            for word in circle_words:
                best_piece = None
                best_state = None
                for rot in range(len(word)):
                    trial = dict(rename)
                    syms = []
                    for kind, ident, end in word[rot:] + word[:rot]:
                        key = (kind, ident)
                        if key not in trial:
                            tag = f"{kind}{sum(1 for k in trial if k[0] == kind)}"
                            trial[key] = (tag, end)
                        tag, first_end = trial[key]
                        if kind == "r":
                            syms.append(f"{tag}.{0 if end == first_end else 1}p{parity[ident]}")
                        else:
                            syms.append(tag)
                    piece = ",".join(syms)
                    if best_piece is None or piece < best_piece:
                        best_piece, best_state = piece, trial
                rename = best_state  # type: ignore[assignment]
                vertex_pieces.append(best_piece)
            valence = sum(map(len, words[j])) // 2
            disc = "d" if len(words[j]) == 1 else "a"
            pieces.append(f"[v{valence}{disc}:{'|'.join(sorted(vertex_pieces))}]")
        return "".join(pieces)

    best = None
    for order in permutations(range(len(words))):
        for reflect in (False, True):
            enc = encode(order, reflect)
            if best is None or enc < best:
                best = enc
    assert best is not None
    return best


def genus_two_case_by_table(diagram) -> int | None:
    """The genus-two case of a prime genus-two diagram by looking its
    canonical descriptor up in a table of catalogued structures; None for
    a structure outside the table.

    The reference for ``casetable.lookup_case``, which computes the label
    from the ribbon structure instead.
    """
    from turaev.tangles import contract_ribbons, decompose

    dec = decompose(diagram)
    descriptor = contract_ribbons(dec)
    if descriptor.non_simply_connected:
        return 4
    if descriptor.all_two_cycle:
        return None
    valences = descriptor.valences
    if set(valences) == {2}:
        return 8 if any(len(dec.neighbors(t.id)) >= 4 for t in dec.tangles) else 7
    if valences.count(4) == 1 and set(valences) <= {2, 4}:
        family = "one-valence-4"
    elif valences.count(3) == 2 and set(valences) <= {2, 3}:
        family = "two-valence-3"
    else:
        return None
    key = canonical_by_junction_orderings(descriptor.junction_words, descriptor.ribbons)
    return _GENUS_TWO_TABLE[family].get(key)


def _adjacent_in_circle(circle, pair) -> bool:
    k = len(circle)
    return any({circle[i], circle[(i + 1) % k]} == pair for i in range(k))


def _junction_pairing(dec):
    """Group channel edges into rotation-adjacent pairs per tangle pair.

    Returns a list of junctions (t1, t2, (label, label)); the two-tangle
    cycle contributes two junctions between the same tangles. None when no
    grouping consistent with the rotations exists.
    """
    diagram = dec.diagram
    by_pair = {}
    for ce in dec.channel_edges:
        a, b = sorted(ce.tangles)
        if a == b:
            return None
        by_pair.setdefault((a, b), []).append(ce.label)
    junctions = []
    for key, labs in sorted(by_pair.items()):
        if len(labs) == 2:
            for tid in key:
                circle = dec.tangles[tid].boundary
                legs = {d for d in circle if diagram.label(d) in labs}
                if not _adjacent_in_circle(circle, legs):
                    return None
            junctions.append((*key, (min(labs), max(labs))))
        elif len(labs) == 4 and len(by_pair) == 1:
            t1, t2 = key
            c1 = dec.tangles[t1].boundary
            c2 = dec.tangles[t2].boundary
            lab1 = [diagram.label(d) for d in c1]
            for shift in (0, 1):
                ja = {lab1[shift], lab1[(shift + 1) % 4]}
                jb = {lab1[(shift + 2) % 4], lab1[(shift + 3) % 4]}
                if _adjacent_in_circle(c2, {d for d in c2 if diagram.label(d) in ja}) and _adjacent_in_circle(
                    c2, {d for d in c2 if diagram.label(d) in jb}
                ):
                    junctions.append((t1, t2, tuple(sorted(ja))))
                    junctions.append((t1, t2, tuple(sorted(jb))))
                    break
            else:
                return None
        else:
            return None
    return junctions


def genus_one_cycle_by_junction_pairing(diagram):
    """(order, junctions, white_faces) of a cycle of alternating 2-tangles
    by pairing every tangle pair's channel edges into junctions and walking
    the junction map; raises Refused otherwise.

    The reference for ``tangles.classify_genus_one``, which follows one
    chain walk out of tangle 0 instead.
    """
    from turaev.pdcore import DiagramError, Refused, checkerboard, is_prime
    from turaev.tangles import _two_face_color_signature, decompose

    if not diagram.is_connected:
        raise DiagramError("classification requires a connected diagram")
    if not is_prime(diagram):
        raise Refused("composite diagram")
    dec = decompose(diagram)
    if dec.alternating:
        raise Refused("alternating diagram")
    for t in dec.tangles:
        if t.valence != 2:
            raise Refused(f"tangle {t.id} has valence {t.valence}, not 2")
        if not t.simply_connected:
            raise Refused(f"tangle {t.id} is not simply connected")
    n = len(dec.tangles)
    if n == 1:
        raise Refused("channel edges return to a single tangle")

    junction_list = _junction_pairing(dec)
    if junction_list is None:
        raise Refused("channel edges are not rotation-adjacent junction pairs")

    junction_map = {t.id: [] for t in dec.tangles}
    for t1, t2, labs in junction_list:
        junction_map[t1].append((t2, labs[0], labs[1]))
        junction_map[t2].append((t1, labs[0], labs[1]))
    for tid, js in junction_map.items():
        if len(js) != 2:
            raise Refused(f"tangle {tid} does not meet exactly two junctions")
    start = 0
    order = [start]
    junctions = []
    nxt, e1, e2 = sorted(junction_map[start])[0]
    junctions.append((e1, e2))
    prev_edges = {e1, e2}
    while nxt != start:
        order.append(nxt)
        onward = [j for j in junction_map[nxt] if {j[1], j[2]} != prev_edges]
        if len(onward) != 1:
            raise Refused("junction pattern is not a single cycle")
        nxt, e1, e2 = onward[0]
        junctions.append((e1, e2))
        prev_edges = {e1, e2}
    if len(order) != n:
        raise Refused("junction pattern is not a single cycle covering every tangle")

    white = _two_face_color_signature(dec, checkerboard(diagram))
    if white is None:
        raise Refused("non-alternating edges are not carried by two faces of one color")
    return tuple(order), tuple(junctions), white


def cycle_arrangements_by_search(diagram):
    """Per position of the genus-one cycle, (tangle crossings, legs UL,
    LL, LR, UR as darts), by trying all eight orientations and rotations
    of each tangle's boundary against its two junctions.

    The reference for ``moves.cycle_of_tangles``, which walks the legs
    around the cycle through the leg table instead.
    """
    from turaev.pdcore import DiagramError
    from turaev.tangles import classify_genus_one

    cyc = classify_genus_one(diagram)
    dec = cyc.decomposition
    n = cyc.n
    junction_labels = [set(j) for j in cyc.junctions]
    arrangements = []
    for i, tid in enumerate(cyc.order):
        orbit = dec.tangles[tid].boundary
        prev_labs = junction_labels[(i - 1) % n]
        next_labs = junction_labels[i]
        candidates = []
        for seq in (orbit, tuple(reversed(orbit))):
            for rot in range(4):
                arr = tuple(seq[(rot + k) % 4] for k in range(4))
                labs = [diagram.label(d) for d in arr]
                if labs[0] in prev_labs and labs[1] in prev_labs and labs[2] in next_labs and labs[3] in next_labs:
                    candidates.append(arr)
        if not candidates:
            raise DiagramError("tangle legs do not split between its two junctions")
        if i == 0:
            arrangements.append(min(candidates))
            continue
        want_ul = diagram.alpha[arrangements[i - 1][3]]  # far end of previous UR
        chosen = [arr for arr in candidates if arr[0] == want_ul]
        if len(chosen) != 1:
            raise DiagramError("cycle payload orientation is inconsistent")
        arrangements.append(chosen[0])
    if diagram.alpha[arrangements[-1][3]] != arrangements[0][0]:
        raise DiagramError("cycle payloads do not close up")
    return tuple((dec.tangles[tid].crossings, arr) for tid, arr in zip(cyc.order, arrangements))


def all_a(diagram):
    return ("A",) * diagram.n


def all_b(diagram):
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

    def edges(self, diagram) -> tuple[int, ...]:
        return tuple(diagram.label(d) for d in self.darts)


@dataclass(frozen=True)
class StateCircles:
    state: tuple[str, ...]
    circles: tuple[Circle, ...]

    @property
    def n(self) -> int:
        return len(self.circles)


def state_circles(diagram, state) -> StateCircles:
    """Trace the circles of any state, with their darts and corners.

    Circles are numbered by their smallest traversed edge label; each is
    reported in the traversal direction whose dart set contains the
    smallest dart, starting at that dart. The library reads the all-A and
    all-B circles off its orbit walk (``PlanarDiagram.edge_circles``)
    without building them; this tracer is the reference for that walk.
    """
    from turaev.pdcore import DiagramError

    state = tuple(state)
    if len(state) != diagram.n or any(ch not in ("A", "B") for ch in state):
        raise DiagramError("state must assign 'A' or 'B' to every crossing")
    alpha = diagram.alpha
    nd = diagram.n_darts
    rho = [0] * nd
    for d in range(nd):
        a = alpha[d]
        c = a >> 2
        rho[d] = 4 * c + _smooth_pair(a & 3, state[c])
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
            x = alpha[d]
            while not seen[x]:
                seen[x] = True
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
            c = a >> 2
            corners.append((c, _corner_of_transition(a & 3, state[c])))
        circles.append(Circle(cid, tuple(darts), tuple(corners)))
    return StateCircles(state, tuple(circles))


def core_arc(diagram, c: int):
    """A surgery arc across one side of a loop crossing, as a
    ``surgery.CuttingArc``; the reference arc the ``surgery.surger_arc``
    tests surger along.

    For an A-loop crossing the arc hugs one of the two corners joined by
    the B-smoothing, joining the edges at slots (1,2) or (3,0), which lie
    on one all-A circle (the loop) and one all-B circle (the hugging
    smoothing arc); symmetrically for B-loop crossings. The side follows
    the shorter sub-arc of the loop circle between its two visits to the
    crossing, ties broken by face id. For a prime genus-one diagram the
    surgery lowers the genus by one, which is asserted.
    """
    from turaev import surgery
    from turaev.pdcore import DiagramError, is_alternating
    from turaev.states import loop_crossings, turaev_genus

    report = loop_crossings(diagram)
    if c in report.a_loops:
        mask, corner_pairs = 1, ((1, 2), (3, 0))
    elif c in report.b_loops:
        mask, corner_pairs = 3, ((0, 1), (2, 3))
    else:
        raise DiagramError(f"crossing {c} is not a loop crossing")
    # Sub-arc lengths between the two visits: walk the loop circle from
    # the dart leaving c at slot 0 and count the steps between landings
    # at c.
    alpha = diagram.alpha
    visits, steps, d = [], 0, 4 * c
    while True:
        steps += 1
        if alpha[d] >> 2 == c:
            visits.append(steps)
            steps = 0
        d = alpha[d] ^ mask
        if d == 4 * c:
            break
    if len(visits) != 2:
        raise DiagramError("loop circle does not visit the crossing twice")
    len1, len2 = visits

    candidates = []
    for (s1, s2) in corner_pairs:
        e1 = diagram.crossings[c][s1]
        e2 = diagram.crossings[c][s2]
        if e1 == e2:
            continue
        face = diagram.face_at_corner(c, s1)
        walk = diagram.faces[face]
        pos = sorted(i for i, d in enumerate(walk) if diagram.label(d) in (e1, e2))
        if len(pos) != 2:
            continue
        candidates.append((face, pos))
    if not candidates:
        raise DiagramError("loop crossing admits no surgery arc")
    g = turaev_genus(diagram)
    scored = []
    for face, pos in candidates:
        try:
            result, _ = surgery.surger_arc(diagram, face, pos[0], pos[1])
        except DiagramError:
            continue
        if result.is_connected and turaev_genus(result) == g - 1:
            scored.append((min(len1, len2), face, pos))
    if not scored:
        raise DiagramError("no side of the loop crossing lowers the genus")
    _, face, pos = min(scored)
    arcs = surgery.find_cutting_arcs(diagram) if not is_alternating(diagram) else ()
    walk = diagram.faces[face]
    e1, e2 = diagram.label(walk[pos[0]]), diagram.label(walk[pos[1]])
    for arc in arcs:
        if arc.face == face and set(arc.edges) == {e1, e2}:
            return arc
    # Not a cutting arc in the strict sense (an endpoint edge alternates);
    # report the raw arc data with circle ids of the shared circles.
    sa, sb = diagram.edge_circles
    if sa[e1] != sa[e2] or sb[e1] != sb[e2]:
        raise DiagramError("surgery arc does not share its state circles")
    return surgery.CuttingArc(face, (pos[0], pos[1]), (e1, e2), sa[e1], sb[e1])


def turaev_surface_by_cell_orientation(diagram):
    """Rows of the diagram on its Turaev surface, by a search for a
    consistent orientation of the traced state circles.

    The all-A and all-B circles are the 2-cells. Their orientations are
    2-coloured so that the two cells along every edge traverse it in
    opposite directions; the oriented walks give the face permutation, and
    composing with the edge involution gives the rotation at each crossing.
    A second parity propagation then picks over and under per crossing so
    that every edge alternates.

    The reference for ``surfcheck.turaev_surface``, which writes the rows
    directly from the crossing signs.
    """
    from turaev.pdcore import DiagramError

    alpha, nd = diagram.alpha, diagram.n_darts
    cells = list(state_circles(diagram, all_a(diagram)).circles) + list(
        state_circles(diagram, all_b(diagram)).circles
    )
    # Per edge, the cells on it with the dart each traced walk uses.
    sides = {}
    for k, circ in enumerate(cells):
        for d in circ.darts:
            sides.setdefault(diagram.label(d), []).append((k, d))
    adjacency = [[] for _ in cells]
    for (k1, d1), (k2, d2) in sides.values():
        parity = 1 if d1 == d2 else 0  # one dart used twice: one cell flips
        adjacency[k1].append((k2, parity))
        adjacency[k2].append((k1, parity))
    flips = _two_colour(adjacency, "cell complex is not orientable")
    phi = [-1] * nd
    for k, circ in enumerate(cells):
        walk = circ.darts if flips[k] == 0 else tuple(alpha[d] for d in reversed(circ.darts))
        for i, d in enumerate(walk):
            phi[d] = walk[(i + 1) % len(walk)]
    rot = [phi[alpha[d]] for d in range(nd)]
    cycles = []
    for c in range(diagram.n):
        cycle = [4 * c]
        while rot[cycle[-1]] != 4 * c:
            cycle.append(rot[cycle[-1]])
        if len(cycle) != 4 or any(d >> 2 != c for d in cycle):
            raise DiagramError("rotation orbits do not match the crossings")
        cycles.append(cycle)
    position = {d: k for cycle in cycles for k, d in enumerate(cycle)}
    # An end is under when its cycle position is even and its crossing is
    # not turned; an edge alternates when its ends differ.
    links = [[] for _ in range(diagram.n)]
    for d1 in range(nd):
        d2 = alpha[d1]
        want = (position[d1] ^ position[d2] ^ 1) & 1
        links[d1 >> 2].append((d2 >> 2, want))
    turns = _two_colour(links, "surface diagram cannot be made alternating")
    return tuple(
        tuple(diagram.label(d) for d in cycle[turn:] + cycle[:turn]) for cycle, turn in zip(cycles, turns)
    )


def _two_colour(adjacency, failure):
    """Bits on the nodes of a connected graph, node 0 taking 0, so that
    every link (node, want) joins bits differing by ``want``."""
    from turaev.pdcore import DiagramError

    bits = [None] * len(adjacency)
    bits[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for v, want in adjacency[u]:
            if bits[v] is None:
                bits[v] = bits[u] ^ want
                stack.append(v)
            elif bits[v] != bits[u] ^ want:
                raise DiagramError(failure)
    if None in bits:
        raise DiagramError("graph is disconnected")
    return bits
