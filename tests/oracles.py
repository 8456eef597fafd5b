"""Independent oracles the tests check the library against.

These deliberately re-derive results through different algorithms: state
circles by union-find instead of orbit tracing, adequacy by brute-force
corner incidence, face counts by the Euler formula, alternation straight
from slot parity of the raw PD rows.
"""

from __future__ import annotations


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
            (face.darts[i], face.darts[j], (m + 1, m + 2, m + 3, m + 4))
            for face in diagram.faces
            for i in range(face.degree)
            for j in range(i + 1, face.degree)
            if diagram.label(face.darts[i]) != diagram.label(face.darts[j])
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
