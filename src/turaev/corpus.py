# -*- coding: utf-8 -*-
"""Exhaustive and randomized diagram corpora.

The exhaustive corpus is built in two phases. First the projections
(shadows: diagrams up to over/under) are grown by crossing insertion: cut
one or two edges at interior points of a common face and wire the loose
ends through a new crossing, in every cyclic arrangement that stays
planar. Smoothing a crossing inverts an insertion, and every connected
projection with more than one crossing has a crossing whose smoothing
stays connected (a deleted vertex leaves at most two pieces because
4-valent plane graphs are bridgeless, and one of the two smoothings then
reconnects them). The argument never looks at over/under, so growing
from the one-crossing projection reaches every projection. Then each
projection is expanded: a diagram is its projection plus one over/under
choice per crossing, so the 2^n choices on every n-crossing projection
give every n-crossing diagram. Duplicates are removed with the canonical
form, without parity for projections and with it for diagrams.
"""

from __future__ import annotations

import random
from itertools import permutations

from .pdcore import DiagramError, PlanarDiagram, canonical_rows

Rows = tuple[tuple[int, int, int, int], ...]


def one_crossing_diagrams() -> list[PlanarDiagram]:
    return [
        PlanarDiagram.from_rows([(1, 1, 2, 2)]),
        PlanarDiagram.from_rows([(1, 2, 2, 1)]),
    ]


# Cyclic arrangements of the four stub ends around the new crossing:
# (tail1, head1, tail2, head2) in every distinct cyclic order. Planarity
# validation discards the rest. Random growth also draws the over/under
# assignment, as the order's one-slot rotation.
_STUB_ORDERS = sorted({(0,) + rest for rest in permutations((1, 2, 3))})


def _row_candidates(stubs: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
    out = []
    for order in _STUB_ORDERS:
        row = tuple(stubs[i] for i in order)
        out.append(row)
        out.append(row[1:] + row[:1])
    return out


def _valid_rows(rows: list[list[int]]) -> Rows | None:
    """Validate connected + planar quickly; return frozen rows or None."""
    n = len(rows)
    nd = 4 * n
    where: dict[int, int] = {}
    alpha = [-1] * nd
    for d in range(nd):
        lab = rows[d >> 2][d & 3]
        other = where.pop(lab, None)
        if other is None:
            where[lab] = d
        else:
            alpha[d] = other
            alpha[other] = d
    if where or any(a < 0 for a in alpha):
        return None
    # Connectivity over darts via alpha and same-crossing moves.
    seen = bytearray(nd)
    stack = [0]
    seen[0] = 1
    reached = 1
    while stack:
        d = stack.pop()
        for e in (alpha[d], (d & ~3) | ((d + 1) & 3)):
            if not seen[e]:
                seen[e] = 1
                reached += 1
                stack.append(e)
    if reached != nd:
        return None
    # Planarity: V - E + F = 2 with faces traced from the rotation.
    visited = bytearray(nd)
    faces = 0
    for start in range(nd):
        if visited[start]:
            continue
        faces += 1
        d = start
        while not visited[d]:
            visited[d] = 1
            a = alpha[d]
            d = (a & ~3) | ((a + 1) & 3)
    if n - 2 * n + faces != 2:
        return None
    return tuple(tuple(r) for r in rows)


def _canonical(rows: Rows, keep_parity: bool = True) -> Rows:
    labels = [lab for row in rows for lab in row]
    nd = len(labels)
    pos: dict[int, int] = {}
    alpha = [0] * nd
    for d, lab in enumerate(labels):
        if lab in pos:
            alpha[d] = pos[lab]
            alpha[pos[lab]] = d
        else:
            pos[lab] = d
    return canonical_rows(labels, alpha, len(rows), keep_parity=keep_parity)


def child_rows(shadow_rows: Rows) -> list[Rows]:
    """Every planar one-crossing insertion into the projection, with repeats.

    A row and its one-slot rotation have the same projection, so each
    cyclic stub order is tried once.
    """
    diagram = PlanarDiagram(shadow_rows)
    m = max(diagram.edge_labels)
    base = [list(row) for row in shadow_rows]
    out: list[Rows] = []

    def insert(rows: list[list[int]], stubs: tuple[int, int, int, int]) -> None:
        for order in _STUB_ORDERS:
            ok = _valid_rows(rows + [[stubs[i] for i in order]])
            if ok is not None:
                out.append(ok)

    # Two cut edges on a common face.
    for face in diagram.faces:
        walk = face.darts
        for i in range(len(walk)):
            for j in range(i + 1, len(walk)):
                u, v = walk[i], walk[j]
                if diagram.label(u) == diagram.label(v):
                    continue
                au, av = diagram.alpha[u], diagram.alpha[v]
                rows = [r[:] for r in base]
                rows[u >> 2][u & 3] = m + 1      # tail1, before the cut on edge of u
                rows[au >> 2][au & 3] = m + 2    # head1
                rows[v >> 2][v & 3] = m + 3      # tail2
                rows[av >> 2][av & 3] = m + 4    # head2
                insert(rows, (m + 1, m + 2, m + 3, m + 4))
    # One cut edge: a kink, whose loop is the fresh edge m+3.
    for lab, (d, ad) in diagram.edge_darts.items():
        rows = [r[:] for r in base]
        rows[d >> 2][d & 3] = m + 1
        rows[ad >> 2][ad & 3] = m + 2
        insert(rows, (m + 1, m + 2, m + 3, m + 3))
    return out


def _shadow_levels(max_crossings: int):
    """Yield the canonical projections with 1, 2, ..., max_crossings
    crossings, one set per crossing count."""
    level = {_canonical(((1, 1, 2, 2),), keep_parity=False)}
    for n in range(1, max_crossings + 1):
        if n > 1:
            level = {
                _canonical(child, keep_parity=False)
                for rows in level
                for child in child_rows(rows)
            }
        yield level


def _over_under_choices(shadow: Rows) -> set[Rows]:
    """Canonical rows of every diagram on the projection: crossing c's row
    turns by one slot, swapping its over- and under-strand, when bit c of
    the choice is set."""
    turned = [row[1:] + row[:1] for row in shadow]
    n = len(shadow)
    return {
        _canonical(tuple(turned[c] if mask >> c & 1 else shadow[c] for c in range(n)))
        for mask in range(1 << n)
    }


def exhaustive(max_crossings: int) -> list[PlanarDiagram]:
    """All connected diagrams with 1..max_crossings crossings, one per
    isomorphism class, in canonical form, deterministically ordered."""
    out: list[PlanarDiagram] = []
    for shadows in _shadow_levels(max_crossings):
        level = set().union(*map(_over_under_choices, shadows))
        out.extend(PlanarDiagram.from_rows(rows) for rows in sorted(level))
    return out


def random_diagram(rng: random.Random, n_crossings: int) -> PlanarDiagram:
    """A random connected diagram grown by seeded random insertions.

    Each step draws a face, two boundary positions (or one edge for a
    kink), and a stub arrangement, retrying until the result is planar.
    """
    if n_crossings < 1:
        raise DiagramError("need at least one crossing")
    d = PlanarDiagram(rng.choice(one_crossing_diagrams()).crossings)
    while d.n < n_crossings:
        m = max(d.edge_labels)
        rows = [list(row) for row in d.crossings]
        if rng.random() < 0.15:
            lab = rng.choice(d.edge_labels)
            u, au = d.edge_darts[lab]
            rows[u >> 2][u & 3] = m + 1
            rows[au >> 2][au & 3] = m + 2
            stubs = (m + 1, m + 2, m + 3, m + 3)
        else:
            face = d.faces[rng.randrange(len(d.faces))]
            if face.degree < 2:
                continue
            i, j = rng.sample(range(face.degree), 2)
            u, v = face.darts[i], face.darts[j]
            if d.label(u) == d.label(v):
                continue
            au, av = d.alpha[u], d.alpha[v]
            rows[u >> 2][u & 3] = m + 1
            rows[au >> 2][au & 3] = m + 2
            rows[v >> 2][v & 3] = m + 3
            rows[av >> 2][av & 3] = m + 4
            stubs = (m + 1, m + 2, m + 3, m + 4)
        candidates = _row_candidates(stubs)
        row = candidates[rng.randrange(len(candidates))]
        ok = _valid_rows(rows + [list(row)])
        if ok is None:
            continue
        d = PlanarDiagram(ok)
    return d


def random_corpus(seed: int, count: int, max_crossings: int) -> list[PlanarDiagram]:
    """``count`` seeded random diagrams with 1..max_crossings crossings."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_crossings)
        out.append(random_diagram(rng, n))
    return out


def random_prime_diagrams(
    seed: int, count: int, max_crossings: int, *, require=None
) -> list[PlanarDiagram]:
    """Seeded prime connected diagrams, rejection-sampled; ``require`` can
    filter further (e.g. non-alternating)."""
    from .pdcore import is_prime

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_crossings)
        d = random_diagram(rng, n)
        if not is_prime(d):
            continue
        if require is not None and not require(d):
            continue
        out.append(d)
    return out
