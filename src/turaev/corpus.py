# -*- coding: utf-8 -*-
"""Exhaustive and randomized diagram corpora.

The exhaustive corpus is built in two phases. First the projections
(shadows: diagrams up to over/under) are grown by crossing insertion: cut
one or two edges at interior points of a common face and wire the loose
ends through a new crossing inside that face. Smoothing a crossing
inverts an insertion, and every connected projection with more than one
crossing has a crossing whose smoothing stays connected (a deleted vertex
leaves at most two pieces because 4-valent plane graphs are bridgeless,
and one of the two smoothings then reconnects them). The argument never
looks at over/under, so growing from the one-crossing projection reaches
every projection. Then each projection is expanded: a diagram is its
projection plus one over/under choice per crossing, so the 2^n choices
on every n-crossing projection give every n-crossing diagram. Duplicates
are removed with the canonical form, without parity for projections and
with it for diagrams.

The corpus is enumerated as canonical rows only: a class costs a few
tuples, not a validated diagram with its cached facts. Consumers build
and report one diagram at a time (``turaev corpus`` writes each class's
file and manifest line before it builds the next), so an enumeration
holds the rows plus one diagram.

Each insertion is written in its planar arrangements only, and that
loses nothing. Smoothing a crossing joins its stubs in adjacent pairs,
and the crossing sits in the face of the smoothed projection between the
two joined arcs. Its four edges reach the cut points through that face
without crossing, so around it the stubs keep the order in which the
face boundary meets them. The face lies to the right of its boundary
walk, so that is reverse walk order: one arrangement per cut pair (its
one-slot rotation is the same projection). A kink's loop joins two
adjacent stubs and lies on either side of the cut edge: two
arrangements. Every other cyclic order makes two new edges cross inside
that face.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from .pdcore import DiagramError, PlanarDiagram, canonical_rows, is_prime, sigma

Rows = tuple[tuple[int, int, int, int], ...]


def one_crossing_diagrams() -> list[PlanarDiagram]:
    return [
        PlanarDiagram.from_rows([(1, 1, 2, 2)]),
        PlanarDiagram.from_rows([(1, 2, 2, 1)]),
    ]


def _row_candidates(stubs: tuple[int, int, int, int]) -> list[tuple[int, int, int, int]]:
    """The 12 arrangements, repeats included: every cyclic order of the
    stubs, each in both slot rotations (the over/under choice)."""
    out = []
    for rest in sorted(permutations((1, 2, 3))):
        row = tuple(stubs[i] for i in (0,) + rest)
        out.append(row)
        out.append(row[1:] + row[:1])
    return out


# Random growth draws from all 12 arrangements and rejects what is not
# planar.
_CUT_PAIR_DRAWS = _row_candidates((1, 2, 3, 4))
_KINK_DRAWS = _row_candidates((1, 2, 3, 3))


def _grown(d: PlanarDiagram, darts: tuple[int, ...], row: tuple[int, int, int, int]) -> Rows:
    """d's rows with the edge of each dart cut, plus the new crossing.

    With m the largest label, the k-th dart's end of its edge becomes
    stub m+1+2k and the other end m+2+2k; a kink's loop is m+3. ``row``
    holds the new crossing's labels as offsets from m.
    """
    m = max(d.edge_labels)
    rows = [list(r) for r in d.crossings]
    for k, u in enumerate(darts):
        a = d.alpha[u]
        rows[u >> 2][u & 3] = m + 1 + 2 * k
        rows[a >> 2][a & 3] = m + 2 + 2 * k
    rows.append([m + x for x in row])
    return tuple(tuple(r) for r in rows)


def _canonical(rows: Rows, keep_parity: bool = True) -> Rows:
    d = PlanarDiagram(rows)
    return canonical_rows(d.flat_labels, d.alpha, d.n, keep_parity=keep_parity)


def child_rows(shadow_rows: Rows) -> list[Rows]:
    """Every planar one-crossing insertion into the projection, with repeats.

    A cut pair's stubs meet the new crossing in reverse walk order, and a
    kink's loop lies on either side of its edge (see the module notes).
    """
    d = PlanarDiagram(shadow_rows)
    out = [
        _grown(d, (u, v), (1, 4, 3, 2))
        for face in d.faces
        for u, v in combinations(face.darts, 2)
        if d.label(u) != d.label(v)
    ]
    for u, _ in d.edge_darts.values():
        out += [_grown(d, (u,), (1, 2, 3, 3)), _grown(d, (u,), (1, 3, 3, 2))]
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


def exhaustive(max_crossings: int) -> list[Rows]:
    """The canonical rows of every connected diagram with 1..max_crossings
    crossings, one per isomorphism class, sorted within each crossing
    count. Callers build and validate each class with
    ``PlanarDiagram.from_rows`` when they need it."""
    out: list[Rows] = []
    for shadows in _shadow_levels(max_crossings):
        level: set[Rows] = set()
        for shadow in shadows:
            level |= _over_under_choices(shadow)
        out.extend(sorted(level))
    return out


def _planar_draw(d: PlanarDiagram, darts: tuple[int, ...], row: tuple[int, int, int, int]) -> bool:
    """Whether ``_grown(d, darts, row)`` is planar, without building it.

    The insertion keeps the diagram connected, so it is planar exactly when
    it adds one face (Euler's formula). Only the faces through the cut
    darts change. Their new walks are counted on the cut darts and the new
    crossing's darts alone: the stretch of an old walk between two cut
    darts stays as it was. Other arrangements than the ones ``child_rows``
    writes can be planar, for instance when the two cut edges meet at a
    crossing, so the count decides every draw.
    """
    alpha, new = d.alpha, 4 * d.n
    ends = [x for u in darts for x in (u, alpha[u])]  # stub k+1 is ends[k]
    partner: dict[int, int] = {}  # the new edge pairing on the changed darts
    loop = []
    for s, k in enumerate(row):
        if k <= len(ends):
            partner[new + s], partner[ends[k - 1]] = ends[k - 1], new + s
        else:
            loop.append(new + s)
    if loop:  # a kink's loop joins two slots of the new crossing
        a, b = loop
        partner[a], partner[b] = b, a

    def step(x: int) -> int:
        y = sigma(partner[x])
        while y not in partner:
            y = sigma(alpha[y])
        return y

    seen: set[int] = set()
    walks = 0
    for start in partner:
        if start not in seen:
            walks += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = step(x)
    return walks == len({d.face_of_dart[x] for x in ends}) + 1


def random_diagram(rng: random.Random, n_crossings: int) -> PlanarDiagram:
    """A random connected diagram grown by seeded random insertions.

    Each step draws a face, two boundary positions (or one edge for a
    kink), and one of the 12 stub arrangements, retrying until the result
    is planar; only the accepted diagram is built and validated.
    """
    if n_crossings < 1:
        raise DiagramError("need at least one crossing")
    d = rng.choice(one_crossing_diagrams())
    while d.n < n_crossings:
        if rng.random() < 0.15:
            darts = (d.edge_darts[rng.choice(d.edge_labels)][0],)
            draws = _KINK_DRAWS
        else:
            face = d.faces[rng.randrange(len(d.faces))]
            if face.degree < 2:
                continue
            i, j = rng.sample(range(face.degree), 2)
            darts = (face.darts[i], face.darts[j])
            if d.label(darts[0]) == d.label(darts[1]):
                continue
            draws = _CUT_PAIR_DRAWS
        row = draws[rng.randrange(len(draws))]
        if _planar_draw(d, darts, row):
            d = PlanarDiagram.from_rows(_grown(d, darts, row))
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
