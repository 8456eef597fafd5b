# -*- coding: utf-8 -*-
"""Planar link diagrams as rotation systems.

A diagram is a list of crossings. Each crossing carries four *slots* in
counterclockwise cyclic order, numbered 0..3; slots 0 and 2 hold the two
ends of the under-strand, slots 1 and 3 the over-strand. Each slot holds an
edge label, and every edge label occurs exactly twice over the whole
diagram. This is the usual PD code with the over/under convention pinned
down once and for all.

Internally a *dart* is a slot occurrence, encoded as the integer
``4 * crossing + slot``. Three permutations on darts drive everything:

    sigma(d)  next slot counterclockwise at the same crossing,
    alpha(d)  the other occurrence of d's edge label,
    phi(d)    = sigma(alpha(d)), whose orbits are the faces.

With counterclockwise rotation, a phi orbit walks a face boundary keeping
the face on the right of every dart; the dart ``(c, s)`` in a face orbit
sits at the corner of that face between slots ``s - 1`` and ``s`` of ``c``.
A diagram is accepted as planar when every edge label occurs twice, the
4-valent graph is connected, and V - E + F = 2 for the traced faces.

``RotationSystem`` computes these once per diagram and keeps them. Every
fact is read off two flat per-dart arrays, ``flat_labels`` (the label of
dart d at index d) and ``alpha``, with sigma inlined as dart arithmetic:
one first-occurrence pass gives ``alpha``, and the slot parity
``(d ^ alpha[d]) & 1`` the alternation. Faces, face pairs, components
and state circles are read off one walk of the whole diagram by the
orbit core ``_Orbits``, which also walks the reduction ladder's pieces
in ``surgery``. ``PlanarDiagram`` adds the planar facts (each edge's
state circles, the circle counts, Turaev genus, signs, coloring,
composite circles); one search over ``alpha`` flips the checkerboard
sign across each non-alternating edge, and the coloring is read off the
signs.

Text format: whitespace-separated terms ``X[a,b,c,d]`` with non-negative
integer edge labels; the order of terms is the crossing index. JSON mirror:
``{"crossings": [[a,b,c,d], ...]}`` with non-negative JSON integer labels.
"""

from __future__ import annotations

import json
import re
import threading
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

BLACK = "black"
WHITE = "white"


class DiagramError(ValueError):
    """Raised when input data does not define a valid diagram."""


class ParseError(DiagramError):
    """Raised on malformed PD text or JSON."""


class Refused(Exception):
    """An operation declined its input for a structural reason.

    Distinct from DiagramError: the input is a valid diagram, but outside
    the operation's contract (composite, alternating, wrong genus, ...).
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def dart(crossing: int, slot: int) -> int:
    return 4 * crossing + slot


def sigma(dart: int) -> int:
    """Next dart counterclockwise around the same crossing."""
    return (dart & ~3) | ((dart + 1) & 3)


@dataclass(frozen=True)
class Coloring:
    """Proper 2-coloring of faces; colors[face id] is BLACK or WHITE."""

    colors: tuple[str, ...]

    def color(self, face_id: int) -> str:
        return self.colors[face_id]

    def swapped(self) -> "Coloring":
        flip = {BLACK: WHITE, WHITE: BLACK}
        return Coloring(tuple(flip[c] for c in self.colors))


@dataclass(frozen=True)
class CompositeCircle:
    """A simple loop meeting the diagram in two edge points with crossings
    on both sides. ``sides`` is the induced crossing partition."""

    edges: tuple[int, int]
    faces: tuple[int, int]
    sides: tuple[tuple[int, ...], tuple[int, ...]]


class _cached_fact:
    """A derived fact computed on first read and kept in the instance
    dict: ``functools.cached_property`` without the lock it takes before
    Python 3.12, which made building and reading a one-crossing diagram,
    the reduction ladder's commonest piece, about a fifth dearer. A fact
    is a pure function of an immutable diagram, and the orbit passes that
    facts share take turns on the diagram's core, so threads racing on a
    fact at worst compute it twice."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _union_find(n: int):
    """A union-find forest over 0..n-1, as its parent list and a ``find``
    with path halving; callers join two roots by ``parent[a] = b``."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    return parent, find


def _crossing_classes(n: int, links: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Union-find over crossings 0..n-1: the classes joined by the linked
    pairs, each ascending, in sorted order."""
    parent, find = _union_find(n)
    for a, b in links:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    groups: dict[int, list[int]] = {}
    for c in range(n):
        groups.setdefault(find(c), []).append(c)
    return sorted(groups.values())


def _genus_of_counts(n: int, na: int, nb: int) -> int:
    """(n + 2 - na - nb) / 2, the Turaev genus of a connected diagram with
    n crossings, na all-A and nb all-B circles; raises DiagramError when
    that is not a non-negative integer."""
    num = n + 2 - na - nb
    if num < 0 or num % 2:
        raise DiagramError(f"impossible circle counts |s_A|={na} |s_B|={nb}")
    return num // 2


def _dart_mask(crossings) -> int:
    """Bitmask with the four dart bits of each crossing set."""
    mask = 0
    for c in crossings:
        mask |= 15 << 4 * c
    return mask


class _Walk:
    """One piece of an orbit core as one walk of its phi orbits saw it.

    The walk starts each face at the piece's smallest unwalked dart, in
    ascending dart order, so face i of the piece, with core id
    ``base + i`` and darts ``faces[i]`` in walk order, is face i of
    ``PlanarDiagram.from_rows`` on the piece's rows. ``spots`` lists the
    non-alternating darts in walk order, face by face. The rest is filled
    when first asked for: ``pairs`` by ``_Orbits.face_pairs``, and
    ``counts`` (|s_A|, |s_B|) and ``bases``, per smoothing the core id of
    the circle of smallest label, by ``_Orbits.circles``.
    """

    __slots__ = ("crossings", "mask", "base", "faces", "spots", "pairs", "counts", "bases")

    def __init__(self, crossings, mask, base, faces, spots):
        self.crossings = crossings
        self.mask = mask
        self.base = base
        self.faces = faces
        self.spots = spots
        self.pairs = None
        self.counts = None
        self.bases = None

    def check_planar(self, where: str) -> None:
        """V - E + F = 2: a piece of n crossings has n + 2 faces."""
        chi = len(self.faces) - len(self.crossings)
        if chi != 2:
            raise DiagramError(f"rotation system is not planar: V-E+F = {chi} on {where}")


class _Orbits:
    """The one orbit core: per-dart labels and ``alpha``, and the walks of
    their orbits.

    A piece is a set of crossings, ascending, held also as a dart bitmask
    (four bits per crossing); a whole diagram is the piece ``everything``.
    A piece's crossings are numbered as ``PlanarDiagram.from_rows`` would
    number the piece's own rows, in ascending order. Faces are the orbits
    of ``phi``, all-A and all-B state circles those of ``d -> alpha[d] ^ 1``
    and ``^ 3``, and blocks the crossing classes of a breadth-first search
    over ``alpha``.

    Walks write their per-dart facts (face, all-A and all-B circle) and
    per-crossing block into core-wide arrays under ids drawn from a
    counter that only grows, so a walk tells its own marks by id and
    never clears the arrays. A walk is kept in ``walked`` and returned
    again for its piece. A diagram's core takes the diagram's own tuples
    and walks the whole diagram first, so its face ids are the diagram's;
    ``surgery._DartTable`` copies them into lists and rewires them.
    """

    def __init__(self, labels: Sequence[int], alpha: Sequence[int], n: int):
        self.labels = labels
        self.alpha = alpha
        self.everything = (1 << 4 * n) - 1
        self.face = [-1] * (4 * n)
        self.circle = ([-1] * (4 * n), [-1] * (4 * n))  # all-A, all-B
        self.block = [-1] * n
        self.ids = 0  # the next unused face, circle or block id
        self.walked: dict[int, _Walk] = {}
        # A diagram's facts read its core from any thread; the passes that
        # draw ids and mark shared arrays after the first walk take turns.
        self.lock = threading.Lock()

    def walk(self, crossings, mask: int | None = None) -> _Walk:
        """The walk of the piece with these ascending crossings: one pass
        over its phi orbits gives its faces and spots, and checks that both
        darts of every edge carry one label."""
        if mask is None:
            mask = _dart_mask(crossings)
        kept = self.walked.get(mask)
        if kept is not None:
            return kept
        labels, alpha, face = self.labels, self.alpha, self.face
        base = f = self.ids
        faces: list[list[int]] = []
        spots: list[int] = []
        for c in crossings:
            for start in range(4 * c, 4 * c + 4):
                if face[start] >= base:
                    continue
                darts = []
                d = start
                while face[d] < base:
                    face[d] = f
                    darts.append(d)
                    a = alpha[d]
                    if labels[a] != labels[d]:
                        raise DiagramError(f"darts {d} and {a} of one edge carry different labels")
                    if not (d ^ a) & 1:
                        spots.append(d)
                    d = (a & ~3) | ((a + 1) & 3)
                faces.append(darts)
                f += 1
        self.ids = f
        walk = self.walked[mask] = _Walk(crossings, mask, base, faces, spots)
        return walk

    def face_pairs(self, walk: _Walk) -> dict[tuple[int, int], list[int]]:
        """Each pair of faces of the piece (piece ids, ascending) sharing
        two or more edges -> one dart of each of those edges, by ascending
        label, in sorted order; kept in ``walk.pairs``."""
        if walk.pairs is None:
            face, alpha, base = self.face, self.alpha, walk.base
            pairs: dict[tuple[int, int], list[int]] = {}
            # Per earlier face: the last face whose darts met it across an
            # edge, and that edge's dart. An edge between two faces is met
            # from the later face, so a face pair sharing two edges is met
            # twice from one face.
            met = [-1] * len(walk.faces)
            first = [0] * len(met)
            for f, darts in enumerate(walk.faces):
                for d in darts:
                    g = face[alpha[d]] - base
                    if 0 <= g < f:  # the edge's other dart lies in an earlier face
                        if met[g] == f:
                            pairs.setdefault((g, f), [first[g]]).append(d)
                        else:
                            met[g] = f
                            first[g] = d
            by_label = self.labels.__getitem__
            walk.pairs = {key: sorted(ds, key=by_label) for key, ds in sorted(pairs.items())}
        return walk.pairs

    def position(self, walk: _Walk, d: int) -> int:
        """Dart d's position in the walk of its face, from the face's
        first dart: its index in the face's dart tuple as
        ``RotationSystem.faces`` lists it."""
        return walk.faces[self.face[d] - walk.base].index(d)

    def circles(self, walk: _Walk) -> tuple[int, int]:
        """(|s_A|, |s_B|) of the piece, with ``walk.bases`` filled.

        The A-smoothing pairs slot s with s ^ 1 and the B-smoothing with
        s ^ 3, so ``d -> alpha[d] ^ 1`` (``^ 3``) walks a circle one edge
        per step; its reverse orbit is the alpha image, marked on the way,
        so each circle is walked once. Both darts of an edge carry its
        circle's id. The walks start from the piece's darts in label
        order, so the circles of a smoothing get consecutive ids in the
        order of their smallest labels.
        """
        with self.lock:
            if walk.counts is None:
                alpha, k = self.alpha, self.ids
                starts = sorted(chain.from_iterable(walk.faces), key=self.labels.__getitem__)
                counts, bases = [], []
                for mask, circle in zip((1, 3), self.circle):
                    base = k
                    for start in starts:
                        if circle[start] >= base:
                            continue
                        d = start
                        while circle[d] < base:
                            a = alpha[d]
                            circle[d] = circle[a] = k
                            d = a ^ mask
                        k += 1
                    counts.append(k - base)
                    bases.append(base)
                self.ids = k
                walk.counts, walk.bases = (counts[0], counts[1]), (bases[0], bases[1])
        return walk.counts

    def blocks(self, walk: _Walk, cut=None) -> list[list[int]]:
        """The crossing classes of the piece once the edges of the darts
        in ``cut`` are deleted (by default every face-pair edge), each
        ascending, in order of their smallest crossing; a breadth-first
        search over ``alpha`` marks each crossing's block."""
        with self.lock:
            alpha, block = self.alpha, self.block
            if cut is None:
                cut = {x for ds in self.face_pairs(walk).values() for d in ds for x in (d, alpha[d])}
            base = b = self.ids
            out = []
            for root in walk.crossings:
                if block[root] >= base:
                    continue
                block[root] = b
                comp = [root]
                for c in comp:
                    for d in range(4 * c, 4 * c + 4):
                        x = alpha[d] >> 2
                        if block[x] < base and d not in cut:
                            block[x] = b
                            comp.append(x)
                comp.sort()
                out.append(comp)
                b += 1
            self.ids = b
            return out


@dataclass(frozen=True)
class RotationSystem:
    """The rotation system shared by planar and surface diagrams.

    ``crossings[i]`` is the 4-tuple of edge labels at crossing i, in
    counterclockwise slot order, slots 0/2 under and 1/3 over. Every
    derived fact is computed on first use and kept; cached values are
    tuples, frozen dataclasses or read-only mappings. The core facts read
    the flat per-dart arrays ``flat_labels`` and ``alpha`` with the dart
    arithmetic inlined; faces, face pairs and components read one
    ``_Orbits`` walk of the whole diagram. Subclasses differ in
    ``validate``: the Euler condition their embedding must meet.
    """

    crossings: tuple[tuple[int, int, int, int], ...]

    def __reduce__(self):
        # Pickle the crossings only; the caches are rebuilt on demand.
        return (type(self), (self.crossings,))

    @property
    def n(self) -> int:
        """Crossing count."""
        return len(self.crossings)

    @property
    def n_darts(self) -> int:
        return 4 * len(self.crossings)

    @property
    def n_edges(self) -> int:
        return 2 * len(self.crossings)

    def label(self, d: int) -> int:
        return self.crossings[d >> 2][d & 3]

    edge_of_dart = label

    @_cached_fact
    def flat_labels(self) -> tuple[int, ...]:
        """The label of every dart, dart ``4 * c + s`` at that index."""
        return tuple(chain.from_iterable(self.crossings))

    @_cached_fact
    def alpha(self) -> tuple[int, ...]:
        """Dart involution pairing the two occurrences of each label.

        One pass pairs each dart with the first dart of its label. The
        pairing is exact when there are half as many labels as darts and
        no dart is left unpaired: every label then occurs exactly twice.
        """
        labels = self.flat_labels
        first: dict[int, int] = {}
        a = [-1] * len(labels)
        for d, lab in enumerate(labels):
            o = first.setdefault(lab, d)
            if o != d:
                a[o] = d
                a[d] = o
        if 2 * len(first) != len(labels) or -1 in a:
            bad = sorted(lab for lab, k in Counter(labels).items() if k != 2)
            raise DiagramError(f"edge labels must occur exactly twice, violated by {bad}")
        return tuple(a)

    @_cached_fact
    def edge_labels(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.flat_labels)))

    @_cached_fact
    def edge_darts(self) -> Mapping[int, tuple[int, int]]:
        """label -> (smaller dart, larger dart)."""
        labels = self.flat_labels
        return MappingProxyType({labels[d]: (d, a) for d, a in enumerate(self.alpha) if d < a})

    @_cached_fact
    def alternation(self) -> Mapping[int, bool]:
        """label -> True for alternating edges: one end an underpass, the
        other an overpass, i.e. the two slots differ in parity."""
        labels = self.flat_labels
        return MappingProxyType({labels[d]: bool((d ^ a) & 1) for d, a in enumerate(self.alpha) if d < a})

    @_cached_fact
    def _orbits(self) -> _Orbits:
        """The diagram's own orbit core, on which the whole diagram is
        walked first, so the core's face ids are the diagram's."""
        core = _Orbits(self.flat_labels, self.alpha, len(self.crossings))
        core.walk(range(len(self.crossings)), core.everything)
        return core

    @_cached_fact
    def _walk(self) -> _Walk:
        """The walk of the whole diagram, which every face, face-pair,
        component and state-circle fact reads."""
        core = self._orbits
        return core.walked[core.everything]

    @_cached_fact
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """The phi orbits in order of their smallest dart: face f is
        ``faces[f]``, its darts in walk order from that smallest dart."""
        return tuple(map(tuple, self._walk.faces))

    @_cached_fact
    def face_of_dart(self) -> tuple[int, ...]:
        return tuple(self._orbits.face)

    def face_at_corner(self, crossing: int, corner: int) -> int:
        """Face occupying the corner between slots corner, corner+1."""
        return self.face_of_dart[dart(crossing, (corner + 1) % 4)]

    @_cached_fact
    def face_pair_edges(self) -> Mapping[tuple[int, int], tuple[int, ...]]:
        """(f1, f2) with f1 < f2 -> the labels, ascending, of the edges
        between those two faces, for the face pairs sharing two or more
        edges, in sorted order. A loop through both faces crossing two of
        the edges meets the diagram exactly there."""
        labels, pairs = self.flat_labels, self._orbits.face_pairs(self._walk)
        return MappingProxyType({pair: tuple(labels[d] for d in ds) for pair, ds in pairs.items()})

    @_cached_fact
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components of the 4-valent graph, as ascending
        crossing sets in order of their smallest crossing: the blocks of
        the whole diagram with no edge deleted."""
        return tuple(map(tuple, self._orbits.blocks(self._walk, ())))

    @property
    def is_connected(self) -> bool:
        return len(self.components) <= 1

    def _validate_graph(self, *, allow_disconnected: bool) -> None:
        """Checks every rotation system must pass before its Euler test."""
        if not self.crossings:
            raise DiagramError("diagram has no crossings")
        for row in self.crossings:
            if len(row) != 4:
                raise DiagramError(f"crossing {row!r} does not have 4 slots")
        self.alpha  # label multiplicity
        if not allow_disconnected and not self.is_connected:
            raise DiagramError("underlying 4-valent graph is disconnected")


@dataclass(frozen=True)
class PlanarDiagram(RotationSystem):
    """An immutable planar link diagram.

    Besides the rotation-system facts it caches each edge's all-A and
    all-B state circle, the circle counts, the Turaev genus, the default
    checkerboard coloring, the crossing signs and the composite circles.
    The circle ids, and so the counts and the genus, come from the circle
    pass of the diagram's walk without tracing the circles.
    """

    @staticmethod
    def from_rows(rows: Iterable[Sequence[int]], *, allow_disconnected: bool = False) -> "PlanarDiagram":
        d = PlanarDiagram(tuple(tuple(map(int, row)) for row in rows))
        d.validate(allow_disconnected=allow_disconnected)
        return d

    def validate(self, *, allow_disconnected: bool = False) -> None:
        self._validate_graph(allow_disconnected=allow_disconnected)
        # Euler test per component: V - E + F = 2 exactly on the sphere.
        comps = self.components
        comp_of = [0] * self.n
        for i, comp in enumerate(comps):
            for c in comp:
                comp_of[c] = i
        fcount = [0] * len(comps)
        for darts in self._walk.faces:
            fcount[comp_of[darts[0] >> 2]] += 1
        for i, comp in enumerate(comps):
            chi = len(comp) - 2 * len(comp) + fcount[i]
            if chi != 2:
                raise DiagramError(f"rotation system is not planar: V-E+F = {chi} on component {i}")

    @_cached_fact
    def edge_circles(self) -> tuple[Mapping[int, int], Mapping[int, int]]:
        """label -> id of the all-A, and of the all-B, state circle through
        the edge, numbered by ``_Orbits.circles`` on the diagram's walk in
        the order of the circles' smallest labels. No circle is built.
        """
        core, walk = self._orbits, self._walk
        core.circles(walk)
        return tuple(  # type: ignore[return-value]
            MappingProxyType(dict(zip(self.flat_labels, map(base.__rsub__, circle))))
            for circle, base in zip(core.circle, walk.bases)
        )

    @_cached_fact
    def circle_counts(self) -> tuple[int, int]:
        """(|s_A|, |s_B|), the numbers of all-A and all-B state circles,
        counted by ``_Orbits.circles`` on the diagram's walk."""
        return self._orbits.circles(self._walk)

    @_cached_fact
    def genus(self) -> int:
        """Turaev genus (c + 2 - |s_A| - |s_B|) / 2 of a connected diagram,
        read off ``circle_counts``."""
        if not self.is_connected:
            raise DiagramError("Turaev genus is defined for connected diagrams")
        return _genus_of_counts(self.n, *self.circle_counts)

    @_cached_fact
    def signs(self) -> Mapping[int, int]:
        """crossing -> +1 exactly when the corners at slots (0,1) and (2,3)
        lie in black faces of ``coloring``. Crossing 0 is +1; a breadth-
        first search over ``alpha`` keeps the sign across an alternating
        edge and flips it across a non-alternating one, so the two faces
        along every edge differ in color. An edge that disagrees, or a
        crossing never reached, raises ``DiagramError``."""
        alpha = self.alpha
        sign = [0] * self.n
        sign[0] = 1
        queue = [0]
        for c in queue:
            s = sign[c]
            for d in range(4 * c, 4 * c + 4):
                a = alpha[d]
                want = s if (d ^ a) & 1 else -s
                other = sign[a >> 2]
                if not other:
                    sign[a >> 2] = want
                    queue.append(a >> 2)
                elif other != want:
                    raise DiagramError(f"edge {self.flat_labels[d]} breaks the checkerboard signs")
        if len(queue) != self.n:
            raise DiagramError("checkerboard signs did not reach every crossing; diagram disconnected?")
        return MappingProxyType(dict(enumerate(sign)))

    @_cached_fact
    def coloring(self) -> "Coloring":
        """Checkerboard coloring with the face at corner 0 of crossing 0
        black, read off ``signs``: the face right of dart d is black
        exactly when ``(signs[d >> 2] > 0) == bool(d & 1)``."""
        signs = self.signs
        first = (darts[0] for darts in self._walk.faces)
        return Coloring(tuple(BLACK if (signs[d >> 2] > 0) == bool(d & 1) else WHITE for d in first))

    @_cached_fact
    def composite_circles(self) -> tuple[CompositeCircle, ...]:
        return _composite_circles(self)

    # -- serialization ----------------------------------------------------

    def to_pd_text(self) -> str:
        return " ".join("X[%d,%d,%d,%d]" % row for row in self.crossings)

    def to_json(self) -> str:
        return json.dumps({"crossings": [list(row) for row in self.crossings]})

    def __str__(self) -> str:
        return self.to_pd_text()


# ASCII only: ``\d`` would otherwise match every Unicode decimal digit.
_TERM_RE = re.compile(r"X\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]", re.ASCII)


def read_rows(text: str) -> list[tuple[int, ...]]:
    """Crossing rows of PD text ``X[a,b,c,d] ...`` or of its JSON mirror."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty PD text")
    if stripped.startswith("{"):
        try:
            data = json.loads(stripped)
        except (ValueError, RecursionError) as exc:  # bad JSON, a huge integer, or deep nesting
            raise ParseError(f"bad JSON: {exc}") from exc
        rows = data.get("crossings") if isinstance(data, dict) else None
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ParseError('JSON diagram must be {"crossings": [[a,b,c,d], ...]}')
        for row in rows:
            if not all(type(x) is int for x in row):
                raise ParseError(f"crossing {row!r} has a label that is not an integer")
            if any(x < 0 for x in row):
                raise ParseError(f"crossing {row!r} has a negative label")
        return [tuple(row) for row in rows]
    rows = []
    pos = 0
    for m in _TERM_RE.finditer(stripped):
        if stripped[pos:m.start()].strip():
            raise ParseError(f"unexpected text {stripped[pos:m.start()].strip()!r} in PD code")
        try:
            rows.append(tuple(int(g) for g in m.groups()))
        except ValueError as exc:  # a label over Python's integer digit limit
            raise ParseError(f"bad label: {exc}") from exc
        pos = m.end()
    if stripped[pos:].strip():
        raise ParseError(f"unexpected text {stripped[pos:].strip()!r} in PD code")
    if not rows:
        raise ParseError("no X[a,b,c,d] terms found")
    return rows


def parse_pd(text: str, *, allow_disconnected: bool = False) -> PlanarDiagram:
    """Parse PD text ``X[a,b,c,d] ...`` or its JSON mirror into a validated diagram."""
    return PlanarDiagram.from_rows(read_rows(text), allow_disconnected=allow_disconnected)


# -- interrogation ---------------------------------------------------------
# The readers of a cached fact take the diagram alone. The checkerboard has
# two colorings and two sign assignments, so an anchor or a coloring picks
# the cached one or its swap.


def checkerboard(diagram: PlanarDiagram, *, black_face: int | None = None) -> Coloring:
    """Proper 2-coloring of the faces.

    By default the face at corner 0 of crossing 0 (between slots 0 and 1)
    is black, which makes the coloring deterministic. Pass ``black_face``
    to re-anchor: the result is the default coloring or its swap.
    """
    coloring = diagram.coloring
    if black_face is None:
        return coloring
    if not 0 <= black_face < len(coloring.colors):
        raise DiagramError(f"face {black_face} is not a face of the diagram")
    return coloring if coloring.colors[black_face] == BLACK else coloring.swapped()


def edge_alternation(diagram: RotationSystem) -> Mapping[int, bool]:
    """True for alternating edges: one end an underpass, the other an overpass.

    Equivalently, the two slot occurrences have different slot parity.
    """
    return diagram.alternation


def is_alternating(diagram: RotationSystem) -> bool:
    """True when every edge joins slots of different parity."""
    return all((d ^ a) & 1 for d, a in enumerate(diagram.alpha))


def crossing_signs(diagram: PlanarDiagram, coloring: Coloring | None = None) -> Mapping[int, int]:
    """Sign of each crossing relative to the checkerboard coloring.

    A crossing is +1 exactly when its two corners at slots (0,1) and (2,3)
    lie in black faces. Swapping the coloring negates every sign; a
    coloring that is neither checkerboard coloring raises ``DiagramError``.
    """
    if coloring is None or coloring == diagram.coloring:
        return diagram.signs
    if coloring != diagram.coloring.swapped():
        raise DiagramError("coloring is not a checkerboard coloring of the diagram")
    return MappingProxyType({c: -s for c, s in diagram.signs.items()})


def mirror(diagram: PlanarDiagram) -> PlanarDiagram:
    """Exchange over and under strands everywhere; same projection."""
    rows = [(b, c, d, a) for (a, b, c, d) in diagram.crossings]
    return PlanarDiagram.from_rows(rows, allow_disconnected=not diagram.is_connected)


def switch_crossing(diagram: PlanarDiagram, c: int) -> PlanarDiagram:
    """Exchange over and under strands at one crossing only."""
    if not 0 <= c < diagram.n:
        raise DiagramError(f"crossing {c} is not a crossing of the diagram")
    rows = list(diagram.crossings)
    a, b, cc, d = rows[c]
    rows[c] = (b, cc, d, a)
    return PlanarDiagram.from_rows(rows, allow_disconnected=not diagram.is_connected)


def composite_circles(diagram: PlanarDiagram) -> tuple[CompositeCircle, ...]:
    """All composite circles, one per pair of edges sharing two faces.

    Two distinct edges lying together on two common faces determine a
    simple loop through both faces crossing exactly those edges, and every
    such loop is composite: it splits the crossings into two non-empty
    connected sides. Each side holds one end of each edge, so it is not
    empty. A part of one side cut off from both ends would be a separate
    component of the diagram, and a part holding one end only would have
    odd degree sum (4 per crossing, 2 per inner edge, 1 per end). The
    circles are sorted by edge pair; ``sides[0]`` holds crossing 0.
    """
    return diagram.composite_circles


def _composite_circles(diagram: PlanarDiagram) -> tuple[CompositeCircle, ...]:
    """The circles' sides come from the blocks of the diagram's walk, its
    crossing classes once every face-pair edge is deleted: the blocks and
    those edges form a graph in which each circle's two edges separate the
    blocks of one side from the other."""
    if not diagram.is_connected:
        raise DiagramError("composite circles are defined for connected diagrams")
    pairs = diagram.face_pair_edges
    if not pairs:
        return ()
    ed = diagram.edge_darts
    blocks = diagram._orbits.blocks(diagram._walk)
    block_of = [0] * diagram.n
    for b, group in enumerate(blocks):
        for c in group:
            block_of[c] = b
    links: list[list[tuple[int, int]]] = [[] for _ in blocks]
    for lab in {lab for labs in pairs.values() for lab in labs}:
        b1, b2 = block_of[ed[lab][0] >> 2], block_of[ed[lab][1] >> 2]
        links[b1].append((lab, b2))
        links[b2].append((lab, b1))
    out = []
    for faces, labs in pairs.items():
        for e1, e2 in combinations(labs, 2):
            reached = [False] * len(blocks)
            reached[block_of[0]] = True
            stack = [block_of[0]]
            while stack:
                for lab, b in links[stack.pop()]:
                    if not reached[b] and lab != e1 and lab != e2:
                        reached[b] = True
                        stack.append(b)
            side0 = tuple(c for c in range(diagram.n) if reached[block_of[c]])
            side1 = tuple(c for c in range(diagram.n) if not reached[block_of[c]])
            out.append(CompositeCircle((e1, e2), faces, (side0, side1)))
    out.sort(key=lambda cc: cc.edges)
    return tuple(out)


def is_prime(diagram: PlanarDiagram) -> bool:
    """True when no composite circle exists, i.e. no two distinct edges
    share two faces; see ``composite_circles`` for why every such pair is
    composite. Reads the face pairs only, without building sides."""
    if not diagram.is_connected:
        raise DiagramError("composite circles are defined for connected diagrams")
    return not diagram.face_pair_edges


# -- canonical form --------------------------------------------------------


def canonical_rows(
    labels: Sequence[int], alpha: Sequence[int], n: int, *, keep_parity: bool = True
) -> tuple[tuple[int, int, int, int], ...]:
    """Canonical PD rows from flat per-dart labels and the edge involution.

    An isomorphism relabels crossings, rotates each crossing's slots by an
    even amount (preserving over/under), and relabels edges. The encoding
    from a root dart assigns new crossing ids in BFS order; the arrival
    dart at each crossing becomes slot 0 or 1 according to its parity, and
    edges are numbered from 1 by first appearance. The minimum over all
    root darts is canonical. With ``keep_parity`` off, arrival darts
    become slot 0 outright, canonicalizing the underlying projection.
    """
    best: tuple[int, ...] | None = None
    # With parity kept, an odd root encodes identically to the even dart
    # before it, so even roots suffice.
    step = 2 if keep_parity else 1
    for root in range(0, 4 * n, step):
        enc = _encode_from(labels, alpha, n, root, keep_parity, best)
        if enc is not None:
            best = enc
    assert best is not None
    return tuple(tuple(best[4 * c : 4 * c + 4]) for c in range(n))


def _encode_from(labels, alpha, n: int, root: int, keep_parity: bool, best) -> tuple | None:
    """Flat encoding from one root, or None once it exceeds ``best``."""
    new_id = [-1] * n
    offset = [0] * n  # old slot of the dart that became new slot 0
    order: list[int] = []

    def visit(d: int) -> None:
        c = d >> 2
        new_id[c] = len(order)
        order.append(c)
        s = d & 3
        offset[c] = (s - (s & 1)) & 3 if keep_parity else s

    visit(root)
    edge_ids: dict[int, int] = {}
    flat: list[int] = []
    still_equal = best is not None
    k = 0
    while k < len(order):
        c = order[k]
        k += 1
        base = 4 * c
        off = offset[c]
        for new_slot in range(4):
            d = base + ((off + new_slot) & 3)
            lab = labels[d]
            known = edge_ids.get(lab)
            if known is None:
                known = edge_ids[lab] = len(edge_ids) + 1
                other = alpha[d]
                if new_id[other >> 2] == -1:
                    visit(other)
            if still_equal:
                ref = best[len(flat)]
                if known > ref:
                    return None
                if known < ref:
                    still_equal = False
            flat.append(known)
    if len(order) != n:
        raise DiagramError("canonical encoding requires a connected diagram")
    if still_equal:
        return None  # equal to best
    return tuple(flat)


def canonical_encoding(diagram: PlanarDiagram) -> tuple[tuple[int, int, int, int], ...]:
    """Canonical PD rows, minimal over all rotation-system isomorphisms."""
    return canonical_rows(diagram.flat_labels, diagram.alpha, diagram.n)


def shadow_encoding(diagram: PlanarDiagram) -> tuple[tuple[int, int, int, int], ...]:
    """Canonical rows of the underlying projection, ignoring over/under."""
    return canonical_rows(diagram.flat_labels, diagram.alpha, diagram.n, keep_parity=False)


def canonical_code(diagram: PlanarDiagram) -> str:
    return " ".join("X[%d,%d,%d,%d]" % row for row in canonical_encoding(diagram))


def isomorphic(d1: PlanarDiagram, d2: PlanarDiagram) -> bool:
    return canonical_encoding(d1) == canonical_encoding(d2)


def relabel(
    diagram: PlanarDiagram,
    crossing_perm: Sequence[int],
    rotations: Sequence[int],
    edge_map: dict[int, int] | None = None,
) -> PlanarDiagram:
    """Apply an explicit isomorphism: crossing c moves to
    ``crossing_perm[c]``, rotated by ``rotations[c]`` slots, which must be
    even, and ``edge_map`` renames every label when given."""
    if sorted(crossing_perm) != list(range(diagram.n)):
        raise DiagramError("crossing_perm must be a permutation of the crossings")
    if len(rotations) != diagram.n:
        raise DiagramError("rotations must give one rotation per crossing")
    if edge_map and not edge_map.keys() >= set(diagram.edge_labels):
        raise DiagramError("edge_map must rename every edge label")
    if any(r % 2 for r in rotations):
        raise DiagramError("slot rotations must be even to preserve over/under")
    rows: list[tuple[int, int, int, int] | None] = [None] * diagram.n
    for c, row in enumerate(diagram.crossings):
        r = rotations[c] % 4
        rotated = tuple(row[(s + r) % 4] for s in range(4))
        if edge_map:
            rotated = tuple(edge_map[x] for x in rotated)
        rows[crossing_perm[c]] = rotated  # type: ignore[assignment]
    return PlanarDiagram.from_rows(rows)  # type: ignore[arg-type]
