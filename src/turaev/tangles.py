# -*- coding: utf-8 -*-
"""Alternating tangle decomposition and the low-genus classifiers.

The maximally connected alternating tangles of a diagram are the
components of the crossing set under adjacency along alternating edges;
the non-alternating edges are the channel edges between them. The boundary
of each tangle region is traced combinatorially: a channel edge carries
one marked point near each endpoint, and inside every face the marked
points of consecutive non-alternating incidences along the boundary walk
are joined by an arc. Following those arcs yields the boundary circles of
the tangle regions, and with them the cyclic order of each tangle's legs,
the embedded decomposition graph, and whether a tangle region is a disc.

Within a tangle all crossings have the same checkerboard sign: the signs
are defined by slot parity (``PlanarDiagram.signs``), an alternating edge
joining crossings of equal sign and a channel edge crossings of opposite
sign. So adjacent tangles alternate in sign and no channel edge returns to
its own tangle.

Both low-genus classifiers read one object, a chain of 2-tangles: disc
tangles of valence two whose legs split into two rotation-adjacent
pairs, each pair running to one neighbor. Chains are walked on leg darts
through one leg table, ``TangleDecomposition.leg_at``, which places each
leg on its tangle's boundary: the far leg of a channel edge is ``alpha``
of its near leg. ``_follow_chain`` walks such a chain. A genus-one cycle
is the walk closing on itself through every tangle; a genus-two ribbon
is the walk from one junction tangle, a tangle outside the chain, to the
next.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from .pdcore import (
    DiagramError,
    PlanarDiagram,
    Refused,
    _crossing_classes,
    checkerboard,
    edge_alternation,
    is_prime,
)
from .states import turaev_genus
from . import casetable, surgery


@dataclass(frozen=True)
class Tangle:
    """A maximally connected alternating tangle.

    ``boundary_circles`` lists the legs (non-alternating darts based at
    this tangle's crossings) in cyclic order along each boundary circle of
    the tangle region; the tangle is simply connected exactly when there
    is one circle.
    """

    id: int
    crossings: tuple[int, ...]
    sign: int
    boundary_circles: tuple[tuple[int, ...], ...]

    @property
    def legs(self) -> tuple[int, ...]:
        return tuple(sorted(d for circle in self.boundary_circles for d in circle))

    @property
    def boundary(self) -> tuple[int, ...]:
        """Primary boundary circle (the whole boundary when a disc)."""
        return self.boundary_circles[0] if self.boundary_circles else ()

    @property
    def valence(self) -> int:
        return len(self.legs) // 2

    @property
    def simply_connected(self) -> bool:
        return len(self.boundary_circles) <= 1

    @property
    def size(self) -> int:
        return len(self.crossings)


@dataclass(frozen=True)
class ChannelEdge:
    label: int
    darts: tuple[int, int]
    tangles: tuple[int, int]


@dataclass(frozen=True)
class TangleDecomposition:
    diagram: PlanarDiagram
    alternating: bool
    tangles: tuple[Tangle, ...]
    channel_edges: tuple[ChannelEdge, ...]
    channel_faces: tuple[int, ...]

    @cached_property
    def channel_by_label(self) -> dict[int, ChannelEdge]:
        return {ce.label: ce for ce in self.channel_edges}

    @cached_property
    def leg_at(self) -> dict[int, tuple[int, int, int]]:
        """Leg dart -> (tangle id, boundary circle index, position on it)."""
        return {
            leg: (t.id, k, i)
            for t in self.tangles
            for k, circle in enumerate(t.boundary_circles)
            for i, leg in enumerate(circle)
        }

    def adjacent(self, a: int, b: int) -> bool:
        """Whether legs ``a`` and ``b`` are neighbors on one boundary circle."""
        ta, ka, ia = self.leg_at[a]
        tb, kb, ib = self.leg_at[b]
        if (ta, ka) != (tb, kb):
            return False
        size = len(self.tangles[ta].boundary_circles[ka])
        return (ia - ib) % size in (1, size - 1)

    def neighbors(self, tangle_id: int) -> dict[int, list[int]]:
        """Adjacent tangle id -> connecting channel edge labels."""
        out: dict[int, list[int]] = {}
        for ce in self.channel_edges:
            a, b = ce.tangles
            if a == tangle_id:
                out.setdefault(b, []).append(ce.label)
            if b == tangle_id:
                out.setdefault(a, []).append(ce.label)
        return out


def decompose(diagram: PlanarDiagram) -> TangleDecomposition:
    """Split a connected diagram into its alternating tangle structure."""
    if not diagram.is_connected:
        raise DiagramError("tangle decomposition requires a connected diagram")
    alt = edge_alternation(diagram)
    links = ((d1 >> 2, d2 >> 2) for lab, (d1, d2) in diagram.edge_darts.items() if alt[lab])
    crossing_sets = [tuple(g) for g in _crossing_classes(diagram.n, links)]
    signs = diagram.signs
    tangle_of_crossing = {c: tid for tid, crossings in enumerate(crossing_sets) for c in crossings}

    if all(alt.values()):
        whole = Tangle(0, crossing_sets[0], signs[0], ())
        return TangleDecomposition(diagram, True, (whole,), (), ())

    circles = _boundary_circles(diagram)
    per_tangle: dict[int, list[tuple[int, ...]]] = {tid: [] for tid in range(len(crossing_sets))}
    for circle in circles:
        owners = {tangle_of_crossing[d >> 2] for d in circle}
        if len(owners) != 1:
            raise DiagramError("boundary circle spans several tangles")
        per_tangle[owners.pop()].append(circle)
    tangles = tuple(
        Tangle(tid, crossings, signs[crossings[0]], tuple(sorted(per_tangle[tid])))
        for tid, crossings in enumerate(crossing_sets)
    )
    channel = []
    for lab in sorted(l for l, a in alt.items() if not a):
        d1, d2 = diagram.edge_darts[lab]
        t1, t2 = tangle_of_crossing[d1 >> 2], tangle_of_crossing[d2 >> 2]
        channel.append(ChannelEdge(lab, (d1, d2), (t1, t2)))
    face_of_dart = diagram.face_of_dart
    channel_faces = tuple(sorted({face_of_dart[d] for ce in channel for d in ce.darts}))
    return TangleDecomposition(diagram, False, tangles, tuple(channel), channel_faces)


def _boundary_circles(diagram: PlanarDiagram) -> list[tuple[int, ...]]:
    """Orbits of the tangle-boundary successor on non-alternating darts.

    A non-alternating dart stands for the marked point near its tail. The
    successor crosses to the far side of the edge and follows the arc in
    that face to the next non-alternating incidence.
    """
    alpha = diagram.alpha
    next_non_alt: dict[int, int] = {}
    for face in diagram.faces:
        idxs = [i for i, d in enumerate(face.darts) if not (d ^ alpha[d]) & 1]
        if len(idxs) % 2:
            raise DiagramError(f"face {face.id} has an odd number of non-alternating incidences")
        for k, i in enumerate(idxs):
            j = idxs[(k + 1) % len(idxs)]
            next_non_alt[face.darts[i]] = face.darts[j]
    succ = {}
    for d in next_non_alt:
        succ[alpha[d]] = next_non_alt[d]
    seen = set()
    circles = []
    for start in sorted(succ):
        if start in seen:
            continue
        circle = []
        d = start
        while d not in seen:
            seen.add(d)
            circle.append(d)
            d = succ[d]
        k = circle.index(min(circle))
        circles.append(tuple(circle[k:] + circle[:k]))
    return circles


# -- chains of 2-tangles -------------------------------------------------------


def _pair_split(dec: TangleDecomposition, t: Tangle) -> tuple[tuple[int, int], tuple[int, int]] | None:
    """Split a valence-2 disc tangle's legs into two parallel pairs.

    A valid split groups the cyclic legs into adjacent pairs whose far
    legs, ``alpha`` of the pair, are adjacent legs of one other tangle.
    """
    if t.valence != 2 or not t.simply_connected:
        return None
    alpha = dec.diagram.alpha
    a, b, c, d = t.boundary
    for pairs in (((a, b), (c, d)), ((b, c), (d, a))):
        if all(dec.adjacent(alpha[x], alpha[y]) for x, y in pairs):
            return pairs
    return None


def _follow_chain(
    dec: TangleDecomposition, chain_tangles, start: int, pair: tuple[int, int]
) -> tuple[list[int], list[tuple[int, int]], int | None]:
    """Walk a chain of 2-tangles out of tangle ``start``.

    The walk leaves ``start`` on its legs ``pair``, enters each tangle of
    ``chain_tangles`` on two adjacent legs and leaves on the other two,
    and stops at a tangle outside ``chain_tangles`` or back at ``start``.
    Returns the chain, the leg pairs left by (``pair`` first), and the
    tangle reached, which is None when the walk breaks off: a pair's far
    legs lie in two tangles, or are not adjacent in a chain tangle.
    Leaving by the legs not entered, not by the tangle's own split,
    matters when two tangles share four edges: both leg pairings are
    splits, and each tangle may pick either.
    """
    alpha = dec.diagram.alpha
    leg_at = dec.leg_at
    chain: list[int] = []
    crossed = [pair]
    while True:
        far = (alpha[pair[0]], alpha[pair[1]])
        cur = leg_at[far[0]][0]
        if leg_at[far[1]][0] != cur:
            return chain, crossed, None
        if cur == start or cur not in chain_tangles:
            return chain, crossed, cur
        if not dec.adjacent(*far):
            return chain, crossed, None
        chain.append(cur)
        pair = tuple(d for d in dec.tangles[cur].boundary if d not in far)
        crossed.append(pair)


# -- genus-one classification ------------------------------------------------


@dataclass(frozen=True)
class CycleStructure:
    """A cycle of alternating 2-tangles.

    ``order`` lists tangle ids around the cycle; ``junctions[i]`` holds the
    two channel edge labels joining ``order[i]`` to ``order[i+1]``. The
    two-tangle cycle (four parallel channel edges) is the degenerate case
    ``n == 2``.
    """

    decomposition: TangleDecomposition
    order: tuple[int, ...]
    junctions: tuple[tuple[int, int], ...]
    white_faces: tuple[int, int]

    @property
    def n(self) -> int:
        return len(self.order)

    @property
    def tangles(self) -> tuple[Tangle, ...]:
        return tuple(self.decomposition.tangles[t] for t in self.order)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(t.size for t in self.tangles)

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(t.sign for t in self.tangles)


def classify_genus_one(diagram: PlanarDiagram) -> CycleStructure:
    """Recognize a cycle of alternating 2-tangles; Refused with a reason
    otherwise. Succeeds exactly on the prime connected diagrams of Turaev
    genus one.

    The cycle is the chain walk through every tangle that leaves tangle 0
    on one pair of its ``_pair_split``, the pair with the smaller (far
    tangle, sorted labels), and closes on tangle 0.
    """
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

    split = _pair_split(dec, dec.tangles[0])
    if split is None:
        raise Refused("channel edges are not rotation-adjacent junction pairs")
    labels = lambda pair: tuple(sorted(diagram.label(d) for d in pair))
    _, _, pair = min((dec.leg_at[diagram.alpha[p[0]]][0], labels(p), p) for p in split)
    chain, crossed, end = _follow_chain(dec, range(n), 0, pair)
    if end is None:
        raise Refused("channel edges are not rotation-adjacent junction pairs")
    if len(chain) != n - 1:
        raise Refused("junction pattern is not a single cycle covering every tangle")

    coloring = checkerboard(diagram)
    white = _two_face_color_signature(dec, coloring)
    if white is None:
        raise Refused("non-alternating edges are not carried by two faces of one color")
    return CycleStructure(dec, (0, *chain), tuple(map(labels, crossed)), white)


def _two_face_color_signature(dec: TangleDecomposition, coloring) -> tuple[int, int] | None:
    """The two same-color faces that carry all non-alternating edges.

    The two faces along an edge have opposite colors, so the faces of one
    color that carry channel edges are the channel faces of that color.
    """
    for color in ("white", "black"):
        carriers = tuple(f for f in dec.channel_faces if coloring.color(f) == color)
        if len(carriers) == 2:
            return carriers  # type: ignore[return-value]
    return None


# -- ring construction ---------------------------------------------------------

TYPE_BY_SIGN = {1: "u", -1: "o"}
_COMPASS = {
    "u": {"NW": 0, "SW": 1, "SE": 2, "NE": 3},
    "o": {"NW": 1, "SW": 2, "SE": 3, "NE": 0},
}


@dataclass(frozen=True)
class RingPayload:
    """One tangle of a ring under construction: PD rows with placeholder
    zeros at the four legs, and the leg positions (UL, LL, LR, UR)."""

    rows: tuple[tuple[int, int, int, int], ...]
    legs: tuple[tuple[int, int], tuple[int, int], tuple[int, int], tuple[int, int]]

    @property
    def size(self) -> int:
        return len(self.rows)


def twist_payload(size: int, kind: str, *, vertical: bool = False) -> RingPayload:
    """An alternating twist of ``size`` same-kind crossings as a 2-tangle.

    Kind "u" puts the NW-SE strand under, kind "o" over. A horizontal
    twist chains crossings left to right; a vertical twist stacks them top
    to bottom, exposing its internal edges to the neighboring channel
    faces. Internal edges are labeled 1..2(size-1); legs are zeros.
    """
    compass = _COMPASS[kind]
    rows = [[0, 0, 0, 0] for _ in range(size)]
    label = 0
    for j in range(size - 1):
        if vertical:
            label += 1
            rows[j][compass["SW"]] = label
            rows[j + 1][compass["NW"]] = label
            label += 1
            rows[j][compass["SE"]] = label
            rows[j + 1][compass["NE"]] = label
        else:
            label += 1
            rows[j][compass["NE"]] = label
            rows[j + 1][compass["NW"]] = label
            label += 1
            rows[j][compass["SE"]] = label
            rows[j + 1][compass["SW"]] = label
    if vertical:
        legs = (
            (0, compass["NW"]),
            (size - 1, compass["SW"]),
            (size - 1, compass["SE"]),
            (0, compass["NE"]),
        )
    else:
        legs = (
            (0, compass["NW"]),
            (0, compass["SW"]),
            (size - 1, compass["SE"]),
            (size - 1, compass["NE"]),
        )
    return RingPayload(tuple(tuple(r) for r in rows), legs)


def assemble_ring(payloads: list[RingPayload]) -> tuple[PlanarDiagram, list[tuple[int, int]]]:
    """Close payloads into a ring: UR_i joins UL_{i+1}, LR_i joins LL_{i+1}.

    Returns the diagram and the junction labels [(upper_i, lower_i)];
    junction i sits between payload i and payload i+1 (mod n).
    """
    rows: list[list[int]] = []
    offsets: list[int] = []
    label_base = 0
    for p in payloads:
        offsets.append(len(rows))
        local_max = max((x for row in p.rows for x in row), default=0)
        for row in p.rows:
            rows.append([x + label_base if x else 0 for x in row])
        label_base += local_max
    junctions = []
    n = len(payloads)
    fresh = label_base
    for i in range(n):
        j = (i + 1) % n
        upper, lower = fresh + 1, fresh + 2
        fresh += 2
        ur, lr = payloads[i].legs[3], payloads[i].legs[2]
        ul, ll = payloads[j].legs[0], payloads[j].legs[1]
        rows[offsets[i] + ur[0]][ur[1]] = upper
        rows[offsets[j] + ul[0]][ul[1]] = upper
        rows[offsets[i] + lr[0]][lr[1]] = lower
        rows[offsets[j] + ll[0]][ll[1]] = lower
        junctions.append((upper, lower))
    return PlanarDiagram.from_rows(rows), junctions


def gen_cycle(signs: tuple[int, ...], sizes: tuple[int, ...]) -> PlanarDiagram:
    """Build a cycle of alternating twist 2-tangles with the given signs.

    Signs must alternate cyclically (so their number is even and at least
    two): equal adjacent signs would make the junction edges alternating
    and merge the tangles, and constant signs would give an alternating
    diagram.
    """
    diagram, _ = gen_cycle_info(signs, sizes)
    return diagram


def gen_cycle_info(
    signs: tuple[int, ...], sizes: tuple[int, ...], vertical: tuple[int, ...] = ()
) -> tuple[PlanarDiagram, list[tuple[int, int]]]:
    signs = tuple(signs)
    sizes = tuple(sizes)
    if len(signs) != len(sizes) or len(signs) < 2:
        raise DiagramError("need matching sign and size sequences of length >= 2")
    if any(s not in (1, -1) for s in signs):
        raise DiagramError("signs must be +1 or -1")
    if any(k < 1 for k in sizes):
        raise DiagramError("tangle sizes must be positive")
    if len(set(signs)) == 1:
        raise DiagramError("constant signs would give an alternating diagram")
    n = len(signs)
    if any(signs[i] == signs[(i + 1) % n] for i in range(n)):
        raise DiagramError("adjacent equal signs would merge the tangles; signs must alternate")
    payloads = [
        twist_payload(size, TYPE_BY_SIGN[sign], vertical=i in vertical)
        for i, (sign, size) in enumerate(zip(signs, sizes))
    ]
    diagram, junctions = assemble_ring(payloads)
    if turaev_genus(diagram) != 1:
        raise DiagramError("generated cycle does not have genus one")
    if not is_prime(diagram):
        raise DiagramError("generated cycle is not prime")
    return diagram, junctions


# -- ribbon contraction and the genus-two classifier --------------------------


@dataclass(frozen=True)
class Ribbon:
    """A maximal chain of pair-linked 2-tangles between junction tangles.

    Ends are (junction id, pair of junction legs); ``interior`` lists the
    chain tangles from end 0 to end 1 and is never empty: two channel
    edges joining junctions directly stay single edges in the descriptor.
    """

    id: int
    ends: tuple[tuple[int, tuple[int, int]], tuple[int, tuple[int, int]]]
    interior: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.interior)

    @property
    def parity(self) -> int:
        return len(self.interior) % 2


@dataclass(frozen=True)
class Genus2Descriptor:
    """Embedded structure of the decomposition after ribbon contraction.

    ``junction_words`` lists, per junction tangle and boundary circle, the
    cyclic sequence of leg annotations ("r", ribbon id, end) or ("s",
    single edge id, 0); a junction's valence is half its annotations, and
    it is a disc when it has one circle. ``case_label`` is the genus-two
    case 1-8 that ``casetable`` reads off this structure, or None before
    classification. ``canonical``, invariant under relabeling and mirror,
    is the least breadth-first walk over the junctions' boundary circles
    from any root leg, one direction for all: a connection is named when
    first seen, and the circle of its other end is entered there. Each
    circle reads ``[j<junction>v<valence><d|a>:<symbols>]`` (d a disc), a
    symbol ``r<k>p<parity>`` or ``s<k>``, all numbered by first appearance;
    a cycle of n 2-tangles reads ``cycle[n=<n>,parity=<n mod 2>]``.
    """

    valences: tuple[int, ...]
    non_simply_connected: bool
    all_two_cycle: bool
    junction_words: tuple[tuple[tuple[tuple[str, int, int], ...], ...], ...]
    ribbons: tuple[Ribbon, ...]
    singles: tuple[int, ...]
    case_label: int | None = None

    @property
    def ribbon_parities(self) -> tuple[int, ...]:
        return tuple(r.parity for r in self.ribbons)

    @cached_property
    def canonical(self) -> str:
        if self.all_two_cycle:
            n = len(self.valences)
            return f"cycle[n={n},parity={n % 2}]"
        return _canonical_junction_structure(self.junction_words, self.ribbons)

    def to_json_dict(self) -> dict:
        return {
            "valences": list(self.valences),
            "nonSimplyConnected": self.non_simply_connected,
            "allTwoCycle": self.all_two_cycle,
            "ribbonParities": list(self.ribbon_parities),
            "ribbonLengths": [r.length for r in self.ribbons],
            "singleEdges": len(self.singles),
            "canonical": self.canonical,
            "case": self.case_label,
        }


def contract_ribbons(dec: TangleDecomposition) -> Genus2Descriptor:
    """Collapse maximal chains of pair-linked 2-tangles into ribbons.

    Junction vertices are the tangles that are not chain tangles; each
    ribbon is one chain walk out of a junction. When every tangle is a
    chain tangle the diagram is one closed ribbon cycle. Ribbon lengths
    are recorded with their parity.
    """
    if dec.alternating:
        raise Refused("alternating diagram has no channel structure")
    splits: dict[int, tuple[tuple[int, int], tuple[int, int]]] = {}
    for t in dec.tangles:
        sp = _pair_split(dec, t)
        if sp is not None:
            splits[t.id] = sp
    junctions = sorted(t.id for t in dec.tangles if t.id not in splits)
    valences = tuple(sorted(t.valence for t in dec.tangles))
    nsc = any(not t.simply_connected for t in dec.tangles)

    if not junctions:
        return Genus2Descriptor(valences, nsc, True, (), (), ())

    alpha = dec.diagram.alpha
    ribbons: list[Ribbon] = []
    singles: list[int] = []
    annotation: dict[int, tuple[str, int, int]] = {}
    for jid in junctions:
        for circle in dec.tangles[jid].boundary_circles:
            for leg in circle:
                if leg in annotation:
                    continue
                partner = _ribbon_start_partner(dec, splits, leg)
                if partner is not None:
                    start_pair = tuple(sorted((leg, partner)))
                    rib = _walk_ribbon(dec, splits, jid, start_pair, len(ribbons))
                    ribbons.append(rib)
                    for end_index, (_, legs) in enumerate(rib.ends):
                        for end_leg in legs:
                            annotation[end_leg] = ("r", rib.id, end_index)
                else:
                    lab = dec.diagram.label(leg)
                    singles.append(lab)
                    annotation[leg] = annotation[alpha[leg]] = ("s", lab, 0)

    words = tuple(
        tuple(tuple(annotation[leg] for leg in c) for c in dec.tangles[jid].boundary_circles)
        for jid in junctions
    )
    return Genus2Descriptor(valences, nsc, False, words, tuple(ribbons), tuple(sorted(singles)))


def _ribbon_start_partner(dec, splits, leg) -> int | None:
    """The junction leg paired with ``leg`` through a chain tangle.

    When the edge of ``leg`` enters a chain tangle, the partner is
    ``alpha`` of the other leg of the split pair it enters: that pair's
    far legs are adjacent legs of one tangle, so the partner sits beside
    ``leg`` on its junction. Direct junction-to-junction edges have no
    partner and stay single. Chains make ribbons, singles stay single,
    and nothing depends on iteration order.
    """
    alpha = dec.diagram.alpha
    far = alpha[leg]
    tid = dec.leg_at[far][0]
    if tid not in splits:
        return None
    a, b = next(pair for pair in splits[tid] if far in pair)
    return alpha[b if a == far else a]


def _walk_ribbon(dec, splits, start_jid, start_pair, rib_id) -> Ribbon:
    """The ribbon of the chain walk leaving ``start_jid`` on its legs
    ``start_pair``."""
    interior, crossed, end = _follow_chain(dec, splits, start_jid, start_pair)
    if end is None:
        raise DiagramError("ribbon crosses an edge pair that is not a junction pair")
    alpha = dec.diagram.alpha
    end_legs = tuple(sorted(alpha[d] for d in crossed[-1]))
    return Ribbon(rib_id, ((start_jid, start_pair), (end, end_legs)), tuple(interior))


def _canonical_junction_structure(words, ribbons) -> str:
    """``Genus2Descriptor.canonical``: the least walk from any root leg.

    A ribbon end fills two neighboring legs and collapses to one symbol,
    so every connection occurs twice. A dry queue, at the start or between
    the circles of an annulus, branches into every entry of every unentered
    circle of a junction already read; only the walks with the least
    string so far read on.
    """
    parity = {r.id: r.parity for r in ribbons}
    circles = []  # (junction, valence and disc tag, collapsed symbols)
    for j, word in enumerate(words):
        head = f"v{sum(map(len, word)) // 2}{'d' if len(word) == 1 else 'a'}"
        for w in word:
            syms = [a[:2] for i, a in enumerate(w) if a[0] == "s" or a != w[i - 1]]
            circles.append((j, head, syms or [w[0][:2]]))
    at: dict[tuple[str, int], list[tuple[int, int]]] = {}
    for c, (_, _, syms) in enumerate(circles):
        for i, key in enumerate(syms):
            at.setdefault(key, []).append((c, i))
    if any(len(pair) != 2 for pair in at.values()):
        raise DiagramError("a junction connection does not occur exactly twice")
    other = {pair[k]: pair[1 - k] for pair in at.values() for k in (0, 1)}

    def read(walk) -> list:
        step, names, junctions, seen, queue = walk
        if not queue:
            free = [c for c, (j, *_) in enumerate(circles) if c not in seen and (j in junctions or not seen)]
            if not free:
                raise DiagramError("the junction walk misses a circle")
            entries = [(c, i) for c in free for i in range(len(circles[c][2]))]
            return [w for e in entries for w in read((step, dict(names), dict(junctions), seen | {e[0]}, [e]))]
        c, start = queue.pop(0)
        j, head, syms = circles[c]
        out = []
        for i in [(start + step * k) % len(syms) for k in range(len(syms))]:
            key = syms[i]
            if key not in names:
                names[key] = len(names)
                if other[c, i][0] not in seen:
                    seen.add(other[c, i][0])
                    queue.append(other[c, i])
            out.append(f"{key[0]}{names[key]}" + (f"p{parity[key[1]]}" if key[0] == "r" else ""))
        junctions.setdefault(j, len(junctions))
        return [(f"[j{junctions[j]}{head}:{','.join(out)}]", walk)]

    walks = [(step, {}, {}, set(), []) for step in (1, -1)]
    pieces = []
    for _ in circles:
        ways = [way for walk in walks for way in read(walk)]
        pieces.append(min(piece for piece, _ in ways))
        walks = [walk for piece, walk in ways if piece == pieces[-1]]
    return "".join(pieces)


def classify_genus_two(diagram: PlanarDiagram) -> Genus2Descriptor:
    """Assign one of the eight genus-two structure labels.

    Refuses diagrams that are not prime, connected, genus two. The label
    is computed from the ribbon structure by ``casetable.lookup_case``; a
    structure that fits none of the eight cases raises ``DiagramError``.
    """
    if not diagram.is_connected:
        raise DiagramError("classification requires a connected diagram")
    if not is_prime(diagram):
        raise Refused("composite diagram")
    g = turaev_genus(diagram)
    if g != 2:
        raise Refused(f"Turaev genus is {g}, not 2")
    dec = decompose(diagram)
    descriptor = contract_ribbons(dec)
    return replace(descriptor, case_label=casetable.lookup_case(descriptor, dec))


# -- genus-two generator -------------------------------------------------------


@dataclass(frozen=True)
class Genus2Recipe:
    """Build recipe: a genus-one cycle base, alternating pieces joined to
    chosen base edges, and one final splice that reverses a cutting arc
    and raises the genus to two.

    Pieces are closed alternating twists, given as (size, sign, base edge
    selector). Edge selectors: ``("junction", i, k)`` is the upper (k = 0)
    or lower (k = 1) edge of base junction i; ``("internal", t, k)`` the
    k-th internal edge of base tangle t; ``("piece", p, k)`` the k-th
    closure edge (k in 0, 1) of piece p. The splice selects two edges of
    the joined diagram that must share a face.
    """

    base_signs: tuple[int, ...]
    base_sizes: tuple[int, ...]
    pieces: tuple[tuple[int, int, tuple[str, int, int]], ...]
    splice: tuple[tuple[str, int, int], tuple[str, int, int]]
    base_vertical: tuple[int, ...] = ()

    @staticmethod
    def one_piece(
        base_signs, base_sizes, piece_size, piece_sign, attach1, attach2, base_vertical=()
    ) -> "Genus2Recipe":
        """A single piece joined at ``attach1``; the splice runs from the
        piece's free closure edge to ``attach2``."""
        return Genus2Recipe(
            tuple(base_signs),
            tuple(base_sizes),
            ((piece_size, piece_sign, attach1),),
            (("piece", 0, 1), attach2),
            tuple(base_vertical),
        )

    @staticmethod
    def across_junctions(
        base_signs, base_sizes, piece_size, piece_sign, junctions: tuple[int, int]
    ) -> "Genus2Recipe":
        j1, j2 = junctions
        return Genus2Recipe.one_piece(
            base_signs, base_sizes, piece_size, piece_sign,
            ("junction", j1, 0), ("junction", j2, 0),
        )


def _closed_twist(size: int, sign: int) -> PlanarDiagram:
    """The alternating closure of a twist: two parallel strands closed up."""
    payload = twist_payload(size, TYPE_BY_SIGN[sign])
    rows = [list(r) for r in payload.rows]
    base = max((x for row in rows for x in row), default=0)
    top, bottom = base + 1, base + 2
    (ul, ll, lr, ur) = payload.legs
    rows[ur[0]][ur[1]] = top
    rows[ul[0]][ul[1]] = top
    rows[lr[0]][lr[1]] = bottom
    rows[ll[0]][ll[1]] = bottom
    return PlanarDiagram.from_rows(rows)


def _resolve_selector(selector, junctions, base, piece_edges) -> int:
    kind, a, b = selector
    if kind == "junction":
        if not (0 <= a < len(junctions)) or b not in (0, 1):
            raise DiagramError(f"bad junction selector {selector}")
        return junctions[a][b]
    if kind == "internal":
        dec = decompose(base)
        if not (0 <= a < len(dec.tangles)):
            raise DiagramError(f"bad tangle selector {selector}")
        alt = edge_alternation(base)
        tangle = dec.tangles[a]
        internal = sorted(
            lab
            for lab in base.edge_labels
            if alt[lab]
            and all((d >> 2) in tangle.crossings for d in base.edge_darts[lab])
        )
        if not (0 <= b < len(internal)):
            raise DiagramError(f"tangle {a} has no internal edge {b}")
        return internal[b]
    if kind == "piece":
        if not (0 <= a < len(piece_edges)) or b not in (0, 1):
            raise DiagramError(f"bad piece selector {selector}")
        lab = piece_edges[a][b]
        if lab is None:
            raise DiagramError(f"closure edge {b} of piece {a} was consumed by its join")
        return lab
    raise DiagramError(f"unknown selector kind {kind!r}")


def gen_genus2(recipe: Genus2Recipe) -> PlanarDiagram:
    """Run a recipe and return a prime connected genus-two diagram.

    The base is a cycle of alternating 2-tangles. Each piece is joined to
    its base edge (a connected sum, keeping genus one); the final splice
    between two edges sharing a face reverses a cutting arc and raises the
    genus. The postconditions are checked and a recipe that fails them is
    rejected with diagnostics.
    """
    if not recipe.base_signs or not recipe.base_sizes or not recipe.pieces:
        raise DiagramError("empty recipe")
    base, junctions = gen_cycle_info(recipe.base_signs, recipe.base_sizes, recipe.base_vertical)
    current = base
    piece_edges: list[list[int | None]] = []
    for size, sign, join_sel in recipe.pieces:
        piece = _closed_twist(size, sign)
        closure = (max(piece.edge_labels) - 1, max(piece.edge_labels))
        join_edge = _resolve_selector(join_sel, junctions, base, piece_edges)
        if join_edge not in current.edge_labels:
            raise DiagramError(f"join edge {join_edge} was already consumed")
        shift = max(current.edge_labels)
        d_cur = current.edge_darts[join_edge][0]
        d_piece = piece.edge_darts[closure[0]][0]
        current = surgery.connect_sum(current, d_cur, piece, d_piece)
        piece_edges.append([None, closure[1] + shift])
    lab1 = _resolve_selector(recipe.splice[0], junctions, base, piece_edges)
    lab2 = _resolve_selector(recipe.splice[1], junctions, base, piece_edges)
    if lab1 == lab2:
        raise DiagramError("splice selects one edge twice")
    if lab1 not in current.edge_labels or lab2 not in current.edge_labels:
        raise DiagramError("splice edge was consumed by a join")
    target = None
    for face in current.faces:
        labs = [current.label(d) for d in face.darts]
        if lab1 in labs and lab2 in labs:
            target = (face.id, labs.index(lab1), labs.index(lab2))
            break
    if target is None:
        raise DiagramError(f"splice edges {lab1}, {lab2} do not share a face")
    result, _ = surgery.surger_arc(current, *target)
    if not result.is_connected:
        raise DiagramError("recipe produced a disconnected diagram")
    g = turaev_genus(result)
    if g != 2:
        raise DiagramError(f"recipe produced genus {g}, not 2")
    if not is_prime(result):
        raise DiagramError("recipe produced a composite diagram")
    return result
