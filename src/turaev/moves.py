# -*- coding: utf-8 -*-
"""Flypes, twist-region cancellation, and the almost-alternating reduction.

These moves act on a genus-one diagram through its cycle of alternating
2-tangles: the cycle is cut into payloads (tangle contents with four legs
UL, LL, LR, UR), rearranged, and reassembled into a diagram. A flype
slides a single-crossing tangle past its neighbor, turning the neighbor
over about the horizontal axis; a turned-over tangle has each crossing's
slots reversed in cyclic order with the strands' over/under exchanged,
which keeps every crossing's handedness. Reidemeister-II cancellation
removes adjacent single-crossing tangles joined by non-alternating edges.
Flypes preserve the crossing count, cancellations remove exactly two
crossings, and neither changes the Turaev genus; all of that is asserted
on every application.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .pdcore import (
    DiagramError,
    PlanarDiagram,
    Refused,
    is_alternating,
    is_prime,
)
from .states import INADEQUATE, loop_crossings, turaev_genus
from .tangles import RingPayload, assemble_ring, classify_genus_one, decompose
from . import surgery


class PipelineRefused(Refused):
    """The reduction pipeline stopped; carries the intermediate diagram."""

    def __init__(self, reason: str, intermediate: PlanarDiagram | None = None):
        super().__init__(reason)
        self.intermediate = intermediate


@dataclass(frozen=True)
class TangleUnit:
    """A cycle position: payload plus the original crossings it carries."""

    payload: RingPayload
    origin: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.payload.rows)


@dataclass(frozen=True)
class CycleOfTangles:
    """A cycle of alternating 2-tangles with its payloads.

    ``twist`` marks a cyclically contiguous run of unit indices forming
    the working twist region. The assembled diagram is built on first use
    and kept, so each cycle is built once however often it is read.
    """

    units: tuple[TangleUnit, ...]
    twist: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.units)

    @property
    def crossing_count(self) -> int:
        return sum(u.size for u in self.units)

    @cached_property
    def _assembled(self) -> PlanarDiagram:
        diagram, _ = assemble_ring([u.payload for u in self.units])
        return diagram

    def reconstruct(self) -> PlanarDiagram:
        return self._assembled

    def with_twist(self, twist: tuple[int, ...]) -> "CycleOfTangles":
        """The same cycle with ``twist`` marked, keeping the diagram if it
        is already built."""
        out = CycleOfTangles(self.units, twist)
        if "_assembled" in self.__dict__:
            out.__dict__["_assembled"] = self._assembled
        return out


def cycle_of_tangles(diagram: PlanarDiagram) -> CycleOfTangles:
    """Cut a genus-one diagram into its cycle payloads.

    The reconstruction of the result is isomorphic to the input.
    """
    cyc = classify_genus_one(diagram)
    dec = cyc.decomposition
    alpha = diagram.alpha
    # Tangle 0's UL and LL are its legs on the last junction, UL the
    # smaller; each later tangle's UL and LL are the far legs of the
    # previous UR and LR. LR and UR follow LL along the boundary.
    ul, ll = sorted(
        d for lab in cyc.junctions[-1] for d in diagram.edge_darts[lab] if dec.leg_at[d][0] == cyc.order[0]
    )
    arrangements: list[tuple[int, int, int, int]] = []
    for tid in cyc.order:
        circle = dec.tangles[tid].boundary
        k = dec.leg_at[ul][2]
        step = 1 if circle[(k + 1) % 4] == ll else -1
        if circle[(k + step) % 4] != ll:
            raise DiagramError("tangle legs do not split between its two junctions")
        lr, ur = circle[(k + 2 * step) % 4], circle[(k + 3 * step) % 4]
        arrangements.append((ul, ll, lr, ur))
        ul, ll = alpha[ur], alpha[lr]
    if ul != arrangements[0][0]:
        raise DiagramError("cycle payloads do not close up")

    units = []
    for i, tid in enumerate(cyc.order):
        tangle = dec.tangles[tid]
        crossings = tangle.crossings
        local = {c: k for k, c in enumerate(crossings)}
        leg_positions = {(d >> 2, d & 3) for d in arrangements[i]}
        internal = sorted(
            {
                diagram.crossings[c][s]
                for c in crossings
                for s in range(4)
                if (c, s) not in leg_positions
            }
        )
        relabel = {lab: k + 1 for k, lab in enumerate(internal)}
        rows = []
        for c in crossings:
            rows.append(
                tuple(
                    0 if (c, s) in leg_positions else relabel[diagram.crossings[c][s]]
                    for s in range(4)
                )
            )
        legs = tuple((local[d >> 2], d & 3) for d in arrangements[i])
        units.append(TangleUnit(RingPayload(tuple(rows), legs), crossings))  # type: ignore[arg-type]
    return CycleOfTangles(tuple(units))


def _serial_sites(unit: TangleUnit) -> list[TangleUnit] | None:
    """Split a payload into single-crossing sites when it is a serial
    twist chain: crossings in a row, consecutive ones joined by two
    parallel edges, entered at the unit's left legs and left at its right
    legs. Returns None when the payload is not such a chain."""
    payload = unit.payload
    if payload.size == 1:
        return [unit]
    rows = payload.rows
    (ul, ll, lr, ur) = payload.legs
    if ul[0] != ll[0] or lr[0] != ur[0]:
        return None
    edge_at = lambda pos: rows[pos[0]][pos[1]]
    cur, ul_slot = ul
    if ll != (cur, (ul_slot + 1) % 4):
        return None
    sites: list[TangleUnit] = []
    visited = set()
    while True:
        if cur in visited:
            return None
        visited.add(cur)
        lr_slot, ur_slot = (ul_slot + 2) % 4, (ul_slot + 3) % 4
        legs = ((0, ul_slot), (0, (ul_slot + 1) % 4), (0, lr_slot), (0, ur_slot))
        sites.append(TangleUnit(RingPayload(((0, 0, 0, 0),), legs), (unit.origin[cur],)))
        if cur == lr[0]:
            if (cur, lr_slot) != lr or (cur, ur_slot) != ur:
                return None
            break
        upper_edge = rows[cur][ur_slot]
        lower_edge = rows[cur][lr_slot]
        if not upper_edge or not lower_edge or upper_edge == lower_edge:
            return None
        nxt = None
        nxt_ul = None
        for c2 in range(len(rows)):
            if c2 == cur:
                continue
            if upper_edge in rows[c2]:
                if nxt is not None:
                    return None
                nxt = c2
                nxt_ul = rows[c2].index(upper_edge)
        if nxt is None or lower_edge not in rows[nxt]:
            return None
        if rows[nxt].index(lower_edge) != (nxt_ul + 1) % 4:
            return None
        cur, ul_slot = nxt, nxt_ul
    if len(visited) != payload.size:
        return None
    return sites


def split_twist_sites(cycle: CycleOfTangles) -> CycleOfTangles:
    """Refine a cycle by splitting serial twist-chain tangles into
    single-crossing sites; other tangles stay whole. The reconstruction
    is unchanged up to relabeling."""
    units: list[TangleUnit] = []
    for unit in cycle.units:
        sites = _serial_sites(unit)
        units.extend(sites if sites is not None else [unit])
    return CycleOfTangles(tuple(units))


def _turn_over(payload: RingPayload) -> RingPayload:
    """Turn a payload over about the horizontal axis.

    Slots reverse their cyclic order and the strands exchange over and
    under, which is a rotation in space: handedness is preserved. Legs
    swap top and bottom on each side.
    """
    rows = []
    for (a, b, c, d) in payload.rows:
        reversed_row = (a, d, c, b)
        rows.append(reversed_row[3:] + reversed_row[:3])  # over/under exchange
    ul, ll, lr, ur = payload.legs
    remap = lambda leg: (leg[0], leg[1] ^ 1)
    legs = (remap(ll), remap(ul), remap(ur), remap(lr))
    return RingPayload(tuple(rows), legs)  # type: ignore[arg-type]


def flype_adjacent(cycle: CycleOfTangles, i: int) -> CycleOfTangles:
    """Flype the single-crossing tangle at position i past position i+1.

    The two positions swap and the passed-over tangle is turned over; the
    reconstruction keeps its crossing count and Turaev genus, asserted.
    """
    n = cycle.n
    i %= n
    if cycle.units[i].size != 1:
        raise DiagramError(f"position {i} does not hold a single-crossing tangle")
    j = (i + 1) % n
    before = cycle.reconstruct()
    g = turaev_genus(before)
    units = list(cycle.units)
    moved = units[i]
    turned = TangleUnit(_turn_over(units[j].payload), units[j].origin)
    units[i], units[j] = turned, moved
    twist = tuple(j if k == i else i if k == j else k for k in cycle.twist)
    out = CycleOfTangles(tuple(units), twist)
    after = out.reconstruct()
    if after.n != before.n:
        raise DiagramError("flype changed the crossing count")
    if turaev_genus(after) != g:
        raise DiagramError("flype changed the Turaev genus")
    return out


def _junction_non_alternating(cycle: CycleOfTangles, i: int) -> bool:
    """Whether the junction edges between units i and i+1 are
    non-alternating (equal slot parity at both ends)."""
    j = (i + 1) % cycle.n
    ur = cycle.units[i].payload.legs[3]
    ul = cycle.units[j].payload.legs[0]
    return (ur[1] & 1) == (ul[1] & 1)


def rii_cancel(cycle: CycleOfTangles) -> CycleOfTangles:
    """Cancel adjacent single-crossing pairs in the marked twist region.

    A pair of neighboring single-crossing tangles joined by two
    non-alternating edges is a Reidemeister-II pair; each cancellation
    removes both crossings. Cancellations that would change the Turaev
    genus of the reconstruction (possible only when the whole cycle
    degenerates) are skipped. The twist marker shrinks accordingly.
    """
    if not cycle.twist:
        raise DiagramError("no twist region is marked")
    current = cycle
    changed = True
    while changed:
        changed = False
        run = current.twist
        pairs = [(run[k], run[k + 1]) for k in range(len(run) - 1)]
        if len(run) == current.n and len(run) > 1:
            pairs.append((run[-1], run[0]))
        before = current.reconstruct()
        for i, j in pairs:
            if (i + 1) % current.n != j:
                continue
            if current.units[i].size != 1 or current.units[j].size != 1:
                continue
            if not _junction_non_alternating(current, i):
                continue
            candidate_units = tuple(u for k, u in enumerate(current.units) if k not in (i, j))
            if len(candidate_units) < 2:
                continue  # the cycle itself would vanish
            remap = {}
            shift = 0
            for k in range(current.n):
                if k in (i, j):
                    shift += 1
                    continue
                remap[k] = k - shift
            candidate = CycleOfTangles(
                candidate_units, tuple(remap[k] for k in run if k not in (i, j))
            )
            after = candidate.reconstruct()
            if turaev_genus(after) != turaev_genus(before):
                continue
            if after.n != before.n - 2:
                raise DiagramError("cancellation must remove exactly two crossings")
            current = candidate
            changed = True
            break
    return current


def is_almost_alternating(diagram: PlanarDiagram) -> bool:
    """True when one over/under switch makes every edge alternating: a
    switch flips its crossing's checkerboard sign, and a connected diagram
    is alternating exactly when all its signs agree.
    """
    if not diagram.is_connected:
        raise DiagramError("defined for connected diagrams")
    plus = sum(s > 0 for s in diagram.signs.values())
    if plus in (0, diagram.n):
        raise Refused("diagram is already alternating")
    return 1 in (plus, diagram.n - plus)


def almost_alternating_form(
    diagram: PlanarDiagram, trace: list | None = None
) -> PlanarDiagram:
    """Reduce an inadequate prime genus-one diagram to almost-alternating
    form by flypes and Reidemeister-II cancellations.

    Every loop crossing must sit in a single-crossing tangle; they are
    flyped into one twist region, cancelling pairs are removed, and the
    result must have two maximal tangles with one of them a single
    crossing. Any other outcome raises PipelineRefused carrying the
    intermediate diagram. When a list is passed as ``trace``, each move is
    appended as {"move": ..., "diagram": pd text}.
    """
    if not diagram.is_connected:
        raise Refused("disconnected diagram")
    if not is_prime(diagram):
        raise Refused("composite diagram")
    if turaev_genus(diagram) != 1:
        raise Refused("Turaev genus is not one")
    report = loop_crossings(diagram)
    if report.verdict != INADEQUATE:
        raise Refused(f"diagram is {report.verdict}, not inadequate")

    def note(move: str, d: PlanarDiagram) -> None:
        if trace is not None:
            trace.append({"move": move, "diagram": d.to_pd_text()})

    note("input", diagram)
    cycle = cycle_of_tangles(diagram)
    if cycle.n == 2:
        # Already split into two maximal tangles; nothing to collect.
        result = _certify(diagram, diagram)
        note("certified", result)
        return result
    cycle = split_twist_sites(cycle)
    loops = set(report.a_loops) | set(report.b_loops)
    unit_of_crossing = {}
    for idx, unit in enumerate(cycle.units):
        for c in unit.origin:
            unit_of_crossing[c] = idx
    loop_units = sorted({unit_of_crossing[c] for c in loops})
    for idx in loop_units:
        if cycle.units[idx].size != 1:
            raise PipelineRefused(
                "a loop crossing sits in a tangle that is not a twist chain", diagram
            )

    cycle = _collect_run(cycle, set(loop_units), note if trace is not None else None)
    cycle = rii_cancel(cycle)
    result = cycle.reconstruct()
    note("twist-cancelled", result)
    result = _certify(result, result)
    note("certified", result)
    return result


def _certify(result: PlanarDiagram, intermediate: PlanarDiagram) -> PlanarDiagram:
    dec = decompose(result)
    sizes = sorted(t.size for t in dec.tangles)
    if len(dec.tangles) == 2 and sizes[0] == 1:
        if not is_almost_alternating(result):
            raise PipelineRefused("reduced diagram failed certification", intermediate)
        return result
    raise PipelineRefused(
        f"reduced diagram has {len(dec.tangles)} tangles of sizes {sizes}", intermediate
    )


def _collect_run(cycle: CycleOfTangles, movers: set[int], note=None) -> CycleOfTangles:
    """Flype the marked single-crossing units into one contiguous run,
    returned as the cycle's twist region.

    The first marked unit anchors the run; every other marked unit is
    flyped rightward around the cycle until it joins. Each flype carries
    its own genus assertion. When ``note`` is given, it receives every
    flype and the reconstructed diagram after it.
    """
    if not movers:
        raise DiagramError("nothing to collect")
    current = cycle
    anchor = min(movers)
    run = [anchor]
    marked = sorted(movers - {anchor})
    while marked:
        n = current.n
        run_set = set(run)
        # The marked unit closest behind the run start, moving right; it
        # passes only unmarked units, so the positions of the remaining
        # marked units are unaffected by its flypes.
        target = run[0]
        mover = min(marked, key=lambda m: (target - m) % n)
        marked.remove(mover)
        while (mover + 1) % n not in run_set:
            current = flype_adjacent(current, mover)
            if note is not None:
                note(f"flype at {mover}", current.reconstruct())
            mover = (mover + 1) % n
        run = [mover] + run
    return current.with_twist(tuple(run))


def core_arc(diagram: PlanarDiagram, c: int) -> surgery.CuttingArc | None:
    """A surgery arc across one side of a loop crossing.

    For an A-loop crossing the arc hugs one of the two corners joined by
    the B-smoothing, joining the edges at slots (1,2) or (3,0), which lie
    on one all-A circle (the loop) and one all-B circle (the hugging
    smoothing arc); symmetrically for B-loop crossings. The side follows
    the shorter sub-arc of the loop circle between its two visits to the
    crossing, ties broken by face id. For a prime genus-one diagram the
    surgery lowers the genus by one, which is asserted.
    """
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
        walk = diagram.faces[face].darts
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
    walk = diagram.faces[face].darts
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
