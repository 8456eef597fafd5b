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
on every application, on the units' state facts: a move only rearranges
units, so the ring's state circle counts, and with them its genus, are
read off the units' cached facts (``RingPayload.state_facts``), and no
diagram is built per move. A cycle is assembled into a diagram, and
validated, only when it is read: once for the result, and once per flype
when a trace records it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pdcore import (
    DiagramError,
    PlanarDiagram,
    Refused,
    _cached_fact,
    _genus_of_counts,
    is_prime,
)
from .states import INADEQUATE, loop_crossings, turaev_genus
from .tangles import RingPayload, assemble_ring, classify_genus_one, decompose, ring_circle_counts


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
    and kept, so each cycle is built once however often it is read; the
    circle counts and genus come from the units without building it.
    """

    units: tuple[TangleUnit, ...]
    twist: tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.units)

    @_cached_fact
    def crossing_count(self) -> int:
        return sum(u.size for u in self.units)

    @_cached_fact
    def circle_counts(self) -> tuple[int, int]:
        """(|s_A|, |s_B|) of the reconstruction, from the units' facts."""
        return ring_circle_counts([u.payload for u in self.units])

    @_cached_fact
    def genus(self) -> int:
        """Turaev genus of the reconstruction, from ``circle_counts``."""
        return _genus_of_counts(self.crossing_count, *self.circle_counts)

    @_cached_fact
    def _assembled(self) -> PlanarDiagram:
        diagram, _ = assemble_ring([u.payload for u in self.units])
        return diagram

    def reconstruct(self) -> PlanarDiagram:
        return self._assembled

    def with_twist(self, twist: tuple[int, ...]) -> "CycleOfTangles":
        """The same cycle with ``twist`` marked, keeping the facts, the
        diagram among them, already read off its units."""
        out = CycleOfTangles(self.units, twist)
        out.__dict__.update((k, v) for k, v in self.__dict__.items() if k != "twist")
        return out


def cycle_of_tangles(diagram: PlanarDiagram) -> CycleOfTangles:
    """Cut a genus-one diagram into its cycle payloads.

    The reconstruction of the result is isomorphic to the input; the
    units' circle counts are checked against the input's.
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
    out = CycleOfTangles(tuple(units))
    if out.circle_counts != diagram.circle_counts:
        raise DiagramError("cycle payloads do not give the diagram's state circles")
    return out


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
    turned tangle keeps its state facts (a turn-over is a rotation in
    space, so each smoothing keeps its type) and the reconstruction keeps
    its crossing count and Turaev genus, all asserted on the units' facts.
    """
    n = cycle.n
    i %= n
    if cycle.units[i].size != 1:
        raise DiagramError(f"position {i} does not hold a single-crossing tangle")
    j = (i + 1) % n
    units = list(cycle.units)
    moved = units[i]
    turned = TangleUnit(_turn_over(units[j].payload), units[j].origin)
    if turned.payload.state_facts != units[j].payload.state_facts:
        raise DiagramError("turning the passed-over tangle changed its states")
    units[i], units[j] = turned, moved
    twist = tuple(j if k == i else i if k == j else k for k in cycle.twist)
    out = CycleOfTangles(tuple(units), twist)
    if out.crossing_count != cycle.crossing_count:
        raise DiagramError("flype changed the crossing count")
    if out.genus != cycle.genus:
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
    degenerates) are skipped. The twist marker shrinks accordingly. Both
    checks read the units' facts.
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
            if candidate.genus != current.genus:
                continue
            if candidate.crossing_count != current.crossing_count - 2:
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
    dalt = _minority_sign_count(diagram)
    if not dalt:
        raise Refused("diagram is already alternating")
    return dalt == 1


def _minority_sign_count(diagram: PlanarDiagram) -> int:
    """min(#crossings of sign +1, #crossings of sign -1) under the
    checkerboard signs: switching those crossings makes every edge
    alternate, so it bounds the dealternating number."""
    plus = sum(s > 0 for s in diagram.signs.values())
    return min(plus, diagram.n - plus)


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
    appended as {"move": ..., "diagram": pd text, "dalt": the diagram's
    minority checkerboard-sign count}, which is 1 on an almost-alternating
    diagram.
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
            trace.append({"move": move, "diagram": d.to_pd_text(), "dalt": _minority_sign_count(d)})

    note("input", diagram)
    cycle = cycle_of_tangles(diagram)
    if cycle.n == 2:
        # Already split into two maximal tangles, the cycle's units;
        # nothing to collect.
        result = _certify(diagram, [u.size for u in cycle.units])
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
    result = _certify(result, [t.size for t in decompose(result).tangles])
    note("certified", result)
    return result


def _certify(result: PlanarDiagram, sizes: list[int]) -> PlanarDiagram:
    """``result`` when its maximal tangles, of these sizes, are two with
    one a single crossing and it is almost alternating; else
    ``PipelineRefused`` carrying it."""
    sizes = sorted(sizes)
    if len(sizes) == 2 and sizes[0] == 1:
        if not is_almost_alternating(result):
            raise PipelineRefused("reduced diagram failed certification", result)
        return result
    raise PipelineRefused(f"reduced diagram has {len(sizes)} tangles of sizes {sizes}", result)


def _collect_run(cycle: CycleOfTangles, movers: set[int], note=None) -> CycleOfTangles:
    """Flype the marked single-crossing units into one contiguous run,
    returned as the cycle's twist region.

    The first marked unit anchors the run; every other marked unit is
    flyped rightward around the cycle until it joins. Each flype carries
    its own genus assertion. When ``note`` is given, it receives every
    flype and the reconstructed diagram after it, which is built for it.
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

