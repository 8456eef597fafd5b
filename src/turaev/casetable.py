# -*- coding: utf-8 -*-
"""Case labels for genus-two alternating tangle structures.

The label is read from the ribbon structure that
``tangles.contract_ribbons`` builds: its junction tangles, the ribbons
(maximal chains of 2-tangles) between them with their length parities,
and the single channel edges that join junctions directly.

- A non-simply-connected tangle gives case 4.
- All tangles of valence 2 give case 7, or case 8 when some tangle
  touches four distinct others. A closed cycle of 2-tangles has genus
  one, so it is refused as an internal error.
- Two valence-3 junctions (a theta): each of the three channels between
  them is a ribbon or a direct pair of single edges, which counts as an
  even ribbon of length zero. All channels even give case 2, all odd
  case 5. The sign alternation along the channels forces the parities to
  agree, so mixed parities are an internal error.
- One valence-4 junction: its first, second and third embeddings, cases
  1, 3 and 6, have 0, 1 and 2 valence-2 junctions. A ribbon with both
  ends on the valence-4 junction must be odd, and one ending at a
  valence-2 junction must be even.

Ribbon lengths beyond their parity never matter. A structure that fits
none of these shapes raises ``DiagramError`` naming its descriptor.

The rule lives in its own module, imported by ``tangles``, so that
profilers and tracers can attribute the labelling to it by module name.
"""

from __future__ import annotations

from .pdcore import DiagramError


def lookup_case(descriptor, decomposition) -> int:
    """The case 1-8 of ``descriptor``, contracted from ``decomposition``."""
    if descriptor.non_simply_connected:
        return 4
    if descriptor.all_two_cycle:
        raise DiagramError("a cycle of 2-tangles has genus one, not two")
    if set(descriptor.valences) == {2}:
        return 8 if _touches_four(decomposition) else 7
    junctions = sorted(sum(map(len, word)) // 2 for word in descriptor.junction_words)
    if junctions == [3, 3]:
        parities = {r.parity for r in descriptor.ribbons} | ({0} if descriptor.singles else set())
        if len(parities) == 1:
            return 5 if parities == {1} else 2
    elif junctions[-1] == 4 and junctions[:-1] in ([], [2], [2, 2]):
        tangles = decomposition.tangles
        if all(
            r.parity == (tangles[r.ends[0][0]].valence == tangles[r.ends[1][0]].valence == 4)
            for r in descriptor.ribbons
        ):
            return (1, 3, 6)[len(junctions) - 1]
    raise DiagramError(f"no genus-two case fits the structure {descriptor.canonical}")


def _touches_four(decomposition) -> bool:
    return any(
        len(decomposition.neighbors(t.id)) >= 4 for t in decomposition.tangles
    )
