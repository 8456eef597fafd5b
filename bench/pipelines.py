"""The per-diagram pipelines and their independent reference checks.

``info``, ``classify``, ``reduce`` and ``check`` are the CLI's own
workers for ``turaev info``, ``classify``, ``reduce`` and ``check
--from-turaev``: each takes PD text and returns the JSON-able dict the
subcommand prints.  ``aa`` runs ``moves.almost_alternating_form``, which
no subcommand exposes.  The workers look library functions up in the
``cli`` namespace at call time, where the tracer's wrappers replace them.
"""

from __future__ import annotations

import re
from functools import partial

import oracles
from turaev import cli, moves, pdcore, surfcheck

import inputs

PIPELINES = ("info", "classify", "reduce", "check", "aa")


def aa(text: str) -> dict:
    try:
        return {"pd": moves.almost_alternating_form(pdcore.parse_pd(text)).to_pd_text()}
    except moves.PipelineRefused as exc:
        return {"refused": exc.reason}


RUN = {
    "info": cli._info_worker,
    "classify": cli._classify_worker,
    "reduce": cli._reduce_worker,
    "check": partial(cli._check_worker, from_turaev=True, max_dual_len=None),
    "aa": aa,
}


# -- references ----------------------------------------------------------------

_TERM = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


def rows_of(text: str):
    return tuple(tuple(int(x) for x in m.groups()) for m in _TERM.finditer(text))


def _alternating(rows) -> bool:
    return all(oracles.alternation_from_text(rows).values())


def facts(rows) -> dict:
    """What the oracles say about one input diagram."""
    n = len(rows)
    sa = oracles.circle_count_unionfind(rows, "A" * n)
    sb = oracles.circle_count_unionfind(rows, "B" * n)
    a_loops, b_loops, verdict = oracles.adequacy_verdict_bruteforce(rows)
    return {
        "c": n,
        "sA": sa,
        "sB": sb,
        "genus": (n + 2 - sa - sb) // 2,
        "adequacy": verdict,
        "loopCrossings": {"A": list(a_loops), "B": list(b_loops)},
        "prime": inputs.is_prime_rows(rows),
        "alternating": _alternating(rows),
    }


def aa_eligible(f: dict) -> bool:
    return f["prime"] and f["genus"] == 1 and f["adequacy"] == "inadequate-diagram"


def _almost_alternating(rows) -> bool:
    """Not alternating, and one over/under switch makes it alternating."""
    if _alternating(rows):
        return False
    for c, row in enumerate(rows):
        switched = list(rows)
        switched[c] = row[1:] + row[:1]
        if _alternating(switched):
            return True
    return False


def verify(pipeline: str, out: dict, f: dict) -> str | None:
    """None when ``out`` agrees with the oracle facts ``f``, else why not."""
    if pipeline == "info":
        bad = [k for k, v in f.items() if out.get(k) != v]
        return f"info fields {bad} disagree with the oracles" if bad else None
    if pipeline == "classify":
        if not f["prime"]:
            return None if out == {"refused": "composite"} else "composite input not refused"
        if out.get("genus") != f["genus"]:
            return "classify genus disagrees with the oracle"
        if f["genus"] == 1:
            sizes = out.get("sizes", [])
            if out.get("kind") != "cycle" or len(sizes) < 2 or sum(sizes) != f["c"]:
                return "genus-one cycle does not cover the crossings"
        elif f["genus"] == 2:
            if out.get("case") not in (1, 2, 3, 4, 5, 6, 7, 8, "unmatched"):
                return "genus-two label outside 1..8"
        elif out.get("kind") != "other":
            return "unexpected classification kind"
        return None
    if pipeline == "reduce":
        terminals = [rows_of(t) for t in out["terminals"]]
        if not out["allTerminalsAlternating"] or not all(map(_alternating, terminals)):
            return "reduction ladder left a non-alternating terminal"
        if f["prime"] and out["cutSteps"] != f["genus"]:
            return "cut steps differ from the genus on a prime input"
        return None
    if pipeline == "check":
        # A Turaev surface is alternating, so a refusal of the loop search
        # is a wrong answer; only the Hayashi check may refuse (a kinked
        # diagram's surface is not reduced).
        if "refused" in out:
            return f"state surface refused: {out['refused']}"
        if out["genus"] != f["genus"]:
            return "state surface genus differs from the Turaev genus"
        if f["prime"] and not f["alternating"]:
            h = out.get("hayashi", {})
            if out["verdict"] != "loop-found" or h.get("complexity") != 2 or not h.get("certified"):
                return "prime non-alternating state surface is not loop-found with certified complexity 2"
        return None
    if pipeline == "aa":
        if "refused" in out:
            return None
        return None if _almost_alternating(rows_of(out["pd"])) else "aa output is not almost alternating"
    raise ValueError(pipeline)


def is_unmatched(pipeline: str, out: dict) -> bool:
    return pipeline == "classify" and out.get("case") == "unmatched"


def check_torusgrid() -> str | None:
    """The torus grid stays obstructed with Hayashi complexity 4."""
    from turaev import fixtures

    grid = fixtures.torusgrid()
    if surfcheck.two_intersection_loops(grid).verdict != "obstructed":
        return "TORUSGRID is not obstructed"
    if surfcheck.hayashi_complexity(grid).value != 4:
        return "TORUSGRID complexity is not 4"
    return None
