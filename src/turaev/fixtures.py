# -*- coding: utf-8 -*-
"""Named example diagrams used across the tests and documentation.

KINK, TREFOIL, PSEUDOTREF, CLASP2, CONNSUM and TORUSGRID ship as data
files; the remaining fixtures are produced by the generators with pinned
parameters. PSEUDOTREF is the trefoil with crossing 0 switched; CONNSUM
joins two trefoils by inverse surgery along an edge pair; TORUSGRID is the
4x4 staggered grid on the torus, the smallest square grid that is
alternating and has no two faces sharing a pair of edges. ``square_grid``
builds the plain alternating m x n grids on the torus, whose Hayashi
complexity min(m, n) grows with the grid.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .pdcore import PlanarDiagram, parse_pd
from .surfcheck import SurfaceDiagram, parse_surface
from .tangles import Genus2Recipe, gen_cycle, gen_genus2

_PD_NAMES = ("kink", "trefoil", "pseudotref", "clasp2", "connsum")


def _read(name: str) -> str:
    return resources.files("turaev.data.fixtures").joinpath(name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def load(name: str) -> PlanarDiagram:
    """A planar fixture by lowercase name."""
    if name not in _PD_NAMES:
        raise KeyError(f"unknown planar fixture {name!r}; have {_PD_NAMES}")
    return parse_pd(_read(name + ".pd"))


@lru_cache(maxsize=None)
def torusgrid() -> SurfaceDiagram:
    return parse_surface(_read("torusgrid.pd"))


def square_grid(m: int, n: int) -> SurfaceDiagram:
    """The alternating m x n square grid on the torus (m, n even).

    Its shortest non-separating loop runs along a row or a column of
    faces and meets min(m, n) edges.
    """
    h = lambda i, j: 1 + (i % m) * n + (j % n)
    v = lambda i, j: 1 + m * n + (i % m) * n + (j % n)
    rows = []
    for i in range(m):
        for j in range(n):
            ccw = [h(i, j), v(i, j), h(i, j - 1), v(i - 1, j)]
            rows.append(ccw if (i + j) % 2 == 0 else ccw[1:] + ccw[:1])
    return SurfaceDiagram.from_rows(rows)


def kink() -> PlanarDiagram:
    return load("kink")


def trefoil() -> PlanarDiagram:
    return load("trefoil")


def pseudotref() -> PlanarDiagram:
    return load("pseudotref")


def clasp2() -> PlanarDiagram:
    return load("clasp2")


def connsum() -> PlanarDiagram:
    return load("connsum")


@lru_cache(maxsize=None)
def cycle4() -> PlanarDiagram:
    """Cycle of four single-crossing 2-tangles, signs alternating."""
    return gen_cycle((1, -1, 1, -1), (1, 1, 1, 1))


@lru_cache(maxsize=None)
def aa6() -> PlanarDiagram:
    """Six-crossing inadequate genus-one cycle: three single-crossing
    tangles and one 3-twist, the almost-alternating pipeline fixture."""
    return gen_cycle((1, -1, 1, -1), (1, 1, 1, 3))


GEN2A_RECIPE = Genus2Recipe.across_junctions(
    (1, -1, 1, -1), (1, 1, 1, 1), piece_size=1, piece_sign=1, junctions=(0, 2)
)

# One valence-4 tangle whose ribbons attach through a valence-2 junction:
# the second embedded configuration of the single-4-tangle family.
GEN2MIX_RECIPE = Genus2Recipe(
    base_signs=(1, -1, 1, -1),
    base_sizes=(2, 1, 2, 1),
    pieces=((1, 1, ("internal", 0, 0)), (1, -1, ("internal", 0, 1))),
    splice=(("piece", 0, 1), ("piece", 1, 1)),
    base_vertical=(0, 2),
)

# Even and odd theta structures: two valence-3 tangles joined by three
# chains whose lengths all share one parity.
THETA_EVEN_RECIPE = Genus2Recipe.one_piece(
    (1, -1, 1, -1), (2, 1, 2, 1), 1, 1, ("junction", 0, 0), ("internal", 0, 0)
)
THETA_ODD_RECIPE = Genus2Recipe.one_piece(
    (1, -1, 1, -1), (2, 1, 2, 1), 1, 1, ("internal", 0, 0), ("internal", 2, 0)
)


@lru_cache(maxsize=None)
def gen2a() -> PlanarDiagram:
    """Genus-two fixture: a 4-tangle carrying two ribbon loops."""
    return gen_genus2(GEN2A_RECIPE)


@lru_cache(maxsize=None)
def gen2b() -> PlanarDiagram:
    """Genus-two fixture with every tangle of valence 2 and a tangle
    adjacent to four others. Pinned; found by exhaustive insertion search
    over the small-diagram corpus."""
    return parse_pd(
        "X[20,17,3,4] X[15,4,5,6] X[3,14,7,8] X[5,8,9,10] X[7,6,11,12] "
        "X[9,12,11,10] X[18,19,15,14] X[20,19,18,17]"
    )


@lru_cache(maxsize=None)
def gen2_annular() -> PlanarDiagram:
    """Genus-two fixture with a non-simply-connected tangle: an annular
    4-crossing tangle clasping one crossing inside and one outside.
    Pinned from the exhaustive 6-crossing corpus."""
    return parse_pd(
        "X[1,2,3,4] X[1,4,5,6] X[2,6,7,8] X[5,3,9,10] X[11,7,10,12] X[9,8,11,12]"
    )
