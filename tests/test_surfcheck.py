from functools import cached_property

import pytest

from turaev import cli, corpus, fixtures
from turaev.pdcore import DiagramError, PlanarDiagram, Refused, is_alternating, parse_pd
from turaev.states import build_turaev_complex
from turaev.surfcheck import (
    SurfaceDiagram,
    from_turaev_complex,
    hayashi_complexity,
    homology_rank_check,
    is_reduced,
    parse_surface,
    two_intersection_loops,
)

import oracles

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
PSEUDOTREF = parse_pd("X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]")
CLASP2 = parse_pd("X[1,2,3,4] X[3,2,1,4]")


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


class TestSurfaceGenus:
    def test_planar_lift_zero(self):
        assert SurfaceDiagram.from_planar(TREFOIL).genus == 0

    def test_clasp2_complex_torus(self):
        s = from_turaev_complex(build_turaev_complex(CLASP2))
        assert s.genus == 1

    def test_torusgrid(self):
        tg = fixtures.torusgrid()
        assert tg.n == 16
        assert tg.genus == 1
        assert is_alternating(tg)
        assert is_reduced(tg)

    def test_header_parsing(self):
        s = parse_surface("genus-free: true\nX[1,1,2,2]")
        assert s.genus == 0
        with pytest.raises(DiagramError):
            parse_surface("genus-free: false\nX[1,1,2,2]")


class TestHomology:
    def test_rank_is_twice_genus(self):
        for s in (
            fixtures.torusgrid(),
            from_turaev_complex(build_turaev_complex(CLASP2)),
            from_turaev_complex(build_turaev_complex(fixtures.gen2a())),
        ):
            assert homology_rank_check(s) == 2 * s.genus


class TestTwoIntersectionLoops:
    def test_torusgrid_obstructed(self):
        tg = fixtures.torusgrid()
        # No two faces of the staggered grid share more than one edge.
        shared = {}
        for lab, (d1, d2) in tg.edge_darts.items():
            key = tuple(sorted((tg.face_of_dart[d1], tg.face_of_dart[d2])))
            shared[key] = shared.get(key, 0) + 1
        assert all(v <= 1 for v in shared.values())
        report = two_intersection_loops(tg)
        assert report.verdict == "obstructed"
        assert report.minimum_intersections is None

    def test_pseudotref_complex_has_loop(self):
        s = from_turaev_complex(build_turaev_complex(PSEUDOTREF))
        report = two_intersection_loops(s)
        assert report.verdict == "loop-found"
        assert report.minimum_intersections == 2

    def test_planar_not_applicable(self):
        report = two_intersection_loops(SurfaceDiagram.from_planar(TREFOIL))
        assert report.verdict == "not-applicable"

    def test_non_alternating_refused(self):
        s = SurfaceDiagram.from_planar(PSEUDOTREF)
        with pytest.raises(Refused):
            two_intersection_loops(s)

    def test_loops_cross_edges_only(self):
        s = from_turaev_complex(build_turaev_complex(CLASP2))
        report = two_intersection_loops(s)
        for loop in report.loops:
            assert loop.intersections == len(loop.edges)
            assert all(lab in s.edge_labels for lab in loop.edges)


class TestHayashi:
    def test_turaev_complexes_have_complexity_two(self):
        for d in (CLASP2, PSEUDOTREF, fixtures.cycle4(), fixtures.gen2a()):
            s = from_turaev_complex(build_turaev_complex(d))
            result = hayashi_complexity(s)
            assert result.value == 2
            assert result.certified

    def test_torusgrid_four(self):
        result = hayashi_complexity(fixtures.torusgrid())
        assert result.value == 4
        assert result.certified

    def test_matches_dual_dfs_oracle(self, random_rows):
        checked = 0
        for d in corpus.exhaustive(5) + [PlanarDiagram(rows) for rows in random_rows]:
            if d.genus == 0:
                continue
            s = from_turaev_complex(build_turaev_complex(d))
            try:
                result = hayashi_complexity(s)
            except Refused:  # a kinked diagram's surface is not reduced
                continue
            assert result.value == oracles.hayashi_by_dual_dfs(s), d.to_pd_text()
            checked += 1
        assert checked >= 100
        tg = fixtures.torusgrid()
        assert hayashi_complexity(tg).value == oracles.hayashi_by_dual_dfs(tg) == 4
        for m, n in ((2, 4), (4, 6), (6, 6), (6, 8)):
            s = square_grid(m, n)
            assert is_alternating(s) and s.genus == 1
            assert hayashi_complexity(s).value == oracles.hayashi_by_dual_dfs(s) == min(m, n)

    def test_genus_zero_refused(self):
        with pytest.raises(Refused):
            hayashi_complexity(SurfaceDiagram.from_planar(TREFOIL))


class TestFromComplex:
    def test_alternating_on_surface(self):
        for d in (PSEUDOTREF, CLASP2, fixtures.gen2a(), fixtures.gen2b()):
            s = from_turaev_complex(build_turaev_complex(d))
            assert is_alternating(s)
            assert s.genus == build_turaev_complex(d).genus

    def test_preserves_edge_labels(self):
        s = from_turaev_complex(build_turaev_complex(CLASP2))
        assert sorted(s.edge_labels) == sorted(CLASP2.edge_labels)


class TestCachedSpan:
    @pytest.fixture()
    def span_builds(self, monkeypatch):
        """Every vertex-span build made during the test, as its diagram."""
        log = []
        real = SurfaceDiagram.vertex_span.func

        def counted(s):
            log.append(s)
            return real(s)

        prop = cached_property(counted)
        prop.__set_name__(SurfaceDiagram, "vertex_span")
        monkeypatch.setattr(SurfaceDiagram, "vertex_span", prop)
        return log

    def test_check_builds_the_span_once(self, span_builds):
        out = cli._check_worker(PSEUDOTREF.to_pd_text(), from_turaev=True)
        assert out["verdict"] == "loop-found"
        assert out["hayashi"]["complexity"] == 2
        assert len(span_builds) == 1

    def test_readers_share_the_cached_span(self):
        s = fixtures.torusgrid()
        assert s.vertex_span is s.vertex_span
        assert s.vertex_span.rank == s.n - 1
        assert dict(s.edge_index) == {lab: i for i, lab in enumerate(s.edge_labels)}
        with pytest.raises(TypeError):
            s.edge_index[1] = 0
