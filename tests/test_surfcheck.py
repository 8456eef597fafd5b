import random
from functools import cached_property
from itertools import combinations

import pytest

from turaev import cli, corpus, fixtures
from turaev.pdcore import DiagramError, PlanarDiagram, Refused, is_alternating, mirror, parse_pd
from turaev.states import all_a, all_b, state_circles
from turaev.surfcheck import (
    SurfaceDiagram,
    _Gf2Span,
    hayashi_complexity,
    homology_rank_check,
    is_reduced,
    parse_surface,
    turaev_surface,
    two_intersection_loops,
)

import oracles

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
PSEUDOTREF = parse_pd("X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]")
CLASP2 = parse_pd("X[1,2,3,4] X[3,2,1,4]")

# Floors on the dual cycles each signature comparison must reach.
FLOOR_EXHAUSTIVE = 238_000
FLOOR_RANDOM = 85_000
FLOOR_PRIMES = {1: 21_000, 2: 24_000, None: 18_000}
FLOOR_GRIDS = 13_000
FLOOR_TORUSGRID = 272


def library_dual_cycles(s: SurfaceDiagram):
    """Every dual cycle whose class the library reads, as a label tuple:
    the single-edge loops, the face-pair edge pairs, ``is_reduced``'s
    pushed-off sides and the fundamental cycle of every non-tree edge in
    the breadth-first tree of every root face, as ``hayashi_complexity``
    builds them."""
    fod = s.face_of_dart
    adjacency = [[] for _ in s.faces]
    for lab, (d1, d2) in sorted(s.edge_darts.items()):
        if fod[d1] == fod[d2]:
            yield (lab,)
        else:
            adjacency[fod[d1]].append((fod[d2], lab))
            adjacency[fod[d2]].append((fod[d1], lab))
    for labs in s.face_pair_edges.values():
        yield from combinations(labs, 2)
    for c, row in enumerate(s.crossings):
        for k in (0, 1):
            if s.face_at_corner(c, k) == s.face_at_corner(c, k + 2):
                yield (row[(k + 1) % 4], row[(k + 2) % 4])
                yield (row[k], row[(k + 3) % 4])
    for root in range(len(s.faces)):
        path, up = {root: ()}, {root: None}
        queue = [root]
        for node in queue:
            for nxt, lab in adjacency[node]:
                if nxt not in path:
                    path[nxt], up[nxt] = path[node] + (lab,), lab
                    queue.append(nxt)
        for node in range(len(s.faces)):
            for nxt, lab in adjacency[node]:
                if node < nxt and lab not in (up[node], up[nxt]):
                    yield path[node] + path[nxt] + (lab,)


def signature_class(s: SurfaceDiagram, labels) -> int:
    out = 0
    for lab in labels:
        out ^= s.edge_signature[lab]
    return out


def compare_signatures(surfaces) -> int:
    """Assert that signatures and the vertex span agree on every dual
    cycle the library reads, and that the signature bits mark a homology
    basis; the number of dual cycles compared.

    Every vertex star reads 0, so each bit's edges form a primal cycle;
    those 2g cycles are independent modulo the face boundaries. (A face
    boundary is a primal cycle, not a dual one, so its edges' signatures
    need not XOR to 0.)
    """
    compared = 0
    for s in surfaces:
        for labels in library_dual_cycles(s):
            null = signature_class(s, labels) == 0
            assert null == (s.chain_vector(labels) in s.vertex_span), (s.to_pd_text(), labels)
            compared += 1
        assert all(signature_class(s, row) == 0 for row in s.crossings), s.to_pd_text()
        faces = [s.chain_vector(map(s.label, f.darts)) for f in s.faces]
        basis = [
            s.chain_vector(lab for lab, sig in s.edge_signature.items() if sig >> k & 1)
            for k in range(2 * s.genus)
        ]
        assert _Gf2Span.of(faces + basis).rank == _Gf2Span.of(faces).rank + 2 * s.genus, s.to_pd_text()
    return compared


class TestSurfaceGenus:
    def test_planar_lift_zero(self):
        assert SurfaceDiagram.from_planar(TREFOIL).genus == 0

    def test_clasp2_complex_torus(self):
        s = turaev_surface(CLASP2)
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
            turaev_surface(CLASP2),
            turaev_surface(fixtures.gen2a()),
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
        s = turaev_surface(PSEUDOTREF)
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
        s = turaev_surface(CLASP2)
        report = two_intersection_loops(s)
        for loop in report.loops:
            assert loop.intersections == len(loop.edges)
            assert all(lab in s.edge_labels for lab in loop.edges)


class TestHayashi:
    def test_turaev_complexes_have_complexity_two(self):
        for d in (CLASP2, PSEUDOTREF, fixtures.cycle4(), fixtures.gen2a()):
            s = turaev_surface(d)
            result = hayashi_complexity(s)
            assert result.value == 2
            assert result.certified

    def test_torusgrid_four(self):
        result = hayashi_complexity(fixtures.torusgrid())
        assert result.value == 4
        assert result.certified

    def test_matches_dual_dfs_oracle(self, random_rows):
        checked = 0
        exhaustive = [PlanarDiagram.from_rows(rows) for rows in corpus.exhaustive(5)]
        for d in exhaustive + [PlanarDiagram(rows) for rows in random_rows]:
            if d.genus == 0:
                continue
            s = turaev_surface(d)
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
            s = fixtures.square_grid(m, n)
            assert is_alternating(s) and s.genus == 1
            assert hayashi_complexity(s).value == oracles.hayashi_by_dual_dfs(s) == min(m, n)

    def test_genus_zero_refused(self):
        with pytest.raises(Refused):
            hayashi_complexity(SurfaceDiagram.from_planar(TREFOIL))


class TestFromComplex:
    def test_alternating_on_surface(self):
        for d in (PSEUDOTREF, CLASP2, fixtures.gen2a(), fixtures.gen2b()):
            s = turaev_surface(d)
            assert is_alternating(s)
            assert s.genus == d.genus

    def test_preserves_edge_labels(self):
        s = turaev_surface(CLASP2)
        assert sorted(s.edge_labels) == sorted(CLASP2.edge_labels)


def assert_matches_cell_orientation(diagrams) -> int:
    """Assert that ``turaev_surface`` writes the rows of the cell
    orientation search for each diagram and its mirror; the number of
    diagrams compared."""
    compared = 0
    for d in diagrams:
        for x in (d, mirror(d)):
            assert turaev_surface(x).crossings == oracles.turaev_surface_by_cell_orientation(x), x.to_pd_text()
            compared += 1
    return compared


class TestTuraevSurface:
    def test_matches_cell_orientation_on_small_exhaustive(self, small_exhaustive_rows):
        diagrams = [PlanarDiagram(rows) for rows in small_exhaustive_rows]
        assert assert_matches_cell_orientation(diagrams) == 2 * len(diagrams)

    def test_matches_cell_orientation_on_random_corpus(self, random_rows):
        diagrams = [PlanarDiagram(rows) for rows in random_rows]
        assert assert_matches_cell_orientation(diagrams) == 2 * len(diagrams)

    @pytest.mark.parametrize("cap", [1, 2, None], ids=["genus1", "genus2", "uncapped"])
    def test_matches_cell_orientation_on_seeded_primes(self, bench_inputs, cap):
        rng = random.Random(20261019)
        primes = [PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 40), cap)) for _ in range(30)]
        assert assert_matches_cell_orientation(primes) == 60

    def test_faces_are_the_state_circles(self, small_exhaustive_rows, random_rows):
        for rows in list(small_exhaustive_rows) + list(random_rows):
            d = PlanarDiagram(rows)
            circles = [
                sorted(circ.edges(d)) for st in (all_a(d), all_b(d)) for circ in state_circles(d, st).circles
            ]
            s = turaev_surface(d)
            faces = [sorted(f.edges(s)) for f in s.faces]
            assert sorted(faces) == sorted(circles), d.to_pd_text()

    def test_alternating_diagram_spans_its_projection_sphere(self, small_exhaustive_rows, random_rows):
        # Every crossing has one sign, so every rotation is reversed and no
        # crossing is turned: the rows read (a, d, c, b).
        checked = 0
        for rows in list(small_exhaustive_rows) + list(random_rows):
            d = PlanarDiagram(rows)
            if is_alternating(d):
                reversed_rows = tuple((a, dd, c, b) for a, b, c, dd in d.crossings)
                assert turaev_surface(d).crossings == reversed_rows, d.to_pd_text()
                checked += 1
        assert checked > 100

    def test_builds_without_tracing(self, traces, random_rows):
        for rows in random_rows[:100]:
            turaev_surface(PlanarDiagram(rows))
        out = cli._check_worker(PSEUDOTREF.to_pd_text(), from_turaev=True)
        assert out["verdict"] == "loop-found"
        assert traces == []

    def test_disconnected_rejected(self):
        d = PlanarDiagram.from_rows(((1, 1, 2, 2), (3, 3, 4, 4)), allow_disconnected=True)
        with pytest.raises(DiagramError, match="connected"):
            turaev_surface(d)


class TestEdgeSignature:
    def test_exhaustive_state_surfaces(self):
        surfaces = (turaev_surface(PlanarDiagram.from_rows(rows)) for rows in corpus.exhaustive(5))
        assert compare_signatures(surfaces) >= FLOOR_EXHAUSTIVE

    def test_random_corpus_state_surfaces(self, random_rows):
        surfaces = (turaev_surface(PlanarDiagram(rows)) for rows in random_rows)
        assert compare_signatures(surfaces) >= FLOOR_RANDOM

    @pytest.mark.parametrize("cap", [1, 2, None], ids=["genus1", "genus2", "uncapped"])
    def test_seeded_prime_state_surfaces(self, bench_inputs, cap):
        rng = random.Random(20261019)
        primes = [PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 40), cap)) for _ in range(30)]
        surfaces = [turaev_surface(d) for d in primes]
        if cap is None:
            assert max(s.genus for s in surfaces) >= 3
        else:
            assert {s.genus for s in surfaces} == set(range(1, cap + 1))
        assert compare_signatures(surfaces) >= FLOOR_PRIMES[cap]

    def test_square_grids(self):
        sizes = ((2, 2), (2, 4), (4, 4), (4, 6), (6, 4), (6, 6), (4, 12), (8, 8), (10, 6))
        assert compare_signatures(fixtures.square_grid(m, n) for m, n in sizes) >= FLOOR_GRIDS

    def test_torusgrid(self):
        assert compare_signatures([fixtures.torusgrid()]) >= FLOOR_TORUSGRID

    def test_bit_count_is_twice_the_genus(self):
        for s in (fixtures.torusgrid(), turaev_surface(fixtures.gen2a()), SurfaceDiagram.from_planar(TREFOIL)):
            bits = 0
            for sig in s.edge_signature.values():
                bits |= sig
            assert bits == (1 << 2 * s.genus) - 1
        with pytest.raises(TypeError):
            fixtures.torusgrid().edge_signature[1] = 0

    def test_disconnected_rows_raise(self):
        # Built without validation: the spanning tree cannot reach crossing 1.
        s = SurfaceDiagram(((1, 1, 2, 2), (3, 3, 4, 4)))
        with pytest.raises(DiagramError, match="misses a crossing"):
            s.edge_signature


class TestLargeSurface:
    @pytest.mark.parametrize("m, n, examined", [(24, 24, 126887), (16, 24, 32399)])
    def test_square_grid_complexity(self, m, n, examined):
        result = hayashi_complexity(fixtures.square_grid(m, n))
        assert (result.value, result.examined) == (min(m, n), examined)


class TestCachedSpan:
    @pytest.fixture()
    def builds(self, monkeypatch):
        """Every build of a cached surface fact made during the test, as
        (fact name, diagram)."""
        log = []
        for name in ("edge_signature", "vertex_span"):
            real = getattr(SurfaceDiagram, name).func

            def counted(s, name=name, real=real):
                log.append((name, s))
                return real(s)

            prop = cached_property(counted)
            prop.__set_name__(SurfaceDiagram, name)
            monkeypatch.setattr(SurfaceDiagram, name, prop)
        return log

    def test_check_builds_the_span_once(self, builds):
        out = cli._check_worker(PSEUDOTREF.to_pd_text(), from_turaev=True)
        assert out["verdict"] == "loop-found"
        assert out["hayashi"]["complexity"] == 2
        assert sorted(name for name, s in builds) == ["edge_signature", "vertex_span"]

    def test_readers_share_the_cached_span(self):
        s = fixtures.torusgrid()
        assert s.vertex_span is s.vertex_span
        assert s.vertex_span.rank == s.n - 1
        assert dict(s.edge_index) == {lab: i for i, lab in enumerate(s.edge_labels)}
        with pytest.raises(TypeError):
            s.edge_index[1] = 0
