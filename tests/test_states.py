import json
import random

import pytest

from turaev import fixtures
from turaev.pdcore import DiagramError, PlanarDiagram, mirror, parse_pd
from turaev.states import diagram_report, loop_crossings, turaev_genus
from turaev.surfcheck import turaev_surface

import oracles
from oracles import all_a, all_b, state_circles

KINK = parse_pd("X[1,1,2,2]")
TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
PSEUDOTREF = parse_pd("X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]")
CLASP2 = parse_pd("X[1,2,3,4] X[3,2,1,4]")


class TestStateCircles:
    def test_kink(self):
        assert state_circles(KINK, all_a(KINK)).n == 2
        assert state_circles(KINK, all_b(KINK)).n == 1

    def test_trefoil_circle_sum(self):
        # An alternating diagram spans the sphere: c + 2 - |s_A| - |s_B| = 0.
        total = state_circles(TREFOIL, all_a(TREFOIL)).n + state_circles(TREFOIL, all_b(TREFOIL)).n
        assert total == 5

    def test_clasp2(self):
        assert state_circles(CLASP2, all_a(CLASP2)).n == 1
        assert state_circles(CLASP2, all_b(CLASP2)).n == 1

    def test_each_edge_on_exactly_one_circle(self):
        for d in (KINK, TREFOIL, PSEUDOTREF, CLASP2):
            for state in (all_a(d), all_b(d)):
                circles = state_circles(d, state)
                seen = [lab for c in circles.circles for lab in c.edges(d)]
                assert sorted(seen) == sorted(d.edge_labels)

    def test_all_a_corners_used_once(self):
        circles = state_circles(TREFOIL, all_a(TREFOIL))
        corners = [corner for c in circles.circles for corner in c.corners]
        assert sorted(corners) == [(c, k) for c in range(3) for k in (0, 2)]

    def test_matches_unionfind_oracle(self):
        for d in (KINK, TREFOIL, PSEUDOTREF, CLASP2):
            for state in (all_a(d), all_b(d)):
                assert state_circles(d, state).n == oracles.circle_count_unionfind(
                    d.crossings, state
                )

    def test_bad_state_rejected(self):
        with pytest.raises(DiagramError):
            state_circles(KINK, ("C",))


def assert_counts_match(diagrams) -> int:
    """Check ``circle_counts`` against the traced circles and the
    union-find oracle, and the mirror's counts against the swapped pair."""
    checked = 0
    for d in diagrams:
        traced = (state_circles(d, all_a(d)).n, state_circles(d, all_b(d)).n)
        assert d.circle_counts == traced, d
        assert traced == tuple(oracles.circle_count_unionfind(d.crossings, st) for st in (all_a(d), all_b(d))), d
        assert mirror(d).circle_counts == traced[::-1], d
        checked += 1
    return checked


class TestCircleCounts:
    def test_exhaustive_five(self, exhaustive_rows):
        assert assert_counts_match(PlanarDiagram(rows) for rows in exhaustive_rows if len(rows) <= 5) == 5211

    def test_random_corpus(self, random_rows):
        assert assert_counts_match(PlanarDiagram(rows) for rows in random_rows) == len(random_rows)

    def test_seeded_primes(self, bench_inputs):
        rng = random.Random(13)
        primes = [PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 100), None)) for _ in range(30)]
        assert assert_counts_match(primes) == 30


class TestGenus:
    def test_trefoil_zero(self):
        assert turaev_genus(TREFOIL) == 0

    def test_pseudotref_one(self):
        assert turaev_genus(PSEUDOTREF) == 1

    def test_clasp2_one(self):
        assert turaev_genus(CLASP2) == 1

    def test_mirror_swaps_circle_families(self):
        for d in (KINK, PSEUDOTREF, CLASP2):
            m = mirror(d)
            assert state_circles(m, all_a(m)).n == state_circles(d, all_b(d)).n
            assert state_circles(m, all_b(m)).n == state_circles(d, all_a(d)).n
            assert turaev_genus(m) == turaev_genus(d)

    def test_disconnected_rejected(self):
        d = PlanarDiagram(((1, 1, 2, 2), (3, 3, 4, 4)))
        with pytest.raises(DiagramError):
            turaev_genus(d)


def euler(s) -> int:
    return s.n - s.n_edges + len(s.faces)


class TestComplex:
    """The Turaev surface's cells are the all-A and all-B circles."""

    def test_trefoil_sphere(self):
        assert euler(turaev_surface(TREFOIL)) == 2

    def test_clasp2_torus_counts(self):
        s = turaev_surface(CLASP2)
        assert euler(s) == 0
        assert s.n == 2
        assert s.n_edges == 4
        assert len(s.faces) == sum(CLASP2.circle_counts) == 2

    def test_every_edge_on_one_a_and_one_b_cell(self):
        for d in (KINK, TREFOIL, PSEUDOTREF, CLASP2):
            a_ids, b_ids = d.edge_circles
            assert sorted(a_ids) == sorted(b_ids) == sorted(d.edge_labels)
            assert len(turaev_surface(d).faces) == sum(d.circle_counts)

    def test_orientation_witness(self):
        # Every dart lies on one face walk, so every edge is traversed once
        # in each direction: the surface is oriented.
        for d in (TREFOIL, PSEUDOTREF, CLASP2):
            s = turaev_surface(d)
            walked = [dart for f in s.faces for dart in f]
            assert sorted(walked) == list(range(d.n_darts))

    def test_genus_matches_formula(self, small_exhaustive_rows):
        for rows in small_exhaustive_rows:
            d = PlanarDiagram(rows)
            s = turaev_surface(d)
            assert s.genus == turaev_genus(d)
            assert euler(s) == 2 - 2 * s.genus


class TestCircleIds:
    def test_ids_match_the_traced_circles(self, exhaustive_rows, random_rows):
        checked = 0
        for rows in [rows for rows in exhaustive_rows if len(rows) <= 5] + list(random_rows):
            d = PlanarDiagram(rows)
            for ids, st in zip(d.edge_circles, (all_a(d), all_b(d))):
                traced = {lab: circ.id for circ in state_circles(d, st).circles for lab in circ.edges(d)}
                assert dict(ids) == traced, d
            checked += 1
        assert checked == 5211 + len(random_rows)


class TestAdequacy:
    def test_trefoil_adequate(self):
        report = loop_crossings(TREFOIL)
        assert report.verdict == "adequate"
        assert report.a_loops == report.b_loops == ()

    def test_kink_loop_in_one_state_only(self):
        report = loop_crossings(KINK)
        assert (len(report.a_loops), len(report.b_loops)) in ((0, 1), (1, 0))

    def test_pseudotref_crossing0(self):
        report = loop_crossings(PSEUDOTREF)
        assert 0 in set(report.a_loops) | set(report.b_loops)
        assert report.verdict == "inadequate-diagram"

    def test_ab_loops_are_intersection(self):
        report = loop_crossings(CLASP2)
        assert set(report.ab_loops) == set(report.a_loops) & set(report.b_loops)

    def test_matches_bruteforce_oracle(self, small_exhaustive_rows):
        for rows in small_exhaustive_rows[::3]:
            d = PlanarDiagram(rows)
            report = loop_crossings(d)
            a, b, verdict = oracles.adequacy_verdict_bruteforce(rows)
            assert report.a_loops == a
            assert report.b_loops == b
            assert report.verdict == verdict


class TestAlternatingColoring:
    def test_trefoil_one_color_class_is_the_a_regions(self):
        # In an alternating diagram the faces of one checkerboard color
        # are traced by the all-A circles: their corners are A-corners.
        from turaev.pdcore import checkerboard

        coloring = checkerboard(TREFOIL)
        circles = state_circles(TREFOIL, all_a(TREFOIL))
        a_corners = {corner for c in circles.circles for corner in c.corners}
        # The dart (c, s) of a face sits at corner s - 1 of c.
        a_faces = {
            f for f, darts in enumerate(TREFOIL.faces) if all((d >> 2, (d - 1) & 3) in a_corners for d in darts)
        }
        other = set(range(len(TREFOIL.faces))) - a_faces
        assert len({coloring.color(f) for f in a_faces}) == 1
        assert len({coloring.color(f) for f in other}) == 1
        assert {coloring.color(f) for f in a_faces} != {coloring.color(f) for f in other}


class TestReport:
    def test_schema(self):
        report = diagram_report(PSEUDOTREF)
        assert set(report) == {"c", "sA", "sB", "genus", "adequacy", "loopCrossings"}
        assert set(report["loopCrossings"]) == {"A", "B"}
        assert report["genus"] == 1

    def test_json_stable(self):
        report = diagram_report(TREFOIL)
        assert json.loads(json.dumps(report, sort_keys=True)) == report == diagram_report(TREFOIL)

    def test_fixture_reports(self):
        assert diagram_report(fixtures.trefoil())["adequacy"] == "adequate"
        assert diagram_report(fixtures.pseudotref())["adequacy"] == "inadequate-diagram"

