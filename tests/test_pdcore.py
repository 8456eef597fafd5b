import random

import pytest

from turaev import fixtures, pdcore
from turaev.pdcore import (
    BLACK,
    WHITE,
    DiagramError,
    ParseError,
    PlanarDiagram,
    canonical_encoding,
    checkerboard,
    composite_circles,
    crossing_signs,
    edge_alternation,
    is_prime,
    mirror,
    parse_pd,
    relabel,
    shadow_encoding,
    switch_crossing,
)

import oracles

KINK = "X[1,1,2,2]"
TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
PSEUDOTREF = "X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]"
CLASP2 = "X[1,2,3,4] X[3,2,1,4]"
# A label of 5000 digits, past the 4300 that Python's int() converts.
HUGE = "7" * 5000
# JSON nested deeper than the decoder's recursion limit.
DEEP = '{"crossings": ' + "[" * 200_000 + "]" * 200_000 + "}"


class TestParse:
    def test_kink(self):
        d = parse_pd(KINK)
        assert d.n == 1
        assert len(d.faces) == 3

    def test_trefoil_faces_match_euler_oracle(self):
        d = parse_pd(TREFOIL)
        assert len(d.faces) == oracles.euler_face_count(d.crossings) == 5

    def test_clasp2_faces(self):
        d = parse_pd(CLASP2)
        assert len(d.faces) == 4
        assert sorted(f.degree for f in d.faces) == [2, 2, 2, 2]

    def test_multiplicity_violation(self):
        with pytest.raises(DiagramError):
            parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3] X[1,4,2,5]")

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse_pd("X[1,2,3] X[4,5,6,7]")
        with pytest.raises(ParseError):
            parse_pd("")

    def test_disconnected_rejected(self):
        with pytest.raises(DiagramError):
            parse_pd("X[1,1,2,2] X[3,3,4,4]")

    def test_nonplanar_rotation_rejected(self):
        # Opposite-slot loops trace a single face: V - E + F = 0.
        with pytest.raises(DiagramError):
            parse_pd("X[1,2,1,2]")

    def test_json_mirror_format(self):
        d = parse_pd('{"crossings": [[1,1,2,2]]}')
        assert d.crossings == parse_pd(KINK).crossings
        assert parse_pd(parse_pd(TREFOIL).to_json()).crossings == parse_pd(TREFOIL).crossings

    def test_face_degree_sum(self):
        for code in (KINK, TREFOIL, PSEUDOTREF, CLASP2):
            d = parse_pd(code)
            assert sum(f.degree for f in d.faces) == 4 * d.n

    def test_corners_partition(self):
        d = parse_pd(TREFOIL)
        corners = [c for f in d.faces for c in f.corners]
        assert len(corners) == len(set(corners)) == 4 * d.n


class TestCheckerboard:
    def test_proper_coloring(self):
        for code in (KINK, TREFOIL, PSEUDOTREF, CLASP2):
            d = parse_pd(code)
            coloring = checkerboard(d)
            for d1, d2 in d.edge_darts.values():
                f1, f2 = d.face_of_dart[d1], d.face_of_dart[d2]
                assert coloring.color(f1) != coloring.color(f2)
            assert set(coloring.colors) == {BLACK, WHITE}

    def test_deterministic_anchor(self):
        d = parse_pd(TREFOIL)
        assert checkerboard(d).color(d.face_at_corner(0, 0)) == BLACK

    def test_swapped_is_complementary(self):
        d = parse_pd(TREFOIL)
        coloring = checkerboard(d)
        assert coloring.swapped().colors == tuple(
            WHITE if c == BLACK else BLACK for c in coloring.colors
        )

    def test_unique_up_to_swap(self):
        d = parse_pd(PSEUDOTREF)
        base = checkerboard(d)
        for anchor in range(len(d.faces)):
            other = checkerboard(d, black_face=anchor)
            assert other.colors in (base.colors, base.swapped().colors)

    def test_anchor_outside_faces_rejected(self):
        d = parse_pd(PSEUDOTREF)
        for anchor in (-1, len(d.faces)):
            with pytest.raises(DiagramError, match="is not a face"):
                checkerboard(d, black_face=anchor)

    def test_matches_face_adjacency_oracle(self, small_exhaustive_rows):
        """Signs by slot parity and the coloring read off them against the
        face-adjacency search, for every face anchor, on all classes of up
        to 4 crossings, 200 seeded random diagrams and their mirrors."""
        from turaev import corpus

        rows = list(small_exhaustive_rows) + [d.crossings for d in corpus.random_corpus(20261020, 200, 12)]
        checked = 0
        for r in rows:
            d = PlanarDiagram.from_rows(r)
            for x in (d, mirror(d)):
                colors, signs = oracles.checkerboard_by_face_adjacency(x)
                assert x.coloring.colors == colors, x.crossings
                assert dict(x.signs) == signs, x.crossings
                for anchor in range(len(x.faces)):
                    anchored = checkerboard(x, black_face=anchor)
                    colors, signs = oracles.checkerboard_by_face_adjacency(x, anchor)
                    assert anchored.colors == colors, (x.crossings, anchor)
                    assert anchored in (x.coloring, x.coloring.swapped())
                    assert dict(crossing_signs(x, anchored)) == signs, (x.crossings, anchor)
                checked += 1
        assert checked == 2 * (len(small_exhaustive_rows) + 200)

    def test_disconnected_has_no_checkerboard_facts(self):
        d = PlanarDiagram.from_rows([(1, 1, 2, 2), (3, 3, 4, 4)], allow_disconnected=True)
        with pytest.raises(DiagramError, match="did not reach every crossing"):
            d.signs
        with pytest.raises(DiagramError, match="did not reach every crossing"):
            d.coloring


class TestAlternation:
    def test_matches_slot_parity_oracle(self):
        for code in (KINK, TREFOIL, PSEUDOTREF, CLASP2):
            d = parse_pd(code)
            assert edge_alternation(d) == oracles.alternation_from_text(d.crossings)

    def test_trefoil_all_alternating(self):
        assert all(edge_alternation(parse_pd(TREFOIL)).values())

    def test_clasp2_all_non_alternating(self):
        assert not any(edge_alternation(parse_pd(CLASP2)).values())

    def test_pseudotref_non_alternating_edges(self):
        d = parse_pd(PSEUDOTREF)
        alt = edge_alternation(d)
        non_alt = sorted(lab for lab, a in alt.items() if not a)
        assert non_alt == sorted(set(d.crossings[0]))

    def test_mirror_preserves_alternation(self):
        for code in (TREFOIL, PSEUDOTREF):
            d = parse_pd(code)
            assert edge_alternation(mirror(d)) == edge_alternation(d)


class TestSigns:
    def test_trefoil_constant(self):
        assert len(set(crossing_signs(parse_pd(TREFOIL)).values())) == 1

    def test_pseudotref_crossing0_differs(self):
        signs = crossing_signs(parse_pd(PSEUDOTREF))
        assert signs[0] != signs[1] == signs[2]

    def test_mirror_negates_with_induced_coloring(self):
        for code in (TREFOIL, PSEUDOTREF, CLASP2):
            d = parse_pd(code)
            signs = crossing_signs(d)
            m = mirror(d)
            # The mirrored slot s holds the original slot s + 1, so the
            # original anchor corner (between slots 0 and 1 of crossing 0)
            # is the mirrored corner between slots 3 and 0.
            induced = checkerboard(m, black_face=m.face_at_corner(0, 3))
            m_signs = crossing_signs(m, induced)
            assert all(m_signs[c] == -signs[c] for c in range(d.n))

    def test_anchor_swap_negates(self):
        d = parse_pd(TREFOIL)
        signs = crossing_signs(d)
        swapped = crossing_signs(d, checkerboard(d).swapped())
        assert all(swapped[c] == -signs[c] for c in range(d.n))

    def test_non_checkerboard_coloring_rejected(self):
        d = parse_pd(PSEUDOTREF)
        for bogus in ((BLACK,) * len(d.faces), checkerboard(d).colors[:-1], ()):
            with pytest.raises(DiagramError, match="not a checkerboard coloring"):
                crossing_signs(d, pdcore.Coloring(bogus))


class TestComposite:
    def test_trefoil_prime(self):
        assert composite_circles(parse_pd(TREFOIL)) == ()
        assert is_prime(parse_pd(TREFOIL))

    def test_clasp2_prime(self):
        d = parse_pd(CLASP2)
        assert composite_circles(d) == ()
        # Each face pair shares at most one edge.
        for f1 in d.faces:
            for f2 in d.faces:
                if f1.id < f2.id:
                    assert len(set(f1.edges(d)) & set(f2.edges(d))) <= 1

    def test_connsum_splits_factors(self):
        d = fixtures.connsum()
        circles = composite_circles(d)
        assert len(circles) == 1
        assert all(len(side) == 3 for side in circles[0].sides)
        assert not is_prime(d)

    def test_prime_implies_shared_edges_at_most_one(self, small_exhaustive_rows):
        for rows in small_exhaustive_rows:
            d = PlanarDiagram(rows)
            if not is_prime(d):
                continue
            shared = {}
            for lab, (d1, d2) in d.edge_darts.items():
                key = tuple(sorted((d.face_of_dart[d1], d.face_of_dart[d2])))
                shared[key] = shared.get(key, 0) + 1
            assert all(v <= 1 for v in shared.values())


class TestMirror:
    def test_involution(self):
        for code in (KINK, TREFOIL, PSEUDOTREF, CLASP2):
            d = parse_pd(code)
            assert pdcore.isomorphic(mirror(mirror(d)), d)

    def test_mirror_of_alternating_is_alternating(self):
        assert pdcore.is_alternating(mirror(parse_pd(TREFOIL)))

    def test_pseudotref_is_switched_trefoil(self):
        assert pdcore.isomorphic(
            parse_pd(PSEUDOTREF), switch_crossing(parse_pd(TREFOIL), 0)
        )

    @pytest.mark.parametrize("c", [-1, 3, 99])
    def test_switch_outside_crossings_rejected(self, c):
        with pytest.raises(DiagramError, match="not a crossing"):
            switch_crossing(parse_pd(TREFOIL), c)


class TestCanonical:
    def test_relabel_invariance(self, small_exhaustive_rows):
        rng = random.Random(7)
        for rows in small_exhaustive_rows[::5]:
            d = PlanarDiagram(rows)
            base = canonical_encoding(d)
            perm = list(range(d.n))
            rng.shuffle(perm)
            rots = [rng.choice([0, 2]) for _ in range(d.n)]
            labs = list(d.edge_labels)
            shuffled = labs[:]
            rng.shuffle(shuffled)
            r = relabel(d, perm, rots, dict(zip(labs, shuffled)))
            assert canonical_encoding(r) == base

    def test_mirrors_usually_distinct(self):
        d = parse_pd(KINK)
        assert canonical_encoding(d) != canonical_encoding(mirror(d))
        assert shadow_encoding(d) == shadow_encoding(mirror(d))

    def test_odd_rotation_rejected(self):
        with pytest.raises(DiagramError):
            relabel(parse_pd(KINK), [0], [1])

    @pytest.mark.parametrize("perm", [[0, 0, 1], [0, 1, -1], [0, 1], [0, 1, 2, 3], [1, 2, 3]])
    def test_non_permutation_rejected(self, perm):
        with pytest.raises(DiagramError, match="permutation"):
            relabel(parse_pd(TREFOIL), perm, [0, 0, 0])

    @pytest.mark.parametrize("rots", [[0, 0], [0, 0, 0, 0]])
    def test_rotation_count_mismatch_rejected(self, rots):
        with pytest.raises(DiagramError, match="one rotation per crossing"):
            relabel(parse_pd(TREFOIL), [2, 0, 1], rots)

    def test_partial_edge_map_rejected(self):
        with pytest.raises(DiagramError, match="every edge label"):
            relabel(parse_pd(TREFOIL), [0, 1, 2], [0, 0, 0], {1: 2, 2: 1})


class TestCachedFacts:
    def test_facts_are_computed_once(self):
        d = parse_pd(PSEUDOTREF)
        assert composite_circles(d) is composite_circles(d)
        assert checkerboard(d) is checkerboard(d)
        assert crossing_signs(d) is crossing_signs(d)
        assert edge_alternation(d) is edge_alternation(d)
        assert d.edge_circles is d.edge_circles

    def test_cached_mappings_are_read_only(self):
        d = parse_pd(PSEUDOTREF)
        lab = d.edge_labels[0]
        with pytest.raises(TypeError):
            edge_alternation(d)[lab] = True
        with pytest.raises(TypeError):
            crossing_signs(d)[0] = 1
        with pytest.raises(TypeError):
            d.edge_darts[lab] = (0, 1)
        with pytest.raises(TypeError):
            d.edge_circles[0][lab] = 0

    def test_anchored_facts_stay_fresh(self):
        d = parse_pd(TREFOIL)
        other = d.face_at_corner(0, 1)
        assert checkerboard(d, black_face=other) == checkerboard(d).swapped()
        assert crossing_signs(d, checkerboard(d).swapped()) == {c: -s for c, s in crossing_signs(d).items()}

    def test_pickle_keeps_crossings_only(self):
        import pickle

        d = parse_pd(PSEUDOTREF)
        assert d.genus == 1 and not d.composite_circles
        back = pickle.loads(pickle.dumps(d))
        assert back == d and "genus" not in vars(back)
        assert back.genus == d.genus

    def test_planar_and_surface_share_the_core(self):
        from turaev.surfcheck import SurfaceDiagram

        d = parse_pd(PSEUDOTREF)
        s = SurfaceDiagram.from_planar(d)
        assert isinstance(d, pdcore.RotationSystem) and isinstance(s, pdcore.RotationSystem)
        assert (s.alpha, s.faces, s.edge_darts, s.components) == (d.alpha, d.faces, d.edge_darts, d.components)
        assert s.alternation == d.alternation
        assert s != d


class TestReadRows:
    @pytest.mark.parametrize(
        "text",
        [
            '{"foo": 1}',
            '{"crossings": 5}',
            '{"crossings": [1, 2]}',
            '{"crossings": [["a", 1, 2, 2]]}',
            '{"crossings": [[1, 1, 2, 2.5]]}',
            '{"crossings": [[true, 1, 2, 2]]}',
            '{"crossings": [[-1, 2, -2, -1], [2, -2, 3, 3]]}',
            '{"crossings": [[0, 0, -1, -1]]}',
            "[[1, 1, 2, 2]]",
            "X[1,1,2,2] junk",
            "   ",
            pytest.param("X[%s,%s,1,1]" % (HUGE, HUGE), id="text-label-over-the-digit-limit"),
            pytest.param('{"crossings": [[%s, %s, 1, 1]]}' % (HUGE, HUGE), id="json-label-over-the-digit-limit"),
            pytest.param("X[\u0661,\u0661,\u0662,\u0662]", id="non-ascii-digits"),
            pytest.param(DEEP, id="json-nested-past-the-recursion-limit"),
        ],
    )
    def test_malformed_input_raises_parse_error(self, text):
        from turaev.surfcheck import parse_surface

        with pytest.raises(ParseError):
            pdcore.read_rows(text)
        with pytest.raises(ParseError):
            parse_pd(text)
        with pytest.raises(ParseError):
            parse_surface("genus-free: true\n" + text)

    def test_text_and_json_agree(self):
        d = parse_pd(TREFOIL)
        assert pdcore.read_rows(d.to_json()) == pdcore.read_rows(TREFOIL) == list(d.crossings)

    def test_label_zero_accepted_by_both_grammars(self):
        d = parse_pd("X[0,0,1,1]")
        assert parse_pd(d.to_json()) == d
        assert parse_pd(d.to_pd_text()) == d


def _outcome(build, rows):
    """('ok', n) or the exception type and message ``build(rows)`` raises."""
    try:
        return "ok", build(rows).n
    except Exception as exc:  # noqa: BLE001 - the type is the comparison
        return type(exc), str(exc)


def _constructors():
    """(library, reference) constructor pairs: planar, planar allowing
    disconnected input, and surface."""
    from turaev.surfcheck import SurfaceDiagram

    def pair(cls, **kw):
        def reference(rows):
            d = cls(tuple(map(tuple, rows)))
            oracles.validate_by_reference(d, planar=cls is PlanarDiagram, **kw)
            return d

        return (lambda rows: cls.from_rows(rows, **kw)), reference

    return [pair(PlanarDiagram), pair(PlanarDiagram, allow_disconnected=True), pair(SurfaceDiagram)]


class TestFlatCore:
    """The facts read off ``flat_labels`` and ``alpha`` against the label-by-
    label kernels they replaced, kept in ``oracles``."""

    @staticmethod
    def assert_core_matches(d):
        faces, face_of_dart = oracles.faces_by_sigma_walk(d)
        assert d.flat_labels == tuple(d.label(x) for x in range(d.n_darts))
        assert d.alpha == oracles.alpha_by_label_lists(d), d.crossings
        assert d.faces == faces and d.face_of_dart == face_of_dart, d.crossings
        assert d.components == oracles.components_by_union_find(d), d.crossings
        # Key order too: callers iterate these mappings.
        assert list(d.edge_darts.items()) == list(oracles.edge_darts_by_label(d).items()), d.crossings
        face_pairs = oracles.face_pair_edges_by_faces(d)
        assert list(d.face_pair_edges.items()) == list(face_pairs.items()), d.crossings
        alternation = oracles.alternation_by_label(d)
        assert list(d.alternation.items()) == list(alternation.items()), d.crossings
        assert pdcore.is_alternating(d) == all(alternation.values()), d.crossings

    @classmethod
    def assert_planar_matches(cls, diagrams) -> int:
        count = 0
        for d in diagrams:
            for x in (d, mirror(d)):
                cls.assert_core_matches(x)
                assert x.circle_counts == oracles.circle_counts_by_edge_circles(x), x.crossings
                assert x.edge_circles == oracles.edge_circles_by_orbits(x), x.crossings
                if x.is_connected:
                    assert x.genus == oracles.genus_by_edge_circles(x), x.crossings
                else:
                    with pytest.raises(DiagramError, match="Turaev genus is defined for connected diagrams"):
                        x.genus
            count += 1
        return count

    def test_exhaustive_5(self, exhaustive_rows):
        assert self.assert_planar_matches(PlanarDiagram(rows) for rows in exhaustive_rows if len(rows) <= 5) == 5211

    def test_random_corpus(self, random_rows):
        assert self.assert_planar_matches(PlanarDiagram(rows) for rows in random_rows) == len(random_rows)

    def test_seeded_primes(self, bench_inputs):
        rng = random.Random(20261020)
        primes = [PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 60), None)) for _ in range(40)]
        assert self.assert_planar_matches(primes) == 40

    def test_disconnected_unions(self, random_rows):
        rng = random.Random(17)
        unions = []
        for _ in range(60):
            parts = [rng.choice(random_rows) for _ in range(rng.randint(2, 4))]
            rows, top = [], 0
            for part in parts:
                rows += [tuple(lab + top for lab in row) for row in part]
                top += max(map(max, part))
            rng.shuffle(rows)
            unions.append(PlanarDiagram.from_rows(rows, allow_disconnected=True))
        assert all(len(d.components) >= 2 for d in unions)
        assert self.assert_planar_matches(unions) == 60

    def test_turaev_surfaces(self, exhaustive_rows, bench_inputs):
        from turaev.surfcheck import turaev_surface

        rng = random.Random(20261021)
        planar = [PlanarDiagram(rows) for rows in exhaustive_rows if len(rows) <= 5][::7]
        planar += [PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 40), None)) for _ in range(10)]
        for d in planar:
            for x in (d, mirror(d)):
                s = turaev_surface(x)
                self.assert_core_matches(s)
                assert s.genus == oracles.genus_by_edge_circles(x)

    MALFORMED = [
        [],
        [(1, 1, 2, 3)],  # labels 2 and 3 once
        [(1, 1, 1, 2)],  # label 1 three times, 2 once
        [(1, 1, 1, 2), (2, 2, 3, 3)],  # labels 1 and 2 three times
        [(1, 2, 3)],
        [(1, 1, 2, 2), (3, 4, 4)],
        [(1, 1, 2, 2), (3, 3, 4, 4)],  # disconnected
        [(1, 2, 1, 2)],  # one face: V - E + F = 0
        [(1, 2, 1, 2), (3, 4, 3, 4)],
        [(1, 2, 3, 4), (3, 4, 1, 2)],
    ]

    @pytest.mark.parametrize("rows", MALFORMED)
    def test_malformed_rows_raise_as_before(self, rows):
        for build, reference in _constructors():
            assert _outcome(build, rows) == _outcome(reference, rows)
        assert _outcome(PlanarDiagram.from_rows, rows)[0] is DiagramError

    def test_mutated_rows_validate_as_before(self, random_rows):
        """Swapped, copied and dropped labels: every constructor accepts
        exactly what the reference checks accept and raises their message
        otherwise."""
        rng = random.Random(23)
        verdicts = set()
        for rows in random_rows[:400]:
            flat = [lab for row in rows for lab in row]
            i, j = rng.randrange(len(flat)), rng.randrange(len(flat))
            kind = rng.randrange(3)
            if kind == 0:
                flat[i], flat[j] = flat[j], flat[i]
            elif kind == 1:
                flat[i] = flat[j]
            mutated = [tuple(flat[k : k + 4]) for k in range(0, len(flat), 4)]
            if kind == 2:
                del mutated[i >> 2]
            for build, reference in _constructors():
                got = _outcome(build, mutated)
                assert got == _outcome(reference, mutated), mutated
                verdicts.add("ok" if got[0] == "ok" else got[1].split(":")[0].split(" violated")[0])
        # The mutations reach every check that can fail on 4-slot rows.
        assert verdicts >= {
            "ok",
            "edge labels must occur exactly twice,",
            "underlying 4-valent graph is disconnected",
            "rotation system is not planar",
        }, verdicts
