import hashlib
import random
from dataclasses import replace

import pytest

import oracles
from turaev import casetable, cli, fixtures
from turaev.pdcore import (
    DiagramError,
    PlanarDiagram,
    Refused,
    crossing_signs,
    edge_alternation,
    is_prime,
    mirror,
    parse_pd,
    relabel,
)
from turaev.states import turaev_genus
from turaev.tangles import (
    Genus2Recipe,
    _pair_split,
    classify_genus_one,
    classify_genus_two,
    contract_ribbons,
    decompose,
    gen_cycle,
    gen_genus2,
)

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
PSEUDOTREF = parse_pd("X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]")
CLASP2 = parse_pd("X[1,2,3,4] X[3,2,1,4]")

# The smallest diagrams found for genus-two structures outside the first
# catalogue of observed descriptors: one valence-4 junction with two
# valence-2 junctions, a theta of three even ribbons, and a theta of two
# even ribbons and a direct pair of single edges.
CASE6 = (
    "X[1,2,3,4] X[5,6,7,8] X[9,10,11,12] X[13,1,11,14] X[13,6,5,2] "
    "X[15,16,17,18] X[19,8,7,14] X[15,4,20,16] X[17,9,12,18] X[20,3,19,10]"
)
THETA_THREE_EVEN = (
    "X[1,2,3,4] X[3,5,6,4] X[7,8,9,10] X[11,12,13,5] X[14,15,9,8] X[14,12,11,16] "
    "X[13,17,18,6] X[19,2,1,20] X[18,17,21,22] X[21,7,10,22] X[19,20,15,16]"
)
THETA_DIRECT_PAIR = (
    "X[1,2,3,4] X[5,6,1,4] X[7,8,9,10] X[11,10,9,12] X[13,6,5,14] "
    "X[11,12,13,15] X[3,2,16,17] X[8,18,17,16] X[7,15,14,18]"
)

# A nine-crossing genus-three prime whose junction string, under a greedy
# choice of each circle's rotation, came out different for its mirror.
GENUS3_NINE = (
    "X[1,2,3,4] X[1,4,5,6] X[2,6,7,8] X[3,8,9,10] X[5,10,11,12] "
    "X[9,7,13,14] X[12,11,15,16] X[17,13,16,18] X[15,14,17,18]"
)


def genus_one_outcome(classify, d: PlanarDiagram):
    """(order, junctions, white_faces) of the recognized cycle, or None
    when ``classify`` refuses."""
    try:
        cyc = classify(d)
    except Refused:
        return None
    return cyc if isinstance(cyc, tuple) else (cyc.order, cyc.junctions, cyc.white_faces)


def assert_genus_one_matches_oracle(diagrams) -> int:
    """Compare against the junction-pairing recognizer; returns the number
    of recognized cycles."""
    recognized = 0
    for d in diagrams:
        ours = genus_one_outcome(classify_genus_one, d)
        assert ours == genus_one_outcome(oracles.genus_one_cycle_by_junction_pairing, d), d.to_pd_text()
        recognized += ours is not None
    return recognized


def random_relabel(d: PlanarDiagram, rng: random.Random) -> PlanarDiagram:
    perm = list(range(d.n))
    rng.shuffle(perm)
    rots = [rng.choice([0, 2]) for _ in range(d.n)]
    labs = list(d.edge_labels)
    shuffled = labs[:]
    rng.shuffle(shuffled)
    return relabel(d, perm, rots, dict(zip(labs, shuffled)))


class TestDecompose:
    def test_pseudotref(self):
        dec = decompose(PSEUDOTREF)
        assert sorted(t.size for t in dec.tangles) == [1, 2]
        assert len(dec.channel_edges) == 4
        assert all(ce.tangles[0] != ce.tangles[1] for ce in dec.channel_edges)

    def test_clasp2(self):
        dec = decompose(CLASP2)
        assert [t.size for t in dec.tangles] == [1, 1]
        assert len(dec.channel_edges) == 4

    def test_trefoil_alternating_result(self):
        dec = decompose(TREFOIL)
        assert dec.alternating
        assert len(dec.tangles) == 1
        assert dec.channel_edges == ()

    def test_every_crossing_in_one_tangle(self):
        dec = decompose(PSEUDOTREF)
        seen = [c for t in dec.tangles for c in t.crossings]
        assert sorted(seen) == list(range(PSEUDOTREF.n))

    def test_channel_faces(self):
        dec = decompose(PSEUDOTREF)
        alt = edge_alternation(PSEUDOTREF)
        for fid in dec.channel_faces:
            assert any(not alt[PSEUDOTREF.label(d)] for d in PSEUDOTREF.faces[fid])

    def test_sign_constancy_and_opposition(self, small_exhaustive_rows):
        for rows in small_exhaustive_rows[::3]:
            d = PlanarDiagram(rows)
            dec = decompose(d)
            signs = crossing_signs(d)
            for t in dec.tangles:
                assert len({signs[c] for c in t.crossings}) == 1
            for ce in dec.channel_edges:
                t1, t2 = ce.tangles
                assert t1 != t2
                assert dec.tangles[t1].sign != dec.tangles[t2].sign

    def test_boundary_circles_have_even_legs(self, small_exhaustive_rows):
        for rows in small_exhaustive_rows[::7]:
            d = PlanarDiagram(rows)
            dec = decompose(d)
            if dec.alternating:
                continue
            for t in dec.tangles:
                assert len(t.legs) % 2 == 0
                assert t.valence >= 1


def non_alternating_decompositions(rows_list):
    for rows in rows_list:
        dec = decompose(PlanarDiagram(rows))
        if not dec.alternating:
            yield dec


class TestLegTable:
    @pytest.fixture(scope="class")
    def decompositions(self, exhaustive_rows, random_rows):
        rows_list = [rows for rows in exhaustive_rows if len(rows) <= 5] + list(random_rows)
        return list(non_alternating_decompositions(rows_list))

    def test_legs_are_the_non_alternating_darts(self, decompositions):
        for dec in decompositions:
            d = dec.diagram
            alt = edge_alternation(d)
            assert set(dec.leg_at) == {x for x in range(d.n_darts) if not alt[d.label(x)]}

    def test_alpha_sends_each_leg_to_another_tangle(self, decompositions):
        for dec in decompositions:
            alpha = dec.diagram.alpha
            for leg, (tid, _, _) in dec.leg_at.items():
                assert dec.leg_at[alpha[leg]][0] != tid, dec.diagram.to_pd_text()

    def test_adjacency_is_cyclic_index_adjacency(self, decompositions):
        for dec in decompositions:
            for t in dec.tangles:
                for a in t.legs:
                    for b in t.legs:
                        expected = any(
                            a in c and b in c and (c.index(a) - c.index(b)) % len(c) in (1, len(c) - 1)
                            for c in t.boundary_circles
                        )
                        assert dec.adjacent(a, b) == expected, dec.diagram.to_pd_text()


class TestClassifyGenusOne:
    def test_pseudotref_cycle_of_two(self):
        cyc = classify_genus_one(PSEUDOTREF)
        assert cyc.n == 2
        assert sorted(cyc.sizes) == [1, 2]

    def test_cycle4(self):
        cyc = classify_genus_one(fixtures.cycle4())
        assert cyc.n == 4
        assert cyc.sizes == (1, 1, 1, 1)
        assert turaev_genus(fixtures.cycle4()) == 1

    def test_trefoil_refused(self):
        with pytest.raises(Refused, match="alternating"):
            classify_genus_one(TREFOIL)

    def test_composite_refused(self):
        with pytest.raises(Refused, match="composite"):
            classify_genus_one(fixtures.connsum())

    def test_two_white_faces_carry_channel(self):
        cyc = classify_genus_one(PSEUDOTREF)
        assert len(cyc.white_faces) == 2

    def test_oracle_on_exhaustive_5(self, exhaustive_rows):
        # exhaustive(5) is the part of the session's exhaustive(6) with at
        # most five crossings.
        diagrams = [PlanarDiagram(rows) for rows in exhaustive_rows if len(rows) <= 5]
        assert len(diagrams) == 5211
        assert assert_genus_one_matches_oracle(diagrams) > 0

    def test_oracle_on_random_corpus(self, random_rows):
        assert assert_genus_one_matches_oracle(PlanarDiagram(rows) for rows in random_rows) > 0

    def test_oracle_on_genus_one_primes(self, bench_inputs):
        rng = random.Random(7)
        diagrams = [
            PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 80), 1)) for _ in range(60)
        ]
        assert assert_genus_one_matches_oracle(diagrams) == 60

    def test_oracle_on_four_edge_pair(self):
        # Two tangles joined by four edges: both leg pairings are splits.
        d = parse_pd("X[1,2,3,4] X[1,4,3,2]")
        assert assert_genus_one_matches_oracle([d, mirror(d)]) == 2

    def test_matches_genus_on_small_corpus(self, small_exhaustive_rows):
        for rows in small_exhaustive_rows:
            d = PlanarDiagram(rows)
            if not is_prime(d):
                continue
            try:
                classify_genus_one(d)
                recognized = True
            except Refused:
                recognized = False
            assert recognized == (turaev_genus(d) == 1), d.to_pd_text()


class TestGenCycle:
    def test_two_singletons_is_clasp2_projection(self):
        from turaev.pdcore import shadow_encoding

        g = gen_cycle((1, -1), (1, 1))
        assert shadow_encoding(g) == shadow_encoding(CLASP2)
        cyc = classify_genus_one(g)
        assert cyc.n == 2 and cyc.sizes == (1, 1)

    def test_cycle4_roundtrip(self):
        cyc = classify_genus_one(gen_cycle((1, -1, 1, -1), (1, 1, 1, 1)))
        assert cyc.n == 4

    def test_constant_signs_rejected(self):
        with pytest.raises(DiagramError):
            gen_cycle((1, 1), (1, 1))

    def test_adjacent_equal_signs_rejected(self):
        with pytest.raises(DiagramError):
            gen_cycle((1, 1, -1), (1, 1, 1))

    def test_genus_one_for_various_shapes(self):
        for signs, sizes in [
            ((1, -1), (3, 2)),
            ((1, -1, 1, -1), (2, 1, 1, 2)),
            ((-1, 1, -1, 1, -1, 1), (1, 2, 1, 1, 2, 1)),
        ]:
            d = gen_cycle(signs, sizes)
            assert turaev_genus(d) == 1
            assert classify_genus_one(d).n == len(signs)


class TestRibbons:
    def test_cycle4_single_ribbon_cycle(self):
        desc = contract_ribbons(decompose(fixtures.cycle4()))
        assert desc.all_two_cycle
        assert desc.canonical.startswith("cycle[n=4")

    def test_pseudotref_cycle_length_two(self):
        desc = contract_ribbons(decompose(PSEUDOTREF))
        assert desc.all_two_cycle
        assert desc.canonical == "cycle[n=2,parity=0]"

    def test_gen2a_one_valence_four(self):
        desc = contract_ribbons(decompose(fixtures.gen2a()))
        assert desc.valences.count(4) == 1
        assert len(desc.ribbons) == 2
        assert not desc.non_simply_connected

    def test_confluence_under_relabeling(self):
        rng = random.Random(11)
        for d in (fixtures.gen2a(), fixtures.gen2b(), fixtures.gen2_annular()):
            base = contract_ribbons(decompose(d)).canonical
            r = random_relabel(d, rng)
            assert contract_ribbons(decompose(r)).canonical == base

    def test_alternating_refused(self):
        with pytest.raises(Refused):
            contract_ribbons(decompose(TREFOIL))

    def test_canonical_invariant_at_genus_three(self):
        d = parse_pd(GENUS3_NINE)
        assert (d.n, turaev_genus(d)) == (9, 3)
        base = contract_ribbons(decompose(d)).canonical
        rng = random.Random(24)
        for x in [mirror(d)] + [random_relabel(y, rng) for y in (d, mirror(d)) for _ in range(4)]:
            assert contract_ribbons(decompose(x)).canonical == base


GENUS_TWO_FIXTURES = {
    "gen2a": fixtures.gen2a,
    "gen2b": fixtures.gen2b,
    "annular": fixtures.gen2_annular,
    "theta-even": lambda: gen_genus2(fixtures.THETA_EVEN_RECIPE),
    "theta-odd": lambda: gen_genus2(fixtures.THETA_ODD_RECIPE),
    "mixed": lambda: gen_genus2(fixtures.GEN2MIX_RECIPE),
    "case6": lambda: parse_pd(CASE6),
    "theta-three-even": lambda: parse_pd(THETA_THREE_EVEN),
    "theta-direct-pair": lambda: parse_pd(THETA_DIRECT_PAIR),
}

# sha256 of the classify JSON lines of the first 60 genus-two primes drawn
# by ``bench/inputs.prime_rows`` with cap 2 from seed 20261019.
GENUS_TWO_CLASSIFY_SHA256 = "4665c48b162ef258c91c60d1da8a3974d4834406760ebbf9123d9acf44e4e238"


class TestClassifyGenusTwo:
    @pytest.mark.parametrize("name", sorted(GENUS_TWO_FIXTURES))
    def test_junction_words_give_valence_and_disc(self, name):
        d = GENUS_TWO_FIXTURES[name]()
        for x in (d, mirror(d)):
            dec = decompose(x)
            desc = contract_ribbons(dec)
            junctions = [t for t in dec.tangles if _pair_split(dec, t) is None]
            assert len(junctions) == len(desc.junction_words) > 0
            for t, word in zip(junctions, desc.junction_words):
                assert (sum(map(len, word)) // 2, len(word) == 1) == (t.valence, t.simply_connected)

    def test_classify_json_pinned_on_seeded_primes(self, bench_inputs):
        rng = random.Random(20261019)
        digest = hashlib.sha256()
        seen = 0
        while seen < 60:
            rows = bench_inputs.prime_rows(rng, rng.randrange(8, 25), 2)
            if bench_inputs.genus_rows(rows) != 2:
                continue
            seen += 1
            digest.update(cli._dump(cli._classify_worker(bench_inputs.pd_text(rows))).encode() + b"\n")
        assert digest.hexdigest() == GENUS_TWO_CLASSIFY_SHA256

    def test_canonical_classes_match_the_ordering_search(self, corpus_facts, bench_inputs):
        diagrams = [PlanarDiagram(rows) for rows, _, _, g, prime, _, _ in corpus_facts if prime and g == 2]
        rng = random.Random(20261019)
        for _ in range(200):
            rows = bench_inputs.prime_rows(rng, rng.randrange(8, 25), 2)
            if bench_inputs.genus_rows(rows) == 2:
                diagrams.append(PlanarDiagram.from_rows(rows))
        named = [GENUS_TWO_FIXTURES[name]() for name in sorted(GENUS_TWO_FIXTURES)]
        pairs = set()
        for d in diagrams + named + [mirror(d) for d in named]:
            desc = contract_ribbons(decompose(d))
            pairs.add((desc.canonical, oracles.canonical_by_junction_orderings(desc.junction_words, desc.ribbons)))
        # Equal walk strings exactly when equal ordering-search strings.
        assert len({walk for walk, _ in pairs}) == len({search for _, search in pairs}) == len(pairs) > 1

    def test_gen2a_case(self):
        desc = classify_genus_two(fixtures.gen2a())
        assert desc.case_label in (1, 3, 6)
        assert desc.case_label == 1

    def test_gen2b_case8(self):
        desc = classify_genus_two(fixtures.gen2b())
        assert desc.case_label == 8
        assert set(desc.valences) == {2}
        dec = decompose(fixtures.gen2b())
        assert any(len(dec.neighbors(t.id)) >= 4 for t in dec.tangles)

    def test_annular_case4(self):
        desc = classify_genus_two(fixtures.gen2_annular())
        assert desc.non_simply_connected
        assert desc.case_label == 4

    def test_theta_cases(self):
        even = classify_genus_two(gen_genus2(fixtures.THETA_EVEN_RECIPE))
        odd = classify_genus_two(gen_genus2(fixtures.THETA_ODD_RECIPE))
        assert even.case_label == 2
        assert odd.case_label == 5

    def test_mixed_valence4_case(self):
        desc = classify_genus_two(gen_genus2(fixtures.GEN2MIX_RECIPE))
        assert desc.case_label == 3

    @pytest.mark.parametrize(
        "text, case",
        [(CASE6, 6), (THETA_THREE_EVEN, 2), (THETA_DIRECT_PAIR, 2)],
        ids=["case6", "theta-three-even", "theta-direct-pair"],
    )
    def test_pinned_structures(self, text, case):
        d = parse_pd(text)
        for x in (d, mirror(d)):
            assert classify_genus_two(x).case_label == case

    @pytest.mark.parametrize(
        "diagram, mutate",
        [
            # one ribbon of the all-even theta made odd: mixed parities
            (
                lambda: parse_pd(THETA_THREE_EVEN),
                lambda desc: replace(
                    desc, ribbons=(replace(desc.ribbons[0], interior=(0,)),) + desc.ribbons[1:]
                ),
            ),
            # an even ribbon with both ends on the valence-4 junction
            (
                fixtures.gen2a,
                lambda desc: replace(
                    desc, ribbons=(replace(desc.ribbons[0], interior=(0, 1)),) + desc.ribbons[1:]
                ),
            ),
            # a closed cycle of 2-tangles has genus one
            (fixtures.gen2a, lambda desc: replace(desc, all_two_cycle=True)),
        ],
        ids=["theta-mixed-parities", "valence4-even-loop", "two-cycle"],
    )
    def test_structure_outside_the_cases_raises(self, diagram, mutate):
        dec = decompose(diagram())
        with pytest.raises(DiagramError):
            casetable.lookup_case(mutate(contract_ribbons(dec)), dec)

    def test_seeded_random_primes_labelled(self, bench_inputs):
        rng, relabel_rng = random.Random(5), random.Random(6)
        seen = 0
        for _ in range(60):
            d = PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 60), 2))
            if turaev_genus(d) != 2:
                continue
            seen += 1
            case = classify_genus_two(d).case_label
            assert case in range(1, 9)
            assert oracles.genus_two_case_by_table(d) in (None, case)
            assert classify_genus_two(mirror(d)).case_label == case
            assert classify_genus_two(random_relabel(d, relabel_rng)).case_label == case
        assert seen >= 50

    def test_trefoil_refused(self):
        with pytest.raises(Refused):
            classify_genus_two(TREFOIL)

    def test_descriptor_invariant_under_mirror(self):
        for d in (fixtures.gen2a(), fixtures.gen2b(), fixtures.gen2_annular()):
            assert (
                classify_genus_two(mirror(d)).canonical
                == classify_genus_two(d).canonical
            )


class TestGenGenus2:
    def test_gen2a_recipe(self):
        d = gen_genus2(fixtures.GEN2A_RECIPE)
        assert turaev_genus(d) == 2
        assert is_prime(d)

    def test_empty_recipe_rejected(self):
        with pytest.raises(DiagramError):
            gen_genus2(Genus2Recipe((), (), (), ((("junction", 0, 0)), ("junction", 1, 0))))

    def test_bad_splice_rejected(self):
        recipe = Genus2Recipe(
            (1, -1), (1, 1), ((1, 1, ("junction", 0, 0)),),
            (("piece", 0, 1), ("piece", 0, 1)),
        )
        with pytest.raises(DiagramError):
            gen_genus2(recipe)
