import random

import pytest

from turaev import fixtures, moves
from turaev.moves import (
    CycleOfTangles,
    PipelineRefused,
    almost_alternating_form,
    core_arc,
    cycle_of_tangles,
    flype_adjacent,
    is_almost_alternating,
    rii_cancel,
    split_twist_sites,
)
from turaev.pdcore import (
    DiagramError,
    PlanarDiagram,
    Refused,
    canonical_encoding,
    is_alternating,
    is_prime,
    mirror,
    parse_pd,
)
from turaev.states import loop_crossings, turaev_genus
from turaev.surgery import find_cutting_arcs, surger_arc
from turaev.tangles import decompose, gen_cycle

import oracles

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
PSEUDOTREF = parse_pd("X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]")
CLASP2 = parse_pd("X[1,2,3,4] X[3,2,1,4]")
# A nine-crossing genus-one prime whose reduction flypes twice.
TWO_FLYPES = (
    "X[1,2,3,4] X[5,6,7,8] X[1,9,10,11] X[8,12,4,3] X[2,11,13,14] "
    "X[14,13,15,5] X[16,17,18,12] X[16,7,6,15] X[10,9,18,17]"
)


class TestCycleOfTangles:
    def test_roundtrip(self):
        for d in (PSEUDOTREF, CLASP2, fixtures.cycle4(), fixtures.aa6()):
            cycle = cycle_of_tangles(d)
            assert canonical_encoding(cycle.reconstruct()) == canonical_encoding(d)

    def test_site_split_preserves_diagram(self):
        cycle = cycle_of_tangles(fixtures.aa6())
        sites = split_twist_sites(cycle)
        assert sites.n == 6
        assert canonical_encoding(sites.reconstruct()) == canonical_encoding(fixtures.aa6())

    @staticmethod
    def assert_matches_search(diagrams) -> int:
        """Compare payload legs and origins with the orientation search on
        every genus-one prime among ``diagrams`` and its mirror; returns
        the number of genus-one primes."""
        seen = 0
        for d in diagrams:
            if not is_prime(d) or turaev_genus(d) != 1:
                continue
            seen += 1
            for x in (d, mirror(d)):
                units = cycle_of_tangles(x).units
                ours = tuple((u.origin, tuple(4 * u.origin[c] + s for c, s in u.payload.legs)) for u in units)
                assert ours == oracles.cycle_arrangements_by_search(x), x.to_pd_text()
        return seen

    def test_search_oracle_on_exhaustive_5(self, exhaustive_rows):
        diagrams = (PlanarDiagram(rows) for rows in exhaustive_rows if len(rows) <= 5)
        assert self.assert_matches_search(diagrams) == 37

    def test_search_oracle_on_random_corpus(self, random_rows):
        assert self.assert_matches_search(PlanarDiagram(rows) for rows in random_rows) == 40

    def test_search_oracle_on_genus_one_primes(self, bench_inputs):
        rng = random.Random(16)
        diagrams = [
            PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(9, 60), 1)) for _ in range(40)
        ]
        assert self.assert_matches_search(diagrams) == 40


class TestFlype:
    def test_cycle4_reorder_keeps_genus(self):
        cycle = cycle_of_tangles(fixtures.cycle4())
        flyped = flype_adjacent(cycle, 0)
        d = flyped.reconstruct()
        assert d.n == 4
        assert turaev_genus(d) == 1

    def test_double_flype_roundtrip(self):
        cycle = cycle_of_tangles(PSEUDOTREF)
        twice = flype_adjacent(flype_adjacent(cycle, 0), 1)
        assert canonical_encoding(twice.reconstruct()) == canonical_encoding(PSEUDOTREF)

    def test_multicrossing_position_rejected(self):
        cycle = cycle_of_tangles(PSEUDOTREF)
        multi = next(i for i, u in enumerate(cycle.units) if u.size > 1)
        with pytest.raises(DiagramError):
            flype_adjacent(cycle, multi)

    def test_flype_preserves_payload_multiset(self):
        cycle = cycle_of_tangles(fixtures.aa6())
        flyped = flype_adjacent(cycle, 0)
        assert sorted(u.size for u in flyped.units) == sorted(u.size for u in cycle.units)


class TestRiiCancel:
    def test_opposite_pair_removed(self):
        # Four single-crossing tangles; a cancelling pair leaves genus one.
        cycle = split_twist_sites(cycle_of_tangles(fixtures.cycle4()))
        marked = CycleOfTangles(cycle.units, (0, 1))
        out = rii_cancel(marked)
        assert out.crossing_count == 2
        assert turaev_genus(out.reconstruct()) == 1

    def test_three_same_kind_unchanged(self):
        # The 3-twist tangle splits into three same-kind sites; no pair
        # of them is joined by non-alternating edges.
        d = gen_cycle((1, -1), (1, 3))
        sites = split_twist_sites(cycle_of_tangles(d))
        run = tuple(
            i for i, u in enumerate(sites.units) if u.size == 1 and len(sites.units) - 1 != i
        )
        three = tuple(i for i in range(sites.n) if sites.units[i].size == 1)[-3:]
        marked = CycleOfTangles(sites.units, three)
        out = rii_cancel(marked)
        assert out.crossing_count == sites.crossing_count

    def test_unmarked_rejected(self):
        cycle = cycle_of_tangles(PSEUDOTREF)
        with pytest.raises(DiagramError):
            rii_cancel(cycle)


class TestIsAlmostAlternating:
    def test_pseudotref(self):
        assert is_almost_alternating(PSEUDOTREF)

    def test_clasp2(self):
        assert is_almost_alternating(CLASP2)

    def test_quad_cycle_false(self):
        assert not is_almost_alternating(gen_cycle((1, -1, 1, -1), (2, 2, 2, 2)))

    def test_alternating_refused(self):
        with pytest.raises(Refused):
            is_almost_alternating(TREFOIL)

    def test_matches_switching_oracle(self, small_exhaustive_rows, random_rows):
        checked = 0
        for rows in list(small_exhaustive_rows) + list(random_rows):
            d = PlanarDiagram(rows)
            if is_alternating(d):
                continue
            assert is_almost_alternating(d) == oracles.is_almost_alternating_by_switching(rows), rows
            checked += 1
        assert checked > 500

    def test_genus_at_most_dealternating_number(self, corpus_facts):
        # g_T <= dalt: a switch moves s_A and s_B by at most one each, so
        # the genus by at most one, and switching every minority-sign
        # crossing gives an alternating diagram, of genus 0.
        for rows, _, _, genus, _, _, _ in corpus_facts:
            plus = sum(s > 0 for s in PlanarDiagram(rows).signs.values())
            assert genus <= min(plus, len(rows) - plus), rows


class TestPipeline:
    def test_pseudotref_already_reduced(self):
        out = almost_alternating_form(PSEUDOTREF)
        assert is_almost_alternating(out)
        assert canonical_encoding(out) == canonical_encoding(PSEUDOTREF)

    def test_aa6(self):
        out = almost_alternating_form(fixtures.aa6())
        assert is_almost_alternating(out)
        assert turaev_genus(out) == 1
        assert out.n <= fixtures.aa6().n

    def test_cycle4(self):
        out = almost_alternating_form(fixtures.cycle4())
        assert is_almost_alternating(out)

    @pytest.mark.parametrize(
        "diagram, moves",
        [
            (fixtures.aa6, ["input", "twist-cancelled", "certified"]),
            (
                lambda: parse_pd(TWO_FLYPES),
                ["input", "flype at 3", "flype at 2", "twist-cancelled", "certified"],
            ),
        ],
        ids=["aa6", "two-flypes"],
    )
    def test_trace(self, diagram, moves):
        d = diagram()
        trace = []
        out = almost_alternating_form(d, trace)
        assert [step["move"] for step in trace] == moves
        assert trace[0]["diagram"] == d.to_pd_text()
        assert trace[-1]["diagram"] == out.to_pd_text()
        for step in trace:
            assert turaev_genus(parse_pd(step["diagram"])) == 1

    def test_untraced_run_builds_no_flype_diagrams(self, monkeypatch):
        # The trace reads each flype's diagram, which the flype's own
        # checks already built; a traced run builds nothing more. Each
        # cycle is built once: the cycle before the first flype, one per
        # flype (the last one carried into the twist marking) and the
        # cancelled cycle.
        built = []
        real = moves.assemble_ring
        monkeypatch.setattr(moves, "assemble_ring", lambda payloads: built.append(1) or real(payloads))
        almost_alternating_form(parse_pd(TWO_FLYPES))
        untraced = len(built)
        almost_alternating_form(parse_pd(TWO_FLYPES), [])
        traced = len(built) - untraced
        assert traced == untraced == 4

    def test_traces_only_the_input(self, traces):
        d = parse_pd(TWO_FLYPES)
        traces.clear()
        almost_alternating_form(d)
        assert traces == []

    def test_non_inadequate_input_refused(self):
        d = parse_pd("X[1,2,3,4] X[1,5,6,7] X[2,7,8,3] X[5,4,8,6]")
        assert turaev_genus(d) == 1
        assert loop_crossings(d).verdict == "B-semi-adequate"
        with pytest.raises(Refused, match="not inadequate"):
            almost_alternating_form(d)

    def test_wrong_genus_refused(self):
        with pytest.raises(Refused):
            almost_alternating_form(fixtures.gen2a())

    def test_refusals_carry_intermediate(self):
        # Vertical-twist two-tangle diagrams evade the flype stage.
        d = parse_pd("X[1,2,3,4] X[1,4,5,6] X[2,7,8,3] X[6,5,8,7]")
        assert turaev_genus(d) == 1
        with pytest.raises(PipelineRefused) as exc:
            almost_alternating_form(d)
        assert exc.value.intermediate is not None


class TestCoreArc:
    def test_pseudotref_genus_drop(self):
        arc = core_arc(PSEUDOTREF, 0)
        result, _ = surger_arc(PSEUDOTREF, arc.face, arc.positions[0], arc.positions[1])
        total = sum(turaev_genus(p) for p, _ in oracles.split_components(result))
        assert total == 0

    def test_cycle4_arc_is_cutting_arc(self):
        d = fixtures.cycle4()
        report = loop_crossings(d)
        c = (report.a_loops + report.b_loops)[0]
        arc = core_arc(d, c)
        assert arc in find_cutting_arcs(d)
        assert {PlanarDiagram.label(d, 4 * c + s) for s in range(4)} >= set(arc.edges)

    def test_non_loop_crossing_rejected(self):
        with pytest.raises(DiagramError):
            core_arc(TREFOIL, 0)

    def test_genus_one_primes_always_reducible(self):
        for signs, sizes in [((1, -1, 1, -1), (1, 1, 1, 1)), ((1, -1), (1, 2))]:
            d = gen_cycle(signs, sizes)
            report = loop_crossings(d)
            for c in set(report.a_loops) | set(report.b_loops):
                arc = core_arc(d, c)
                result, _ = surger_arc(d, arc.face, arc.positions[0], arc.positions[1])
                total = sum(turaev_genus(p) for p, _ in oracles.split_components(result))
                assert total == turaev_genus(d) - 1


class TestNoAbLoopsInLongCycles:
    def test_corpus_property(self, small_exhaustive_rows):
        # A prime genus-one diagram with more than two maximal tangles has
        # no crossing that is a loop in both states.
        for rows in small_exhaustive_rows:
            d = PlanarDiagram(rows)
            if not is_prime(d) or turaev_genus(d) != 1:
                continue
            dec = decompose(d)
            if dec.alternating or len(dec.tangles) <= 2:
                continue
            report = loop_crossings(d)
            assert report.ab_loops == ()
