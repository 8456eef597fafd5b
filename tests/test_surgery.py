import pytest

from turaev import fixtures
from turaev.pdcore import (
    DiagramError,
    PlanarDiagram,
    Refused,
    canonical_encoding,
    composite_circles,
    is_alternating,
    is_prime,
    parse_pd,
)
from turaev.states import all_a, all_b, state_circles, turaev_genus
from turaev.surgery import (
    certify_concentric,
    connect_sum,
    find_cutting_arcs,
    inverse_surgery,
    outermost_bigon_arc,
    reduce_ladder,
    split_components,
    split_step,
    surger_arc,
    surger_cutting_arc,
)

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
PSEUDOTREF = parse_pd("X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]")
CLASP2 = parse_pd("X[1,2,3,4] X[3,2,1,4]")


def circle_counts(d):
    return state_circles(d, all_a(d)).n, state_circles(d, all_b(d)).n


class TestFindCuttingArcs:
    def test_clasp2_all_pairs_qualify(self):
        arcs = find_cutting_arcs(CLASP2)
        # One all-A and one all-B circle: every same-face pair of
        # non-alternating edges is a cutting arc, one per bigon face.
        assert len(arcs) == 4
        assert {a.alpha_circle for a in arcs} == {0}
        assert {a.beta_circle for a in arcs} == {0}

    def test_pseudotref_nonempty(self):
        arcs = find_cutting_arcs(PSEUDOTREF)
        assert arcs
        crossing0 = set(PSEUDOTREF.crossings[0])
        for arc in arcs:
            assert set(arc.edges) <= crossing0

    def test_trefoil_refused(self):
        with pytest.raises(Refused, match="alternating"):
            find_cutting_arcs(TREFOIL)

    def test_composite_refused(self):
        composite = connect_sum(PSEUDOTREF, 0, TREFOIL, 0)
        assert not is_alternating(composite)
        with pytest.raises(Refused, match="composite"):
            find_cutting_arcs(composite)


class TestOutermostBigonArc:
    def test_deterministic(self):
        assert outermost_bigon_arc(CLASP2) == outermost_bigon_arc(CLASP2)

    def test_is_a_cutting_arc(self):
        for d in (CLASP2, PSEUDOTREF, fixtures.cycle4()):
            assert outermost_bigon_arc(d) in find_cutting_arcs(d)

    def test_pseudotref_edges_at_crossing0(self):
        arc = outermost_bigon_arc(PSEUDOTREF)
        assert set(arc.edges) <= set(PSEUDOTREF.crossings[0])

    def test_corrupted_input_internal_error(self, monkeypatch):
        # A composite diagram with no empty bigon face, pushed past the
        # primality precondition: ordinarily refused up front, so the
        # internal error is reachable only through corruption like this.
        import turaev.surgery as surgery_mod

        d = parse_pd("X[1,1,2,3] X[2,4,4,5] X[6,3,7,6] X[7,5,8,8]")
        assert composite_circles(d)
        monkeypatch.setattr(surgery_mod, "composite_circles", lambda _d: ())
        with pytest.raises(DiagramError, match="no empty bigon"):
            outermost_bigon_arc(d)


class TestSurgerArc:
    def test_clasp2_drops_genus(self):
        arc = outermost_bigon_arc(CLASP2)
        result, attaching = surger_cutting_arc(CLASP2, arc)
        assert result.is_connected
        assert result.n == 2
        assert turaev_genus(result) == 0

    def test_counts_increase_by_one(self):
        for d in (CLASP2, PSEUDOTREF, fixtures.cycle4(), fixtures.gen2a()):
            na, nb = circle_counts(d)
            result, _ = surger_cutting_arc(d, outermost_bigon_arc(d))
            assert circle_counts(result) == (na + 1, nb + 1)

    def test_every_cutting_arc_drops_genus(self):
        for d in (CLASP2, PSEUDOTREF, fixtures.cycle4()):
            g = turaev_genus(d)
            na, nb = circle_counts(d)
            for arc in find_cutting_arcs(d):
                result, _ = surger_cutting_arc(d, arc)
                assert circle_counts(result) == (na + 1, nb + 1)
                total = sum(
                    turaev_genus(piece) for piece, _ in split_components(result)
                )
                assert total == g - 1

    def test_inverse_restores(self):
        for d in (CLASP2, PSEUDOTREF):
            arc = outermost_bigon_arc(d)
            result, attaching = surger_cutting_arc(d, arc)
            back = inverse_surgery(result, attaching)
            back = PlanarDiagram.from_rows(back.crossings)
            assert canonical_encoding(back) == canonical_encoding(d)

    def test_malformed_arc_rejected(self):
        kink = parse_pd("X[1,1,2,2]")
        with pytest.raises(DiagramError):
            surger_arc(kink, 0, 0, 0)
        with pytest.raises(DiagramError):
            surger_arc(kink, 0, 0, 99)


class TestConnectSum:
    def test_connsum_fixture(self):
        built = connect_sum(TREFOIL, 0, TREFOIL, 0)
        assert canonical_encoding(built) == canonical_encoding(fixtures.connsum())
        assert turaev_genus(built) == 0
        assert is_alternating(built)
        assert not is_prime(built)

    def test_genus_additive(self):
        joined = connect_sum(PSEUDOTREF, 0, CLASP2, 0)
        assert turaev_genus(joined) == 2
        assert not is_prime(joined)


class TestSplitStep:
    def test_clasp2(self):
        step = split_step(CLASP2)
        assert step.genus_sum == 0
        assert all(is_prime(c) for c in step.components)

    def test_pseudotref(self):
        step = split_step(PSEUDOTREF)
        assert step.genus_sum == 0
        assert all(is_prime(c) for c in step.components)

    def test_gen2a_genus_sum_one(self):
        step = split_step(fixtures.gen2a())
        assert step.genus_sum == 1
        genera = sorted(turaev_genus(c) for c in step.components)
        assert genera[-1] == 1
        assert all(g == 0 for g in genera[:-1])

    def test_trefoil_refused(self):
        with pytest.raises(Refused):
            split_step(TREFOIL)

    def test_concentric_witness_is_chain(self):
        step = split_step(fixtures.gen2a())
        witness = step.concentric_witness
        for a, b in zip(witness, witness[1:]):
            assert set(a) <= set(b)


class TestConcentric:
    def test_chain_found(self):
        from turaev.pdcore import CompositeCircle

        circles = (
            CompositeCircle((1, 2), (0, 1), ((0,), (1, 2, 3))),
            CompositeCircle((3, 4), (2, 3), ((0, 1), (2, 3))),
        )
        witness = certify_concentric(circles)
        assert len(witness) == 2

    def test_side_by_side_rejected(self):
        from turaev.pdcore import CompositeCircle

        circles = (
            CompositeCircle((1, 2), (0, 1), ((0,), (1, 2, 3))),
            CompositeCircle((3, 4), (2, 3), ((1,), (0, 2, 3))),
            CompositeCircle((5, 6), (4, 5), ((2,), (0, 1, 3))),
        )
        with pytest.raises(DiagramError):
            certify_concentric(circles)


class TestReduceLadder:
    def test_trefoil_empty(self):
        ladder = reduce_ladder(TREFOIL)
        assert ladder.cut_steps == 0
        assert len(ladder.terminals) == 1

    def test_connsum_terminal_immediately(self):
        ladder = reduce_ladder(fixtures.connsum())
        assert ladder.cut_steps == 0
        assert all(is_alternating(t) for t in ladder.terminals)

    def test_gen2a_two_cut_steps(self):
        ladder = reduce_ladder(fixtures.gen2a())
        assert ladder.cut_steps == 2
        assert all(is_alternating(t) for t in ladder.terminals)

    def test_ladder_length_equals_genus_on_random_primes(self):
        from turaev.corpus import random_prime_diagrams

        for d in random_prime_diagrams(99, 60, 10):
            assert reduce_ladder(d).cut_steps == turaev_genus(d)

    def test_json_roundtrip(self):
        import json

        ladder = reduce_ladder(fixtures.gen2a())
        doc = json.loads(json.dumps(ladder.to_json_dict()))
        assert doc["cutSteps"] == 2
        assert len(doc["terminals"]) == len(ladder.terminals)
        for step in doc["steps"]:
            parse_pd(step["diagram"])
            for out in step["results"]:
                parse_pd(out)


class TestSplitStepTraces:
    def test_no_diagram_traced_twice(self, traces):
        inputs = [fixtures.pseudotref(), fixtures.aa6(), fixtures.gen2a(), fixtures.gen2b()]
        for source in inputs:
            d = PlanarDiagram.from_rows(source.crossings)
            traces.clear()
            split_step(d)
            keys = [(id(x), st) for x, st in traces]
            assert len(keys) == len(set(keys))
            assert sorted(st for x, st in traces if x is d) == [all_a(d), all_b(d)]
