import hashlib
import random
from itertools import combinations

import pytest

from turaev import cli, fixtures
from turaev.corpus import random_prime_diagrams
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
    AttachingEdge,
    _block_path,
    _circle_path,
    _DartTable,
    certify_concentric,
    connect_sum,
    find_cutting_arcs,
    inverse_surgery,
    outermost_bigon_arc,
    reduce_ladder,
    split_step,
    surger_arc,
    surger_cutting_arc,
)

import oracles

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
PSEUDOTREF = parse_pd("X[5,1,4,2] X[3,6,4,1] X[5,2,6,3]")
CLASP2 = parse_pd("X[1,2,3,4] X[3,2,1,4]")
# Pinned from the label-by-label rotation-system core; see
# TestReduceLadder.test_reduce_json_pinned_on_seeded_primes.
SEEDED_PRIME_LADDERS_SHA256 = "8ff6dea6be97aa187ee2f3677f695b3b995a0341382206fc4a769f31481df11a"


def circle_counts(d):
    return state_circles(d, all_a(d)).n, state_circles(d, all_b(d)).n


def splice_where(d, want, *, one_face):
    """The first two darts of d, on distinct edges and on one face or on
    two, whose splice leaves a diagram (built without validation) for
    which ``want`` holds."""
    top = max(d.edge_labels)
    for u1, u2 in combinations(range(d.n_darts), 2):
        if d.label(u1) == d.label(u2) or one_face != (d.face_of_dart[u1] == d.face_of_dart[u2]):
            continue
        table = _DartTable(d)
        table.splice(table.everything, top, u1, u2)
        if want(PlanarDiagram(table.rows(table.everything))):
            return u1, u2
    raise AssertionError("no such splice")


def is_planar(d):
    return d.is_connected and len(d.faces) == d.n + 2


def corrupt_first_cut(monkeypatch, corrupt):
    """Run ``corrupt(table, top)`` on the dart table right after the first
    cutting-arc surgery, where ``top`` is the intermediate's largest
    label. The first rung spans the whole table, so the table numbers its
    darts as the input does."""
    real = _DartTable.surger_rung

    def corrupted(self, walk, top):
        out = real(self, walk, top)
        if walk.mask == self.everything:
            corrupt(self, top + 2)
        return out

    monkeypatch.setattr(_DartTable, "surger_rung", corrupted)


def first_arc_at(monkeypatch, u1, u2):
    """Make the first cut of a run surger along darts u1, u2 of the input."""
    real = _DartTable.outermost_arc

    def moved(self, walk):
        arc, d1, d2 = real(self, walk)
        return (arc, u1, u2) if walk.mask == self.everything else (arc, d1, d2)

    monkeypatch.setattr(_DartTable, "outermost_arc", moved)


# Both public entry points run the same cut rung on a dart table.
RUNS = pytest.mark.parametrize("run", [split_step, reduce_ladder], ids=["split_step", "reduce_ladder"])


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
        monkeypatch.setattr(surgery_mod, "is_prime", lambda _d: True)
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
                    turaev_genus(piece) for piece, _ in oracles.split_components(result)
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

    @pytest.mark.parametrize("face", [-1, 3, 99])
    def test_face_outside_diagram_rejected(self, face):
        # The kink has three faces; -1 must not pick the last one.
        kink = parse_pd("X[1,1,2,2]")
        with pytest.raises(DiagramError, match="not a face"):
            surger_arc(kink, face, 0, 1)

    def test_matches_row_splice_oracle(self, small_exhaustive_rows):
        """Every arc between two positions of every face, in both orders,
        of the exhaustive(4) classes and seeded random primes: the rows and
        the attaching record match the row splice. A face never meets one
        edge twice, since a 4-valent graph has no bridge."""
        diagrams = [PlanarDiagram.from_rows(rows) for rows in small_exhaustive_rows]
        diagrams += random_prime_diagrams(20261020, 40, 12)
        surgeries = disconnected = 0
        for d in diagrams:
            for face in d.faces:
                k = len(face.darts)
                for i in range(k):
                    for j in range(k):
                        if i == j:
                            continue
                        result, att = surger_arc(d, face.id, i, j)
                        rows, record = oracles.surger_arc_by_rows(d, face.id, i, j)
                        assert list(result.crossings) == rows, (d.crossings, face.id, i, j)
                        assert (att.new_edges, att.darts) == record
                        surgeries += 1
                        disconnected += not result.is_connected
        assert surgeries > 10000
        assert disconnected > 1000


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

    def test_second_diagram_labels_shift_by_largest_first_label(self):
        joined = connect_sum(TREFOIL, 0, TREFOIL, 0)
        # The second copy's labels 1..6 become 7..12; the splice adds 13, 14.
        assert joined.crossings == (
            (14, 4, 2, 5), (3, 6, 4, 13), (5, 2, 6, 3), (13, 10, 8, 11), (9, 12, 10, 14), (11, 8, 12, 9)
        )

    def test_second_diagram_with_label_zero(self):
        # Shifted by the trefoil's largest label 6 alone, the kink's label 0
        # would become a third occurrence of label 6.
        joined = connect_sum(TREFOIL, 0, parse_pd("X[0,0,1,1]"), 0)
        same = connect_sum(TREFOIL, 0, parse_pd("X[1,1,2,2]"), 0)
        assert joined.n == 4
        assert canonical_encoding(joined) == canonical_encoding(same)

    @pytest.mark.parametrize(
        "dart1, dart2, bad", [(-1, 0, "dart1 -1"), (12, 0, "dart1 12"), (0, -1, "dart2 -1"), (0, 12, "dart2 12")]
    )
    def test_dart_outside_diagram_rejected(self, dart1, dart2, bad):
        with pytest.raises(DiagramError, match=f"{bad} is not a dart of its diagram"):
            connect_sum(TREFOIL, dart1, TREFOIL, dart2)

    def test_dart_of_the_other_diagram_rejected(self):
        kink = parse_pd("X[1,1,2,2]")
        with pytest.raises(DiagramError, match="dart1 4 is not a dart of its diagram"):
            connect_sum(kink, 4, TREFOIL, 0)
        with pytest.raises(DiagramError, match="dart2 11 is not a dart of its diagram"):
            connect_sum(TREFOIL, 0, kink, 11)


class TestInverseSurgery:
    @pytest.mark.parametrize("darts", [((9, 0), (0, 1)), ((0, 1), (-1, 0)), ((0, 4), (0, 1))])
    def test_record_outside_diagram_rejected(self, darts):
        d = fixtures.pseudotref()
        result, att = surger_cutting_arc(d, outermost_bigon_arc(d))
        with pytest.raises(DiagramError, match="attaching-edge record does not match this diagram"):
            inverse_surgery(result, AttachingEdge(att.new_edges, darts))


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

    def test_long_nested_chain_certified(self):
        # 20 nested circles around crossings 0..20; circle i separates
        # 0..i from i+1..20, with the side holding crossing 20 listed first
        # on every even circle. Only crossings 0 and 20 see a chain, and
        # crossing 20's choice vector (0, 1, 0, 1, ...) is the smaller.
        from turaev.pdcore import CompositeCircle

        n = 20
        circles = []
        for i in range(n):
            inner, outer = tuple(range(i + 1)), tuple(range(i + 1, n + 1))
            sides = (outer, inner) if i % 2 == 0 else (inner, outer)
            circles.append(CompositeCircle((2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 1), sides))
        witness = certify_concentric(tuple(circles))
        assert witness == tuple(tuple(range(n - i, n + 1)) for i in range(n))
        assert certify_concentric(tuple(circles[:10])) == oracles.certify_concentric_by_search(tuple(circles[:10]))

    def test_many_side_by_side_rejected(self):
        from turaev.pdcore import CompositeCircle

        n = 20
        circles = tuple(
            CompositeCircle((2 * i + 1, 2 * i + 2), (2 * i, 2 * i + 1), ((i,), tuple(c for c in range(n) if c != i)))
            for i in range(n)
        )
        with pytest.raises(DiagramError, match="composite circles are not concentric"):
            certify_concentric(circles)


def path_chains(blocks):
    """The nested sides of a block path, read from either end: the
    crossings of its first 1, 2, ... blocks, ascending."""
    chains = []
    for order in (blocks, blocks[::-1]):
        side, chain = [], []
        for block in order[:-1]:
            side += block
            chain.append(tuple(sorted(side)))
        chains.append(tuple(chain))
    return chains


class TestCirclePath:
    def test_side_by_side_sets_rejected(self):
        # The block graphs of TestConcentric's side-by-side circles: each
        # of k blocks joined to one more block by both edges of a circle.
        for k in (3, 20):
            ends = [((i, k), (k, i)) for i in range(k)]
            with pytest.raises(DiagramError, match="composite circles are not concentric"):
                _block_path(k + 1, ends)

    def test_nested_chain_is_a_path(self):
        # TestConcentric's 20 nested circles: circle i joins blocks i, i + 1.
        ends = [((i + 1, i), (i, i + 1)) for i in range(20)]
        assert _block_path(21, ends) == (list(range(21)), list(range(20)))
        assert _block_path(21, ends[::-1]) == (list(range(21)), list(range(19, -1, -1)))

    @pytest.mark.parametrize(
        "n_blocks, ends",
        [
            (3, [((0, 1), (1, 2)), ((1, 2), (0, 1))]),  # each circle's edges join two block pairs
            (3, [((0, 1), (1, 0)), ((2, 2), (1, 2))]),  # an edge inside one block
            (4, [((0, 1), (0, 1)), ((1, 2), (2, 1)), ((2, 0), (0, 2))]),  # a cycle, block 3 unreached
            (5, [((0, 1), (1, 0)), ((1, 2), (2, 1)), ((2, 3), (3, 2)), ((3, 1), (1, 3))]),  # block 1 on three circles
            (3, [((0, 1), (1, 0))]),  # more blocks than circles allow
        ],
    )
    def test_other_block_graphs_rejected(self, n_blocks, ends):
        with pytest.raises(DiagramError, match="composite circles are not concentric"):
            _block_path(n_blocks, ends)

    def test_side_by_side_summands_rejected(self):
        d = TREFOIL
        for dart in (0, 5, 10):
            d = connect_sum(d, dart, parse_pd("X[1,1,2,2]"), 0)
        assert len(composite_circles(d)) == 4
        with pytest.raises(DiagramError, match="composite circles are not concentric"):
            certify_concentric(composite_circles(d))
        with pytest.raises(DiagramError, match="composite circles are not concentric"):
            _circle_path(d)

    def test_matches_certify_concentric(self, oracle_corpus):
        """On every composite diagram of the oracle corpus, and on the
        intermediate of every cutting arc of its prime non-alternating
        diagrams, the block path exists exactly when ``certify_concentric``
        finds a chain; then its circles are the composite circles, each
        with the blocks before it as one side, and the chain is read from
        one of its ends."""
        accepted = rejected = intermediates = 0
        for d in oracle_corpus:
            if not d.is_connected:
                continue
            candidates = [d]
            if not is_alternating(d) and is_prime(d):
                candidates += [surger_cutting_arc(d, arc)[0] for arc in find_cutting_arcs(d)]
            for x in candidates:
                circles = composite_circles(x) if x.is_connected else ()
                if not circles:
                    continue
                try:
                    witness = certify_concentric(circles)
                except DiagramError:
                    with pytest.raises(DiagramError, match="composite circles are not concentric"):
                        _circle_path(x)
                    rejected += 1
                    continue
                blocks, path = _circle_path(x)
                by_edges = {c.edges: c for c in circles}
                assert sorted(edges for edges, _ in path) == sorted(by_edges)
                side = []
                for block, (edges, faces) in zip(blocks, path):
                    side += block
                    assert faces == by_edges[edges].faces
                    assert tuple(sorted(side)) in by_edges[edges].sides
                assert witness in path_chains(blocks)
                accepted += 1
                intermediates += x is not d
        assert accepted > 2000
        assert intermediates > 500
        assert rejected > 2000


class TestSplitStepChecks:
    """Each check of the split step raises DiagramError on a step
    corrupted just before it."""

    def test_genera_of_valid_tables(self):
        assert _DartTable(TREFOIL).genera([[0, 1, 2]]) == [0]
        assert _DartTable(PSEUDOTREF).genera([[0, 1, 2]]) == [1]
        rows = list(TREFOIL.crossings) + [tuple(x + 6 for x in row) for row in PSEUDOTREF.crossings]
        union = PlanarDiagram.from_rows(rows, allow_disconnected=True)
        assert _DartTable(union).genera([[0, 1, 2], [3, 4, 5]]) == [0, 1]

    def test_euler_test(self):
        # One crossing whose slots 0, 2 and 1, 3 are joined: a torus.
        table = _DartTable(PlanarDiagram(((1, 2, 1, 2),)))
        with pytest.raises(DiagramError, match="rotation system is not planar"):
            table.genera([[0]])

    def test_edge_labels_agree_with_the_pairing(self):
        table = _DartTable(TREFOIL)
        table.labels[0] = 99
        with pytest.raises(DiagramError, match="carry different labels"):
            table.genera([[0, 1, 2]])

    def test_cut_on_black_face(self):
        # Flip the sign of the merged dart's crossing: each circle's edges
        # elsewhere then offer their darts on the merged face as black.
        d = parse_pd(PSEUDOTREF.to_pd_text())
        merged_crossing = surger_cutting_arc(d, outermost_bigon_arc(d))[1].darts[0][0]
        d.__dict__["signs"] = {c: -s if c == merged_crossing else s for c, s in d.signs.items()}
        with pytest.raises(DiagramError, match="composite circle edges not found on its black face"):
            split_step(d)

    def test_cut_disconnects(self, monkeypatch):
        real = _DartTable.cut
        monkeypatch.setattr(_DartTable, "cut", lambda self, piece, side, *rest: real(self, piece, 0, *rest))
        with pytest.raises(DiagramError, match="surgery along a composite circle must disconnect"):
            split_step(PSEUDOTREF)

    def test_piece_is_one_block(self, monkeypatch):
        real = _DartTable.cut

        def leaky(self, *args):
            att, ((p0, t0), (p1, t1)) = real(self, *args)
            moved = 15 << (p1 & -p1).bit_length() - 1  # p1's smallest crossing
            return att, [(p0 | moved, t0), (p1 & ~moved, t1)]

        monkeypatch.setattr(_DartTable, "cut", leaky)
        with pytest.raises(DiagramError, match="a split piece is not one block of the intermediate"):
            split_step(CLASP2)  # one cut, into two one-crossing blocks

    def test_genus_sum(self, monkeypatch):
        real = _DartTable.genera
        monkeypatch.setattr(_DartTable, "genera", lambda self, pieces: [g + 1 for g in real(self, pieces)])
        with pytest.raises(DiagramError, match="component genera sum to"):
            split_step(PSEUDOTREF)

    def test_genus_sum_in_the_ladder(self, monkeypatch):
        real = _DartTable.genera
        monkeypatch.setattr(_DartTable, "genera", lambda self, pieces: [g + 1 for g in real(self, pieces)])
        with pytest.raises(DiagramError, match="component genera sum to"):
            reduce_ladder(fixtures.gen2a())

    # The intermediate is never built; each check its ``validate`` made is
    # a check on the table. The check that its genus is one lower follows
    # from the two circle-count checks (same crossings, one more all-A and
    # all-B circle), so no corrupted table reaches it.

    @RUNS
    def test_intermediate_connected(self, monkeypatch, run):
        d = fixtures.gen2a()
        inter = surger_cutting_arc(d, outermost_bigon_arc(d))[0]
        u1, u2 = splice_where(inter, lambda r: not r.is_connected, one_face=True)
        corrupt_first_cut(monkeypatch, lambda table, top: table.splice(table.everything, top, u1, u2))
        with pytest.raises(DiagramError, match="cutting-arc surgery of a prime diagram must stay connected"):
            run(d)

    @RUNS
    def test_intermediate_euler(self, monkeypatch, run):
        d = fixtures.gen2a()
        inter = surger_cutting_arc(d, outermost_bigon_arc(d))[0]
        u1, u2 = splice_where(inter, lambda r: r.is_connected and not is_planar(r), one_face=False)
        corrupt_first_cut(monkeypatch, lambda table, top: table.splice(table.everything, top, u1, u2))
        with pytest.raises(DiagramError, match="rotation system is not planar: V-E\\+F = 0 on the intermediate"):
            run(d)

    @RUNS
    def test_intermediate_edge_labels(self, monkeypatch, run):
        def relabel(table, top):
            table.labels[0] = top + 1  # one dart of an edge, not its partner

        corrupt_first_cut(monkeypatch, relabel)
        with pytest.raises(DiagramError, match="of one edge carry different labels"):
            run(fixtures.gen2a())

    @RUNS
    def test_intermediate_all_a_count(self, monkeypatch, run):
        d = fixtures.gen2b()
        na, nb = d.circle_counts
        want = lambda r: is_planar(r) and r.circle_counts[0] != na + 1  # noqa: E731
        first_arc_at(monkeypatch, *splice_where(d, want, one_face=True))
        with pytest.raises(DiagramError, match="cutting-arc surgery must split the all-A circle"):
            run(d)

    @RUNS
    def test_intermediate_all_b_count(self, monkeypatch, run):
        d = fixtures.gen2b()
        na, nb = d.circle_counts
        want = lambda r: is_planar(r) and r.circle_counts == (na + 1, nb - 1)  # noqa: E731
        first_arc_at(monkeypatch, *splice_where(d, want, one_face=True))
        with pytest.raises(DiagramError, match="cutting-arc surgery must split the all-B circle"):
            run(d)

    def test_factor_is_connected(self, monkeypatch):
        # Deleting a circle's edges must leave two sides: a third block
        # means a disconnected factor.
        real = _DartTable.blocks
        monkeypatch.setattr(_DartTable, "blocks", lambda self, walk, cut=None: real(self, walk, cut) + [[]])
        d = connect_sum(PSEUDOTREF, 0, PSEUDOTREF, 0)
        with pytest.raises(DiagramError, match="a factor of a composite diagram is disconnected"):
            reduce_ladder(d)

    def test_piece_labels(self, monkeypatch):
        real = _DartTable.rows

        def relabelled(self, piece):
            rows = real(self, piece)
            if piece == self.everything:  # the intermediate
                return rows
            return ((999,) + rows[0][1:],) + rows[1:]

        monkeypatch.setattr(_DartTable, "rows", relabelled)
        with pytest.raises(DiagramError, match="edge labels must occur exactly twice"):
            split_step(PSEUDOTREF)


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

    def test_reduce_json_pinned_on_seeded_primes(self, bench_inputs):
        """The ``turaev reduce`` worker JSON of 60 seeded primes of 9-60
        crossings, a third each capped at genus 1, at genus 2 and uncapped
        (184 cut steps in all), against a pinned digest."""
        rng = random.Random(20261020)
        caps = (1, 2, None)
        digest = hashlib.sha256()
        steps = 0
        for k in range(60):
            rows = bench_inputs.prime_rows(rng, rng.randint(9, 60), caps[k % 3])
            out = cli._reduce_worker(bench_inputs.pd_text(rows))
            steps += out["cutSteps"]
            digest.update(cli._dump(out).encode() + b"\n")
        assert steps == 184
        assert digest.hexdigest() == SEEDED_PRIME_LADDERS_SHA256


class TestReduceAtScale:
    """``turaev reduce`` worker JSON on two large seeded primes, pinned
    from the ladder that built and validated every intermediate: a
    240-crossing prime of genus 39 and a 120-crossing prime of genus 13
    (about 0.8 s to generate both and reduce them)."""

    @pytest.mark.parametrize(
        "seed, n, genus, digest",
        [
            (3, 240, 39, "6a7441a883e2531a26f5e1ab4b531c68cce4c3a14535b0dca8e070ba0cf8d35b"),
            (7, 120, 13, "500ffcec2776c97fecd1df5b8021a42d8fc7708f19acb2157819a9c9b1047aa7"),
        ],
    )
    def test_ladder_pinned(self, bench_inputs, seed, n, genus, digest):
        text = bench_inputs.pd_text(bench_inputs.prime_rows(random.Random(seed), n, None))
        assert parse_pd(text).genus == genus
        out = cli._reduce_worker(text)
        assert out["cutSteps"] == genus
        assert out["allTerminalsAlternating"] is True
        assert all(is_alternating(parse_pd(t)) for t in out["terminals"])
        assert hashlib.sha256(cli._dump(out).encode()).hexdigest() == digest


class TestReduceBuilds:
    def test_one_validated_build_per_input(self, monkeypatch, bench_inputs):
        """Over seeded primes and one composite input, ``turaev reduce``
        validates the parsed input and nothing else: every rung runs on
        the input's dart table."""
        rng = random.Random(22)
        texts = [bench_inputs.pd_text(bench_inputs.prime_rows(rng, rng.randint(9, 60), None)) for _ in range(12)]
        texts.append(connect_sum(fixtures.gen2a(), 0, PSEUDOTREF, 0).to_pd_text())
        builds = []
        real = PlanarDiagram.validate
        monkeypatch.setattr(PlanarDiagram, "validate", lambda self, **kw: builds.append(self) or real(self, **kw))
        steps = []
        for text in texts:
            builds.clear()
            out = cli._reduce_worker(text)
            steps.append(out["cutSteps"])
            assert [b.to_pd_text() for b in builds] == [text]
        assert sum(steps) > 20
        assert out["steps"][0]["kind"] == "factor"


class TestSplitStepTraces:
    def test_no_diagram_traced_twice(self, traces):
        inputs = [fixtures.pseudotref(), fixtures.aa6(), fixtures.gen2a(), fixtures.gen2b()]
        for source in inputs:
            d = PlanarDiagram.from_rows(source.crossings)
            traces.clear()
            split_step(d)
            assert traces == []


GOLDEN_FIXTURES = ("kink", "trefoil", "pseudotref", "clasp2", "connsum", "cycle4", "aa6", "gen2a", "gen2b")

# A 20-crossing prime diagram of the prime-mid benchmark whose first
# intermediate diagram has 19 concentric composite circles.
NESTED_19 = (
    "X[1,2,3,4] X[5,3,2,6] X[7,8,9,10] X[11,12,13,14] X[15,16,17,18] X[19,10,9,20] "
    "X[20,21,22,19] X[23,24,5,6] X[25,26,27,28] X[13,28,27,14] X[29,30,31,32] X[30,29,33,34] "
    "X[4,35,36,1] X[36,35,15,18] X[24,23,8,7] X[37,38,32,31] X[21,34,33,22] X[12,11,38,37] "
    "X[17,16,39,40] X[26,25,40,39]"
)


@pytest.fixture(scope="module")
def oracle_corpus(exhaustive_rows, random_rows):
    """exhaustive(5), the seeded random corpus, random_prime_diagrams(99,
    60, 10) and the golden fixtures."""
    out = [PlanarDiagram(rows) for rows in exhaustive_rows if len(rows) <= 5]
    out += [PlanarDiagram(rows) for rows in random_rows]
    out += random_prime_diagrams(99, 60, 10)
    out += [getattr(fixtures, name)() for name in GOLDEN_FIXTURES]
    return out


def assert_split_matches_peel(d):
    step = split_step(d)
    components, attachings = oracles.split_by_sequential_peel(step.intermediate, step.attaching)
    assert [c.crossings for c in step.components] == [c.crossings for c in components]
    assert step.component_attachings == attachings
    # The surgery keeps every corner's color, so the input's signs serve.
    assert step.intermediate.signs == step.input.signs
    return step


class TestAgainstOracles:
    def test_composite_circles_match_cut_pairs(self, oracle_corpus):
        composite = 0
        for d in oracle_corpus:
            circles = composite_circles(d)
            assert circles == oracles.composite_circles_by_cut_pairs(d)
            assert is_prime(d) == (not circles)
            composite += bool(circles)
        assert composite > 1000

    def test_certify_concentric_matches_search(self, oracle_corpus):
        compared = 0
        for d in oracle_corpus:
            circles = composite_circles(d)
            if not 1 < len(circles) <= 10:
                continue
            try:
                expected = oracles.certify_concentric_by_search(circles)
            except DiagramError:
                with pytest.raises(DiagramError, match="not concentric"):
                    certify_concentric(circles)
                continue
            assert certify_concentric(circles) == expected
            compared += 1
        assert compared > 100

    def test_split_step_matches_sequential_peel(self, oracle_corpus):
        steps = 0
        for d in oracle_corpus:
            if not d.is_connected or is_alternating(d) or not is_prime(d):
                continue
            step = assert_split_matches_peel(d)
            circles = step.intermediate_circles
            assert circles == oracles.composite_circles_by_cut_pairs(step.intermediate)
            if len(circles) <= 12:
                assert step.concentric_witness == oracles.certify_concentric_by_search(circles)
            steps += 1
        assert steps > 100

    def test_every_ladder_step_matches_sequential_peel(self):
        for d in random_prime_diagrams(99, 60, 10) + [parse_pd(NESTED_19)]:
            for s in reduce_ladder(d).steps:
                if s.kind == "cut":
                    assert_split_matches_peel(s.diagram)


class TestManyCompositeCircles:
    def test_seeded_primes_with_many_circles_match_peel(self, bench_inputs):
        rng = random.Random(15)
        counts = []
        for _ in range(40):
            d = PlanarDiagram.from_rows(bench_inputs.prime_rows(rng, rng.randint(20, 80), None))
            if len(split_step(d).intermediate.face_pair_edges) >= 15:
                counts.append(len(assert_split_matches_peel(d).intermediate_circles))
        assert len(counts) >= 5
        assert max(counts) >= 50

    def test_nineteen_circles_split_in_one_step(self):
        d = parse_pd(NESTED_19)
        step = assert_split_matches_peel(d)
        assert len(step.intermediate_circles) == 19
        assert step.genus_sum == turaev_genus(d) - 1
        assert all(is_prime(c) for c in step.components)
