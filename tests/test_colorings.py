import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_fox_count, minor_determinant, reference_witness
from tanglecert.colorings import (
    ColoringError,
    FoxColoring,
    Quandle,
    QuandleAxiomError,
    QuandleColoring,
    determinant,
    dihedral,
    fox_matrix,
    fox_solution_space,
    has_nontrivial_fox,
    link_determinant,
    parse_quandle,
    quandle_space,
    validate_quandle,
    verify_coloring,
)
from tanglecert import colorings
from tanglecert.braids import braid_closure
from tanglecert.diagram import Crossing, Diagram, parse_diagram, serialize
from tanglecert.tangle import numerator_closure

TRICOLORING = {1: 0, 6: 0, 2: 1, 3: 1, 4: 2, 5: 2}


class TestVerifyFox:
    def test_trefoil_tricoloring(self, trefoil):
        assert verify_coloring(trefoil, FoxColoring(3, TRICOLORING))

    def test_constant_coloring_always_valid(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            c = FoxColoring(5, {a: 2 for a in d.arcs()})
            assert verify_coloring(d, c)
            assert not c.nontrivial

    def test_bad_assignment_rejected(self, trefoil):
        colors = dict(TRICOLORING)
        colors[4] = colors[5] = 1  # strand {4,5} recolored 1: relation breaks
        assert not verify_coloring(trefoil, FoxColoring(3, colors))

    def test_missing_arc_raises(self, trefoil):
        with pytest.raises(ColoringError):
            verify_coloring(trefoil, FoxColoring(3, {1: 0}))


def closure_3x50():
    rng = random.Random(50)
    word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(50)]
    return parse_diagram(serialize(braid_closure(word, 3)))


@pytest.fixture
def counted_strand_classes(monkeypatch):
    calls, strand_classes = [], colorings.strand_classes

    def counting(d):
        calls.append(d)
        return strand_classes(d)

    monkeypatch.setattr(colorings, "strand_classes", counting)
    return calls


class TestKeptFoxSystem:
    def test_one_strand_walk_serves_every_solver(self, counted_strand_classes):
        d = closure_3x50()
        listed = list(quandle_space(d, dihedral(3)).colorings())
        det = link_determinant(d)
        counts = {n: fox_solution_space(d, n).count for n in (3, 5, 15, 97)}
        assert len(counted_strand_classes) == 1
        assert counts[3] == len(listed) and (counts[3] > 3) == (det % 3 == 0)

    def test_an_unvalidated_diagram_keeps_nothing(self, counted_strand_classes):
        d = Diagram((Crossing((1, 4, 2, 5)), Crossing((3, 6, 4, 1)), Crossing((5, 2, 6, 3))))
        assert fox_solution_space(d, 3).count == 9
        assert fox_solution_space(d, 3).count == 9
        assert len(counted_strand_classes) == 2
        assert "_valid" not in d.__dict__ and "_fox" not in d.__dict__

    def test_the_kept_system_is_immutable(self):
        d = closure_3x50()
        fox_solution_space(d, 3)
        strands, col, triples, rows = d.__dict__["_fox"]
        assert isinstance(strands, tuple) and isinstance(triples, tuple) and isinstance(rows, tuple)
        with pytest.raises(TypeError):
            col[1] = 0
        with pytest.raises(TypeError):
            rows[0][0] = 1

    def test_a_solved_diagram_still_pickles_and_copies(self):
        import copy
        import pickle

        d = closure_3x50()
        count = fox_solution_space(d, 3).count
        for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
            assert twin == d and "_fox" not in twin.__dict__
            assert fox_solution_space(twin, 3).count == count

    def test_mutating_the_returned_matrix_changes_no_later_count(self):
        d = closure_3x50()
        before = {n: fox_solution_space(d, n).count for n in (3, 5, 97)}
        matrix = fox_matrix(d)
        rows, strands = fox_matrix(d)
        for row in rows:
            row.clear()
        strands.reverse()
        fox_solution_space(d, 3).strands.clear()
        assert {n: fox_solution_space(d, n).count for n in (3, 5, 97)} == before
        assert fox_matrix(d) == matrix


class TestSolutionSpace:
    @pytest.mark.parametrize("n,expected", [(3, 9), (5, 5), (7, 7)])
    def test_trefoil_counts(self, trefoil, n, expected):
        assert fox_solution_space(trefoil, n).count == expected
        assert brute_fox_count(trefoil, n) == expected

    def test_unknot_counts_trivial(self):
        u = parse_diagram("O 1")
        space = fox_solution_space(u, 7)
        assert space.count == 7
        assert all(not c.nontrivial for c in space.colorings())

    def test_counts_are_multiples_of_modulus(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            if len(d.crossings) > 8:
                continue
            for n in (2, 3, 5, 6):
                assert fox_solution_space(d, n).count % n == 0, (name, n)

    def test_pins(self, trefoil):
        assert fox_solution_space(trefoil, 3, pins={1: 0}).count == 3
        assert fox_solution_space(trefoil, 3, pins={1: 0, 2: 1, 4: 1}).count == 0
        # pins on two labels of one strand: consistent or empty
        assert fox_solution_space(trefoil, 3, pins={1: 0, 6: 0}).count == 3
        assert fox_solution_space(trefoil, 3, pins={1: 0, 6: 1}).count == 0

    def test_unknown_pin_rejected(self, trefoil):
        with pytest.raises(ColoringError):
            fox_solution_space(trefoil, 3, pins={99: 0})

    def test_enumeration_matches_count_and_validates(self, trefoil):
        space = fox_solution_space(trefoil, 3)
        sols = list(space.colorings())
        assert len(sols) == space.count
        assert all(verify_coloring(trefoil, c) for c in sols)

    def test_forced_equal_pair_beyond_4096_solutions(self):
        # the trefoil has only constant colorings mod 97; each circle is free
        d = parse_diagram("X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3 ; O 7 ; O 8 ; O 9")
        space = fox_solution_space(d, 97)
        assert space.count == 97 ** 4
        pair = space.forced_equal_pair()
        assert pair is not None and set(pair) <= {1, 2, 3, 4, 5, 6}
        free = fox_solution_space(parse_diagram("O 1 ; O 2"), 97)
        assert free.forced_equal_pair() is None

    def test_first_nonconstant_without_enumeration(self):
        space = fox_solution_space(parse_diagram("O 1 ; O 2 ; O 3 ; O 4"), 97)
        assert space.count == 97 ** 4
        c = space.first_nonconstant()
        assert c is not None and c.nontrivial and verify_coloring(space.diagram, c)
        assert fox_solution_space(parse_diagram("O 1"), 97).first_nonconstant() is None

    def test_a_short_listing_builds_only_the_generators_it_steps(self, monkeypatch):
        # the first 5 of 3^1200 colorings step the last two generators only;
        # basis() then builds the other 1,198 and reuses the three kept vectors
        from tanglecert.linalg import _Echelon

        calls, back_substitute = [], _Echelon.back_substitute

        def counting(*args, **kwargs):
            calls.append(args)
            return back_substitute(*args, **kwargs)

        monkeypatch.setattr(_Echelon, "back_substitute", counting)
        d = parse_diagram(" ; ".join(f"O {k}" for k in range(1, 1201)))
        assert len(list(islice(quandle_space(d, dihedral(3)).colorings(), 5))) == 5 and len(calls) <= 3
        calls.clear()
        space = fox_solution_space(d, 3)
        assert len(list(islice(space.colorings(), 5))) == 5 and len(calls) <= 3
        assert len(space._space.basis()[1]) == 1200 and len(calls) == 1 + 1200

    @given(st.integers(2, 9), st.integers(0, 50), st.integers(1, 50))
    @settings(max_examples=40, deadline=None)
    def test_affine_symmetry(self, trefoil, n, v, u):
        from math import gcd

        if gcd(u, n) != 1:
            return
        c = fox_solution_space(trefoil, n).first_nonconstant()
        if c is None:
            return
        mapped = FoxColoring(n, {a: (u * x + v) % n for a, x in c.colors.items()})
        assert verify_coloring(trefoil, mapped)
        assert mapped.nontrivial


class TestNontriviality:
    def test_tabulated_moduli(self, corpus_diagrams):
        assert has_nontrivial_fox(corpus_diagrams["8_16"], 5)
        assert has_nontrivial_fox(corpus_diagrams["6_2"], 11)

    def test_trefoil_mod5_trivial(self, trefoil):
        assert not has_nontrivial_fox(trefoil, 5)


class TestDeterminant:
    @pytest.mark.parametrize(
        "name,expected",
        [("trefoil", 3), ("fig8-knot", 5), ("6_2", 11), ("8_16", 35), ("unknot", 1)],
    )
    def test_corpus_knots(self, corpus_diagrams, name, expected):
        d = corpus_diagrams[name]
        assert determinant(d) == expected
        assert minor_determinant(d) == expected

    def test_divisibility_iff_nontrivial(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            if d.boundary or len(d.crossings) > 8:
                continue
            from tanglecert.diagram import components

            if len(components(d)) != 1:
                continue
            det = determinant(d)
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                assert has_nontrivial_fox(d, p) == (det % p == 0), (name, p)

    def test_multicomponent_rejected(self, corpus_diagrams):
        with pytest.raises(ColoringError):
            determinant(corpus_diagrams["hopf"])

    def test_link_determinant(self, corpus_diagrams):
        assert link_determinant(corpus_diagrams["hopf"]) == 2
        assert link_determinant(parse_diagram("O 1 ; O 2")) == 0
        assert link_determinant(parse_diagram("O 1")) == 1


class TestQuandles:
    def test_dihedral_table(self):
        q3 = dihedral(3)
        assert q3.op(0, 1) == 2
        assert dihedral(2).op(0, 1) == 0
        validate_quandle(q3)
        assert q3.involutory

    def test_dihedral_needs_two(self):
        with pytest.raises(ColoringError):
            dihedral(1)

    def test_axiom_violation_reports_witness(self):
        with pytest.raises(QuandleAxiomError) as err:
            Quandle(((0, 0), (1, 0)))  # 1*1 = 0 breaks idempotence
        assert err.value.witness == (1,)

    def test_parse_quandle_roundtrip(self):
        text = "Q 3\n0 2 1\n2 1 0\n1 0 2\n"
        q = parse_quandle(text)
        assert q.size == 3 and q.op(0, 1) == 2

    def test_parse_quandle_rejects_garbage(self):
        with pytest.raises(ColoringError):
            parse_quandle("Q 2\n0 1\n")
        with pytest.raises(QuandleAxiomError):
            parse_quandle("Q 2\n1 0\n0 1\n")

    def test_parse_quandle_rejects_a_non_decimal_size(self):
        with pytest.raises(ColoringError, match="must start with 'Q n'"):
            parse_quandle("Q ²\n0 1\n1 0\n")

    def test_trefoil_dihedral3_has_nine(self, trefoil):
        space = quandle_space(trefoil, dihedral(3))
        res = list(space.colorings())
        assert len(res) == space.count == 9
        assert all(verify_coloring(trefoil, c) for c in res)

    def test_one_element_quandle(self, trefoil):
        q1 = Quandle(((0,),))
        space = quandle_space(trefoil, q1)
        res = list(space.colorings())
        assert len(res) == space.count == 1 and not res[0].nontrivial
        assert space.first_nonconstant() is None

    def test_dihedral_counts_equal_fox(self, corpus_diagrams):
        # composite n: the count by elimination over Z/n and the listing by the search
        for name, d in corpus_diagrams.items():
            for n in range(2, 10):
                space = quandle_space(d, dihedral(n))
                assert space.count == len(list(space.colorings())) == fox_solution_space(d, n).count, (name, n)

    def test_truncation_flag(self, trefoil):
        # a short listing is a prefix; the count is still the total
        space = quandle_space(trefoil, dihedral(3))
        assert len(list(islice(space.colorings(), 4))) == 4 and space.count == 9

    def test_column_sum_closure_admits_dihedral5_coloring(self, corpus_diagrams):
        closure = numerator_closure(corpus_diagrams["fig2-p5"])
        c = quandle_space(closure, dihedral(5)).first_nonconstant()
        assert c is not None and c.nontrivial and verify_coloring(closure, c)

    def test_pins_restrict_quandle_search(self, trefoil):
        space = quandle_space(trefoil, dihedral(3), pins={1: 0})
        assert len(list(space.colorings())) == space.count == 3


class TestWitness:
    """witness() in one pass against the pairwise scan it replaced."""

    def test_matches_the_pairwise_scan_on_the_corpus(self, corpus_diagrams):
        rng, nonconstant = random.Random(5), 0
        for name, d in corpus_diagrams.items():
            found = []
            for n in (3, 5, 15):
                for c in islice(fox_solution_space(d, n).colorings(), 30):
                    found.append(c)
                    found.append(FoxColoring(n, {a: v + n * rng.randint(-2, 2) for a, v in c.colors.items()}))
            for n in (3, 5):
                found += islice(quandle_space(d, dihedral(n)).colorings(), 30)
            for c in found:
                assert c.witness() == reference_witness(c), name
                nonconstant += c.nontrivial
        assert nonconstant >= 100

    def test_constant_colorings_have_none(self, corpus_diagrams):
        for d in corpus_diagrams.values():
            labels = sorted(d.arcs())
            for c in (FoxColoring(7, {a: 3 for a in labels}), QuandleColoring(dihedral(5), {a: 4 for a in labels})):
                assert c.witness() is reference_witness(c) is None
            shifted = FoxColoring(7, {a: 3 + 7 * (a % 3) for a in labels})  # constant mod 7
            assert shifted.witness() is reference_witness(shifted) is None
        assert FoxColoring(3, {}).witness() is QuandleColoring(dihedral(3), {}).witness() is None

    def test_the_differing_arc_may_come_last(self):
        colors = {a: 1 for a in range(1, 4001)}
        colors[4000] = 2
        assert QuandleColoring(dihedral(3), colors).witness() == (1, 4000)
        assert FoxColoring(3, {**colors, 4000: 4}).witness() is None
