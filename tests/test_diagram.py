import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import canonical_form
from tanglecert.braids import braid_closure
from tanglecert.diagram import (
    ArcOccurrenceError,
    Diagram,
    DiagramError,
    PDSyntaxError,
    PlanarityError,
    co_facial,
    components,
    faces,
    max_label,
    orient,
    parse_diagram,
    relabel,
    serialize,
    strand_classes,
)

TREFOIL = "X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3"


class TestParsing:
    def test_trefoil_parses(self, trefoil):
        assert len(trefoil.crossings) == 3
        assert not trefoil.boundary and not trefoil.circles

    def test_trivial_one_tangle(self):
        t = parse_diagram("B 1 1")
        assert t.boundary == (1, 1)
        assert len(faces(t)) == 2

    def test_short_crossing_is_syntax_error(self):
        with pytest.raises(PDSyntaxError) as err:
            parse_diagram("X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6")
        assert err.value.line == 1
        assert "4 slots" in str(err.value)

    def test_bad_token(self):
        with pytest.raises(PDSyntaxError):
            parse_diagram("X 1 4 2 x")
        with pytest.raises(PDSyntaxError):
            parse_diagram("Y 1 2 3 4")

    def test_non_decimal_digits_are_a_syntax_error(self):
        # '²' passes str.isdigit but not int(); the error names the record's place
        with pytest.raises(PDSyntaxError, match="line 2, column 3: expected a positive integer, got '²'"):
            parse_diagram("X 1 4 2 5\n; X ² 6 4 1 ; X 5 2 6 3")

    def test_full_width_digits_still_parse(self, trefoil):
        assert parse_diagram("X １ 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3") == trefoil

    def test_occurrence_violation(self):
        with pytest.raises(ArcOccurrenceError):
            parse_diagram("X 1 2 3 4")  # every label once only
        with pytest.raises(ArcOccurrenceError):
            parse_diagram("X 1 1 2 2 ; O 1")

    def test_planarity_violation_is_distinct(self):
        # a one-crossing code whose rotation system lives on the torus
        with pytest.raises(PlanarityError):
            parse_diagram("X 1 2 1 2")

    def test_duplicate_boundary_rejected(self):
        with pytest.raises(PDSyntaxError):
            parse_diagram("B 1 1\nB 2 2")

    def test_comments_and_separators(self):
        d = parse_diagram("# a knot\nX 1 4 2 5 ; X 3 6 4 1\nX 5 2 6 3  # inline")
        assert len(d.crossings) == 3

    def test_serialize_parse_roundtrip_on_corpus(self, corpus_dir):
        for f in sorted(corpus_dir.glob("*.pd")):
            d = parse_diagram(f.read_text())
            assert serialize(parse_diagram(serialize(d))) == serialize(d)


class TestFaces:
    def test_trefoil_faces(self, trefoil):
        fs = faces(trefoil)
        assert len(fs) == 5
        assert sorted(sorted(f.arcs) for f in fs) == [
            [1, 3, 5],
            [1, 4],
            [2, 4, 6],
            [2, 5],
            [3, 6],
        ]

    def test_circle_has_two_faces(self):
        assert len(faces(parse_diagram("O 1"))) == 2

    def test_figure8_face_count(self, corpus_diagrams):
        assert len(faces(corpus_diagrams["fig8-knot"])) == 6

    def test_euler_on_connected_corpus(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            if d.boundary or d.circles or len(components(d)) != 1:
                continue
            assert len(faces(d)) == len(d.crossings) + 2, name

    def test_corners_partition(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            fs = faces(d)
            corners = [c for f in fs for c in f.corners]
            assert len(corners) == 4 * len(d.crossings), name
            assert len(set(corners)) == len(corners), name

    def test_every_arc_touches_two_face_sides(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            fs = faces(d)
            for arc in d.arcs():
                sides = sum(1 for f in fs if arc in f.arcs)
                double = sum(
                    1
                    for f in fs
                    for c in f.corners
                    if d.crossings[c[0]].slots[c[1]] == arc
                )
                # an arc bordering one face on both sides appears in fewer
                # distinct faces but still contributes two sides
                assert sides in (1, 2), (name, arc)


class TestComponents:
    def test_trefoil_is_a_knot(self, trefoil):
        assert len(components(trefoil)) == 1

    def test_two_circles(self):
        assert len(components(parse_diagram("O 1 ; O 2"))) == 2

    def test_tangles_have_two_strand_classes(self, corpus_diagrams):
        for name, d in corpus_diagrams.items():
            if len(d.boundary) == 4:
                open_classes = {
                    i
                    for i, grp in enumerate(components(d))
                    if grp & set(d.boundary)
                }
                assert len(open_classes) == 2, name

    def test_strand_classes_of_trefoil(self, trefoil):
        rep = strand_classes(trefoil)
        assert len(set(rep.values())) == 3

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=25, deadline=None)
    def test_component_count_is_relabeling_invariant(self, rng):
        d = parse_diagram(TREFOIL)
        labels = sorted(d.arcs())
        images = list(rng.sample(range(1, 100), len(labels)))
        mapping = dict(zip(labels, images))
        assert len(components(relabel(d, mapping))) == len(components(d))


class TestCoFacial:
    def test_trefoil_pairs(self, trefoil):
        assert co_facial(trefoil, 2, 4) is True
        assert co_facial(trefoil, 1, 6) is False

    def test_same_arc_rejected(self, trefoil):
        with pytest.raises(DiagramError):
            co_facial(trefoil, 2, 2)

    def test_unknown_arc_rejected(self, trefoil):
        with pytest.raises(DiagramError):
            co_facial(trefoil, 2, 99)

    def test_circle_labels_are_arcs(self, trefoil):
        # circles are not in the dart index, yet they are arcs: known, on no face
        d = parse_diagram(TREFOIL + " ; O 7")
        assert co_facial(d, 7, 2) is False
        assert co_facial(parse_diagram("O 1 ; O 2"), 1, 2) is False
        with pytest.raises(DiagramError):
            co_facial(d, 7, 8)

    def test_hopf_face_incidence(self, corpus_diagrams):
        # every face of the standard Hopf diagram is bounded by one arc of
        # each component, so same-component arcs never share a face while
        # cross-component arcs always do
        hopf = corpus_diagrams["hopf"]
        assert len(faces(hopf)) == 4
        grp_a, grp_b = sorted(components(hopf), key=min)
        a1, a2 = sorted(grp_a)
        b1, b2 = sorted(grp_b)
        assert not co_facial(hopf, a1, a2)
        assert not co_facial(hopf, b1, b2)
        assert all(co_facial(hopf, x, y) for x in (a1, a2) for y in (b1, b2))


class TestMaxLabel:
    def test_matches_the_largest_arc_label(self, corpus_diagrams):
        rng = random.Random(11)
        braids = [
            braid_closure([rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(k)], n)
            for n, k in [(2, 3), (3, 8), (3, 25), (4, 40)]
        ]
        extra = [parse_diagram("O 1 ; O 2"), parse_diagram("B 1 1"), Diagram()]
        extra.append(parse_diagram(TREFOIL + " ; O 9"))  # a circle above every dart label
        for d in [*corpus_diagrams.values(), *extra, *braids]:
            assert max_label(d) == max(d.arcs(), default=0), serialize(d)


class TestOrientation:
    def test_orient_signs_all_set(self, trefoil):
        o = orient(trefoil)
        assert o.oriented
        assert {c.sign for c in o.crossings} == {-1} or {c.sign for c in o.crossings} == {1}

    def test_orient_tangle(self, corpus_diagrams):
        o = orient(corpus_diagrams["fig8-tangle"])
        assert o.oriented

    def test_signed_parse_roundtrip(self, trefoil):
        text = serialize(orient(trefoil))
        assert "Xm" in text or "Xp" in text
        d = parse_diagram(text)
        assert d.oriented

    def test_inconsistent_signs_rejected(self):
        # all-positive signing of this diagram has no consistent flow
        with pytest.raises(DiagramError):
            parse_diagram("Xp 1 4 2 5 ; Xp 3 6 4 1 ; Xp 5 2 6 3")

    def test_mixed_signs_rejected(self):
        with pytest.raises(DiagramError):
            parse_diagram("Xm 1 4 2 5 ; X 3 6 4 1 ; Xm 5 2 6 3")


class TestCanonicalForm:
    def test_relabeling_invariance(self, trefoil):
        mapping = {1: 11, 2: 22, 3: 33, 4: 44, 5: 55, 6: 66}
        assert canonical_form(relabel(trefoil, mapping)) == canonical_form(trefoil)

    def test_chirality_distinguished(self, trefoil):
        from tanglecert.tangle import mirror

        assert canonical_form(mirror(trefoil)) != canonical_form(trefoil)
