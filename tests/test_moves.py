import random
from dataclasses import replace
from itertools import islice

import pytest

from oracles import canonical_form, reference_recolor_after_move
from tanglecert import colorings, diagram, moves, persistence
from tanglecert.braids import braid_closure
from tanglecert.colorings import (
    FoxColoring,
    Quandle,
    QuandleColoring,
    determinant,
    dihedral,
    fox_solution_space,
    quandle_space,
    verify_coloring,
)
from tanglecert.diagram import (
    ArcOccurrenceError,
    DiagramError,
    PlanarityError,
    co_facial,
    components,
    faces,
    parse_diagram,
    serialize,
)
from tanglecert.moves import (
    MoveError,
    MoveRecord,
    apply_r1,
    apply_r2_over,
    apply_r3,
    find_r3_triangles,
    r2_transport,
    records_to_json,
    recolor_after_move,
    undo_move,
)
from tanglecert.tangle import rational_tangle


def counts(d, moduli=(2, 3, 5, 7)):
    return {n: fox_solution_space(d, n).count for n in moduli}


def random_diagrams(n, seed=0, max_len=8):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        strands = rng.choice([2, 3, 3, 4])
        word = [rng.choice([1, -1]) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, max_len))]
        out.append(braid_closure(word, strands))
    return out


class TestR2:
    def test_trefoil_grows_to_five_crossings(self, trefoil):
        d2, rec = apply_r2_over(trefoil, 2, 4)
        assert len(d2.crossings) == 5
        assert determinant(d2) == 3
        assert len(rec.fresh) == 4

    def test_apply_then_undo_is_identity(self, trefoil):
        d2, rec = apply_r2_over(trefoil, 2, 4)
        back, inverse = undo_move(d2, rec)
        assert canonical_form(back) == canonical_form(trefoil)
        assert inverse.kind == "R2-"

    def test_non_cofacial_pair_rejected(self, trefoil):
        with pytest.raises(MoveError):
            apply_r2_over(trefoil, 1, 6)

    def test_constant_coloring_stays_constant(self, trefoil):
        c = FoxColoring(5, {a: 3 for a in trefoil.arcs()})
        d2, rec = apply_r2_over(trefoil, 2, 4)
        c2 = recolor_after_move(c, [rec], d2)
        assert set(c2.colors.values()) == {3}

    def test_recoloring_preserves_nontriviality(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        d2, rec = apply_r2_over(trefoil, 2, 4)
        c2 = recolor_after_move(c, [rec], d2)
        assert verify_coloring(d2, c2) and c2.nontrivial
        # the mover keeps its color on all three segments
        assert c2.colors[rec.fresh[0]] == c.colors[2]
        assert c2.colors[rec.fresh[1]] == c.colors[2]

    def test_moves_on_tangles(self, corpus_diagrams):
        t = corpus_diagrams["fig8-tangle"]
        f = next(f for f in faces(t) if len(f.arcs) >= 2 and f.corners)
        m, tg = sorted(f.arcs)[:2]
        d2, rec = apply_r2_over(t, m, tg)
        assert counts(d2) == counts(t)

    def test_oriented_diagrams_rejected_until_stripped(self, trefoil):
        from tanglecert.diagram import OrientationError, orient, unoriented

        signed = orient(trefoil)
        with pytest.raises(OrientationError):
            apply_r2_over(signed, 2, 4)
        stripped = unoriented(signed)
        d2, _ = apply_r2_over(stripped, 2, 4)
        assert len(d2.crossings) == 5


class TestR1:
    def test_kink_preserves_counts_both_ways(self, trefoil):
        for positive in (True, False):
            d1, rec = apply_r1(trefoil, 1, positive=positive)
            assert counts(d1) == counts(trefoil)
            back, inverse = undo_move(d1, rec)
            assert canonical_form(back) == canonical_form(trefoil)
            assert inverse.kind == "R1-"

    def test_kink_on_circle(self):
        u = parse_diagram("O 1")
        k, rec = apply_r1(u, 1)
        assert len(k.crossings) == 1 and not k.circles
        assert determinant(k) == 1
        back, _ = undo_move(k, rec)
        assert serialize(back) == serialize(u)


class TestR3:
    def test_standard_trefoil_has_no_slide(self, trefoil):
        assert find_r3_triangles(trefoil) == []

    def test_braid_relation(self):
        lhs = braid_closure([1, 2, 1], 3)
        rhs = braid_closure([2, 1, 2], 3)
        tris = find_r3_triangles(lhs)
        assert tris
        slid, rec = apply_r3(lhs, tris[0])
        assert canonical_form(slid) == canonical_form(rhs)
        back, _ = undo_move(slid, rec)
        assert canonical_form(back) == canonical_form(lhs)

    def test_ineligible_face_rejected(self, trefoil):
        with pytest.raises(MoveError):
            apply_r3(trefoil, 0)


class TestPropertySweep:
    def test_counts_preserved_across_all_moves(self):
        rng = random.Random(11)
        stats = {"R1": 0, "R2": 0, "R3": 0}
        for d in random_diagrams(40, seed=3):
            base = counts(d)
            arcs = sorted(d.arcs())
            d1, _ = apply_r1(d, rng.choice(arcs), positive=rng.random() < 0.5)
            assert counts(d1) == base
            stats["R1"] += 1
            eligible = [f for f in faces(d) if len(f.arcs) >= 2 and f.corners]
            if eligible:
                f = rng.choice(eligible)
                m, tg = rng.sample(sorted(f.arcs), 2)
                d2, _ = apply_r2_over(d, m, tg)
                assert counts(d2) == base
                stats["R2"] += 1
            tris = find_r3_triangles(d)
            if tris:
                d3, _ = apply_r3(d, rng.choice(tris))
                assert counts(d3) == base
                stats["R3"] += 1
        assert stats["R1"] == 40 and stats["R2"] >= 35 and stats["R3"] >= 10


class TestTransport:
    def test_already_cofacial_is_identity(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        res = r2_transport(trefoil, c, 2, 4)
        assert res.records == [] and res.segment == 2
        assert serialize(res.diagram) == serialize(trefoil)

    def test_transport_reaches_destination(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        res = r2_transport(trefoil, c, 1, 6)
        assert len(res.records) >= 1
        assert co_facial(res.diagram, res.segment, 6)
        assert res.coloring.colors[res.segment] == c.colors[1]
        assert determinant(res.diagram) == determinant(trefoil)

    def test_determinant_preserved_on_random_knots(self):
        rng = random.Random(5)
        checked = 0
        for d in random_diagrams(120, seed=9):
            if len(components(d)) != 1 or len(d.arcs()) < 2:
                continue
            det = determinant(d)
            c = FoxColoring(5, {a: 0 for a in d.arcs()})
            s, t = rng.sample(sorted(d.arcs()), 2)
            res = r2_transport(d, c, s, t)
            assert determinant(res.diagram) == det
            checked += 1
        assert checked >= 25

    def test_disconnected_face_graph_rejected(self, trefoil):
        from tanglecert.diagram import Diagram

        d = Diagram(trefoil.crossings, (9,), ())
        c = FoxColoring(3, {a: 0 for a in d.arcs()})
        with pytest.raises(MoveError):
            r2_transport(d, c, 1, 9)

    def test_records_serialize(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        res = r2_transport(trefoil, c, 1, 6)
        trace = records_to_json(res.records)
        assert all(entry["kind"] == "R2+" for entry in trace)
        assert all("site" in entry and "fresh" in entry for entry in trace)


def some_colorings(d, rng):
    """One seeded coloring of d per coloring type: Fox mod 3, 5, 15 and dihedral 3, 5."""
    out = []
    for n in (3, 5, 15):
        space = fox_solution_space(d, n)
        out.append(rng.choice(list(islice(space.colorings(), 40))))
    for n in (3, 5):
        out.append(rng.choice(list(islice(quandle_space(d, dihedral(n)).colorings(), 40))))
    return out


class TestLocalRecoloring:
    def test_matches_the_re_solve_on_seeded_moves(self):
        rng = random.Random(17)
        kinds = {}
        for d in random_diagrams(40, seed=23, max_len=10) + [rational_tangle([2, -1, 3])]:
            moves = [apply_r1(d, rng.choice(sorted(d.arcs())), positive=rng.random() < 0.5)]
            eligible = [f for f in faces(d) if len(f.arcs) >= 2 and f.corners]
            if eligible:
                moves.append(apply_r2_over(d, *rng.sample(sorted(rng.choice(eligible).arcs), 2)))
            tris = find_r3_triangles(d)
            if tris:
                moves.append(apply_r3(d, rng.choice(tris)))
            for c in some_colorings(d, rng):
                for after, rec in moves:
                    got = recolor_after_move(c, [rec], after)
                    want = reference_recolor_after_move(c, rec, after)
                    # same colors in the same order, so payloads built from them match too
                    assert got == want and list(got.colors.items()) == list(want.colors.items())
                    back, inverse = undo_move(after, rec)
                    assert recolor_after_move(got, [inverse], back) == reference_recolor_after_move(
                        got, inverse, back
                    )
                    kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
        assert kinds["R1+"] == 205 and kinds["R2+"] >= 180 and kinds["R3"] >= 50

    def test_kink_on_a_crossing_free_open_strand(self):
        d = parse_diagram("B 1 1")
        for c in (FoxColoring(3, {1: 2}), QuandleColoring(dihedral(5), {1: 4})):
            after, rec = apply_r1(d, 1)
            assert recolor_after_move(c, [rec], after) == reference_recolor_after_move(c, rec, after)

    def test_unreduced_fox_values_come_back_reduced(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        shifted = FoxColoring(3, {a: v + 3 * a - 6 for a, v in c.colors.items()})
        d2, rec = apply_r2_over(trefoil, 2, 4)
        got = recolor_after_move(shifted, [rec], d2)
        assert got == recolor_after_move(c, [rec], d2)
        assert set(got.colors.values()) <= {0, 1, 2}

    def test_a_broken_coloring_raises(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        broken = FoxColoring(3, {**c.colors, 6: c.colors[6] + 1})
        d2, rec = apply_r2_over(trefoil, 2, 4)
        with pytest.raises(MoveError):
            recolor_after_move(broken, [rec], d2)
        q = QuandleColoring(dihedral(3), {a: v % 3 for a, v in broken.colors.items()})
        with pytest.raises(MoveError):
            recolor_after_move(q, [rec], d2)

    def test_an_incomplete_coloring_raises(self, trefoil):
        d2, rec = apply_r2_over(trefoil, 2, 4)
        for c in (FoxColoring(3, {}), QuandleColoring(dihedral(3), {2: 1})):
            with pytest.raises(MoveError):
                recolor_after_move(c, [rec], d2)

    def test_colors_outside_the_quandle_raise(self, trefoil):
        d2, rec = apply_r2_over(trefoil, 2, 4)
        with pytest.raises(MoveError):
            recolor_after_move(QuandleColoring(dihedral(3), {a: 3 for a in trefoil.arcs()}), [rec], d2)

    def test_a_non_involutory_quandle_raises(self, trefoil):
        # the Alexander quandle a * b = 2a - b mod 5: (a * b) * b = 4a - 3b
        q = Quandle(tuple(tuple((2 * a - b) % 5 for b in range(5)) for a in range(5)))
        d2, rec = apply_r2_over(trefoil, 2, 4)
        with pytest.raises(MoveError):
            recolor_after_move(QuandleColoring(q, {a: 0 for a in trefoil.arcs()}), [rec], d2)


def random_move(d, rng):
    """One seeded R1, R2 or R3 move on d: (after, record), or None if the draw does not apply."""
    kind = rng.choice(("R1", "R2", "R3"))
    if kind == "R1":
        return apply_r1(d, rng.choice(sorted(d.arcs())), positive=rng.random() < 0.5)
    if kind == "R2":
        eligible = [f for f in faces(d) if len(f.arcs) >= 2 and f.corners]
        try:
            return apply_r2_over(d, *rng.sample(sorted(rng.choice(eligible).arcs), 2))
        except MoveError:  # the two arcs share only a degenerate face
            return None
    tris = find_r3_triangles(d)
    return apply_r3(d, rng.choice(tris)) if tris else None


class TestRecolorOncePerSequence:
    def test_one_recoloring_matches_the_re_solve_move_by_move(self):
        """Moves land on labels earlier moves minted too, where no site keeps
        its shape in the last diagram."""
        rng = random.Random(1)
        knots = []
        while len(knots) < 49:
            word = [rng.choice([1, -1]) * rng.randint(1, 2) for _ in range(rng.randint(3, 9))]
            if len(components(d := braid_closure(word, 3))) == 1:
                knots.append(d)
        kinds, sequences = {}, 0
        for d in knots:
            steps, after = [], d
            for _ in range(rng.randint(1, 8)):
                while (move := random_move(after, rng)) is None:
                    pass
                after, rec = move
                steps.append((after, rec))
                kinds[rec.kind] = kinds.get(rec.kind, 0) + 1
            records = [rec for _, rec in steps]
            for c in some_colorings(d, rng)[::2] + [rng.choice(list(quandle_space(d, dihedral(3)).colorings()))]:
                want = c
                for step, rec in steps:
                    want = reference_recolor_after_move(want, rec, step)
                got = recolor_after_move(c, records, after)
                assert got == want and list(got.colors.items()) == list(want.colors.items())
                sequences += 1
        assert sequences == 196 and set(kinds) == {"R1+", "R2+", "R3"} and min(kinds.values()) >= 20

    def test_kinks_on_minted_labels_recolor_as_move_by_move(self, trefoil):
        # each kink lands on a label an earlier kink minted, so no site keeps
        # its kink in the last diagram; the rule must see each site as it stood
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        for arc in sorted(trefoil.arcs()):
            after, want, records = trefoil, c, []
            for label, positive in ((arc, False), (8, True), (10, True), (9, True), (7, False)):
                after, rec = apply_r1(after, label, positive=positive)
                want = recolor_after_move(want, [rec], after)
                records.append(rec)
            assert recolor_after_move(c, records, after) == want

    def test_a_record_and_its_undo_recolor_as_one_sequence(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        d2, rec = apply_r2_over(trefoil, 2, 4)
        back, inverse = undo_move(d2, rec)
        assert recolor_after_move(c, [rec, inverse], back) == c

    def test_the_transport_and_the_spiral_recolor_once_each(self, corpus_diagrams, monkeypatch):
        d = corpus_diagrams["fig10-overlaid"]
        c = fox_solution_space(d, 3, {3: 0, 24: 0}).first_nonconstant()
        recolorings, checks, real_check = [], [], colorings._broken_crossing

        def recolor(coloring, records, after):
            recolorings.append(len(records))  # the transport's list grows in the spiral
            return recolor_after_move(coloring, records, after)

        def check(*args):
            checks.append(args)
            return real_check(*args)

        for module in (moves, persistence):
            monkeypatch.setattr(module, "recolor_after_move", recolor)
        for module in (colorings, moves, persistence):
            monkeypatch.setattr(module, "_broken_crossing", check)
        assert len(moves.r2_transport(d, c, 3, 24).records) == 3
        assert recolorings == [3] and len(checks) == 1
        per_pass = []
        for passes in range(1, 4):
            recolorings.clear()
            checks.clear()
            records = persistence.cut_two_arcs(d, c, 3, 24, extra_passes=passes)[2]
            assert len(records) == 3 + passes
            assert recolorings == [3, passes]
            per_pass.append(len(checks))
        assert per_pass == [4, 4, 4]  # the input, the transport, the spiral and the certificate


class TestDartIndex:
    def test_the_index_is_built_once_per_diagram(self, monkeypatch):
        d = parse_diagram(serialize(braid_closure([1, -2] * 4, 3)))
        assert diagram._darts(d) is diagram._darts(d)
        builds = []
        real = diagram._dart_structure
        monkeypatch.setattr(diagram, "_dart_structure", lambda x: builds.append(x) or real(x))
        c = fox_solution_space(d, 5).first_nonconstant()
        res = r2_transport(d, c, 1, 7)
        assert len(res.records) >= 2
        # only the input's own validation builds one: each R2 result splices its index
        assert builds == []

    def test_faces_are_numbered_once_per_diagram(self, monkeypatch):
        d = parse_diagram(serialize(braid_closure([1, -2] * 4, 3)))
        c = fox_solution_space(d, 3, pins={1: 0, 7: 0}).first_nonconstant()
        assert len(r2_transport(d, c, 1, 7).records) == 2
        calls = {}
        for module, name in [
            (diagram, "_dart_structure"),
            (diagram, "_face_ids"),
            (diagram, "_orbit"),
            (persistence, "_cut"),
        ]:
            real, log = getattr(module, name), calls.setdefault(name, [])
            monkeypatch.setattr(module, name, lambda *a, real=real, log=log: log.append(a) or real(*a))
        _, _, records = persistence.cut_two_arcs(d, c, 1, 7, extra_passes=2)
        moves = len(records)
        assert moves == 4 and len(calls["_cut"]) == 1
        # each R2 result and the one cut splice the input's index; candidates are scored uncut
        assert calls["_dart_structure"] == []
        # once per moved diagram, whose faces the next step reads; nothing reads the cut's
        assert len(calls["_face_ids"]) == moves
        # one face walked per R2 move and for the cut, never every face
        assert len(calls["_orbit"]) == moves + 1


class TestUndoRecords:
    """One undo path: trailing crossings dropped, substitutions reversed, a circle restored."""

    def test_undoing_the_inverse_of_an_r3_undo_slides_again(self):
        lhs = braid_closure([1, 2, 1], 3)
        slid, rec = apply_r3(lhs, find_r3_triangles(lhs)[0])
        back, inverse = undo_move(slid, rec)
        assert inverse.kind == "R3" and canonical_form(back) == canonical_form(lhs)
        again, _ = undo_move(back, inverse)
        assert canonical_form(again) == canonical_form(slid) == canonical_form(braid_closure([2, 1, 2], 3))

    def test_seeded_undo_restores_the_input_and_recolors_like_the_re_solve(self):
        rng = random.Random(41)
        kinds = {}
        inputs = random_diagrams(30, seed=43, max_len=10) + [rational_tangle([3, -2]), rational_tangle([2, 1, 2])]
        for d in inputs:
            circle = diagram.max_label(d) + 1
            circled = parse_diagram(serialize(d) + f"O {circle}\n")
            moves = [
                (d, apply_r1(d, rng.choice(sorted(d.arcs())), positive=rng.random() < 0.5)),
                (circled, apply_r1(circled, circle, positive=rng.random() < 0.5)),
            ]
            eligible = [f for f in faces(d) if len(f.arcs) >= 2 and f.corners]
            if eligible:
                moves.append((d, apply_r2_over(d, *rng.sample(sorted(rng.choice(eligible).arcs), 2))))
            tris = find_r3_triangles(d)
            if tris:
                moves.append((d, apply_r3(d, rng.choice(tris))))
            for before, (after, rec) in moves:
                back, inverse = undo_move(after, rec)
                assert canonical_form(back) == canonical_form(before)
                for c in some_colorings(before, rng)[::2]:  # Fox mod 3 and 15, dihedral 5
                    moved = recolor_after_move(c, [rec], after)
                    assert moved == reference_recolor_after_move(c, rec, after)
                    restored = recolor_after_move(moved, [inverse], back)
                    assert restored == reference_recolor_after_move(moved, inverse, back) == c
                kind = "R1 circle" if before is circled else rec.kind
                kinds[kind] = kinds.get(kind, 0) + 1
        assert kinds["R1+"] == kinds["R1 circle"] == 32 and kinds["R2+"] >= 25 and kinds["R3"] >= 8

    @pytest.mark.parametrize(
        "place, message",
        [((0, 2), "vertex 0, slot 2 holds 2, expected 99"), ((3, 0), "vertex 3, slot 0 holds None")],
    )
    def test_a_record_naming_a_label_not_at_its_place_raises(self, trefoil, place, message):
        # vertex 3 is the first crossing the undo drops
        after, rec = apply_r2_over(trefoil, 2, 4)
        with pytest.raises(DiagramError, match=message):
            undo_move(after, replace(rec, replaced=((*place, 2, 99),)))

    @pytest.mark.parametrize("added", [4, 5])
    def test_a_record_adding_more_crossings_than_the_diagram_has_raises(self, trefoil, added):
        rec = MoveRecord("R2+", ("arcs", 1, 2), added=tuple(range(added)))
        with pytest.raises(MoveError, match=f"adds {added} crossings to a diagram of 3"):
            undo_move(trefoil, rec)

    # the splice alone passes both records below; the undo's check from scratch rejects them

    def test_a_record_that_swaps_two_slots_is_not_planar(self, trefoil):
        a, b = trefoil.crossings[0].slots[:2]
        rec = MoveRecord("R3", ("face", (1, 2, 3)), replaced=((0, 0, b, a), (0, 1, a, b)))
        with pytest.raises(PlanarityError, match=r"V-E\+F = 3-6\+3"):
            undo_move(trefoil, rec)

    def test_a_record_that_leaves_a_label_on_four_darts_is_rejected(self, trefoil):
        rec = MoveRecord("R3", ("face", (1, 2, 3)), replaced=((0, 2, 1, 2), (2, 1, 1, 2)))
        with pytest.raises(ArcOccurrenceError, match="arc 1 occurs 4 times"):
            undo_move(trefoil, rec)
