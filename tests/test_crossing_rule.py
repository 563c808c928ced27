"""The one crossing rule and the one certificate check.

verify_coloring (colorings._broken_crossing over each coloring's own rule)
is compared with oracles.reference_verify_coloring, the check as it was
written out per coloring kind, on seeded braid closures: Fox colorings mod
2 to 15 with reduced and unreduced values, dihedral quandle colorings of
unoriented closures, and non-involutory Alexander quandle colorings of
oriented closures with crossings of both signs.  Every single-entry
mutation of a coloring must be rejected by both, and both refuse a
non-involutory coloring of an unoriented diagram with crossings.  The certificate tests
show that persistence._check_certificate compares reduced colors, names
the broken crossing relation, and runs on every emitted certificate.
"""

import random
from dataclasses import replace
from itertools import islice

import pytest

from oracles import reference_verify_coloring
from tanglecert import colorings, persistence
from tanglecert.braids import braid_closure
from tanglecert.colorings import (
    ColoringError,
    FoxColoring,
    FoxSolutionSpace,
    Quandle,
    QuandleAxiomError,
    QuandleColoring,
    dihedral,
    fox_solution_space,
    parse_quandle,
    quandle_space,
    verify_coloring,
)
from tanglecert.diagram import DiagramError, orient, parse_diagram, unoriented
from tanglecert.persistence import (
    CertificateError,
    PersistenceCertificate,
    cut_arc_twice,
    cut_two_arcs,
    ensure_same_colored_pair,
    find_certificate_report,
    verify_certificate,
)


def alexander(p, t):
    """The Alexander quandle a * b = t*a + (1 - t)*b over Z/p."""
    return Quandle(tuple(tuple((t * a + (1 - t) * b) % p for b in range(p)) for a in range(p)))


RNG = random.Random(1111)
CLOSURES = [
    braid_closure(
        [RNG.choice((1, -1)) * RNG.randint(1, s - 1) for _ in range(RNG.randint(2, 12))], s
    )
    for s in [RNG.randint(2, 4) for _ in range(24)]
]
IDS = [f"c{i}" for i in range(len(CLOSURES))]


def mutations(d, coloring, size):
    """Every coloring that changes one label at a crossing to another color below size."""
    crossing_labels = {s for x in d.crossings for s in x.slots}
    for label in sorted(crossing_labels):
        for shift in range(1, size):
            colors = dict(coloring.colors)
            colors[label] = (colors[label] + shift) % size
            yield replace(coloring, colors=colors)


def agree_and_reject(d, coloring, size):
    assert verify_coloring(d, coloring) is reference_verify_coloring(d, coloring) is True
    for bad in mutations(d, coloring, size):
        assert verify_coloring(d, bad) is reference_verify_coloring(d, bad) is False, bad.colors


@pytest.mark.parametrize("d", CLOSURES, ids=IDS)
def test_fox_colorings_agree_with_the_reference(d):
    rng = random.Random(len(d.crossings))
    for n in range(2, 16):
        space = fox_solution_space(d, n)
        for c in islice(space.colorings(), 3):
            agree_and_reject(d, c, n)
            unreduced = FoxColoring(n, {a: v + n * rng.randint(-3, 3) for a, v in c.colors.items()})
            assert verify_coloring(d, unreduced) is reference_verify_coloring(d, unreduced) is True


@pytest.mark.parametrize("d", CLOSURES, ids=IDS)
def test_dihedral_colorings_of_unoriented_closures_agree(d):
    for n in (3, 5, 7):
        for c in islice(quandle_space(d, dihedral(n)).colorings(), 4):
            agree_and_reject(d, c, n)


@pytest.mark.parametrize("q", [alexander(5, 2), alexander(7, 3)], ids=["alexander-5-2", "alexander-7-3"])
def test_non_involutory_colorings_of_oriented_closures_agree(q):
    assert not q.involutory
    signs, nonconstant = set(), 0
    for d in map(orient, CLOSURES):
        for c in islice(quandle_space(d, q).colorings(), 6):
            agree_and_reject(d, c, q.size)
            if c.nontrivial:
                signs |= {x.sign for x in d.crossings}
                nonconstant += 1
        with pytest.raises(ColoringError, match="orientation required"):
            verify_coloring(unoriented(d), QuandleColoring(q, {a: 0 for a in d.arcs()}))
    assert signs == {-1, 1} and nonconstant >= 5


@pytest.mark.parametrize("q", [alexander(5, 2), alexander(7, 3)], ids=["alexander-5-2", "alexander-7-3"])
def test_both_checks_need_an_orientation_only_where_there_are_crossings(q):
    for d in map(orient, CLOSURES):
        for c in islice(quandle_space(d, q).colorings(), 2):
            for check in (verify_coloring, reference_verify_coloring):
                with pytest.raises(ColoringError, match="orientation required"):
                    check(unoriented(d), c)
    for text, colors in [("O 1 ; O 2", {1: 0, 2: 3}), ("B 1 1", {1: 4})]:
        d, c = parse_diagram(text), QuandleColoring(q, colors)
        assert verify_coloring(d, c) is reference_verify_coloring(d, c) is True


class TestRange:
    def test_negative_quandle_colors_are_rejected(self, corpus_diagrams):
        unknot = corpus_diagrams["unknot"]
        with pytest.raises(ColoringError, match="outside the quandle"):
            verify_coloring(unknot, QuandleColoring(dihedral(3), {1: -3}))
        t = corpus_diagrams["fig9-tangle"]
        good = next(c for c in quandle_space(t, dihedral(3)).colorings() if 1 in c.colors.values())
        assert verify_coloring(t, good)
        label = min(a for a, v in good.colors.items() if v == 1)
        with pytest.raises(ColoringError, match=f"arc {label} has color -2"):
            verify_coloring(t, QuandleColoring(dihedral(3), {**good.colors, label: -2}))

    @pytest.mark.parametrize("value", [3, 4, 100])
    def test_colors_past_the_table_raise_a_coloring_error(self, trefoil, value):
        colors = {a: 0 for a in trefoil.arcs()}
        colors[1] = value
        with pytest.raises(ColoringError, match="outside the quandle"):
            verify_coloring(trefoil, QuandleColoring(dihedral(3), colors))

    def test_fox_values_are_read_mod_n(self, trefoil):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        assert verify_coloring(trefoil, FoxColoring(3, {a: v - 3 * a for a, v in c.colors.items()}))


class TestQuandleValidatedOnce:
    def test_construction_validates_and_nothing_after_it(self, trefoil, monkeypatch):
        calls = []
        real = colorings.validate_quandle
        monkeypatch.setattr(colorings, "validate_quandle", lambda q: calls.append(q) or real(q))
        q = parse_quandle("Q 3\n0 2 1\n2 1 0\n1 0 2\n")
        space = quandle_space(trefoil, q)
        assert all(verify_coloring(trefoil, c) for c in space.colorings()) and space.count == 9
        assert len(calls) == 1

    def test_a_table_that_is_not_right_invertible_is_refused(self):
        with pytest.raises(QuandleAxiomError) as err:
            Quandle(((0, 0), (0, 1)))  # column 0 holds 0 twice
        assert err.value.axiom == "right-invertibility"

    def test_the_inverse_table_inverts(self):
        q = alexander(7, 3)
        assert all(q.op(q.inv(a, b), b) == a for a in range(7) for b in range(7))


def constant_with_one_shifted(t, n):
    """A constant Fox coloring of t mod n whose first interior arc reads n (= 0 mod n)."""
    interior = sorted(a for a in t.arcs() if a not in t.boundary)
    colors = {a: 0 for a in t.arcs()}
    colors[interior[0]] = n
    return PersistenceCertificate(FoxColoring(n, colors), 0, tuple(interior[:2]))


class TestCertificateCheck:
    @pytest.mark.parametrize("name", ["fig1-krebes", "fig3-1tangle", "fig5-t-plus-tstar", "fig2-p5"])
    def test_one_residue_written_two_ways_is_no_witness(self, corpus_diagrams, name):
        t = corpus_diagrams[name]
        cert = constant_with_one_shifted(t, 3)
        with pytest.raises(CertificateError, match="witness arcs carry equal colors"):
            verify_certificate(t, cert, trials=20, seed=0)

    def test_an_unreduced_boundary_color_is_its_residue(self, corpus_diagrams):
        t = corpus_diagrams["fig1-krebes"]
        cert = find_certificate_report(t).certificate
        n = cert.kind[1]
        shifted = PersistenceCertificate(
            FoxColoring(n, {a: v + n for a, v in cert.coloring.colors.items()}),
            cert.boundary_color - n,
            cert.witness,
        )
        assert verify_certificate(t, shifted, trials=5).to_json() == verify_certificate(
            t, cert, trials=5
        ).to_json()

    def test_a_witness_off_the_tangle_is_refused(self, corpus_diagrams):
        t = corpus_diagrams["fig1-krebes"]
        cert = constant_with_one_shifted(t, 3)
        colors = {**cert.coloring.colors, 999: 1}
        bad = PersistenceCertificate(FoxColoring(3, colors), 0, (cert.witness[0], 999))
        with pytest.raises(CertificateError, match="999 has no color on t"):
            verify_certificate(t, bad, trials=5)

    def test_the_broken_crossing_is_named(self, corpus_diagrams):
        t = corpus_diagrams["fig1-krebes"]
        cert = find_certificate_report(t).certificate
        label = next(a for a in sorted(t.arcs()) if a not in t.boundary and a not in cert.witness)
        colors = {**cert.coloring.colors, label: cert.coloring.colors[label] + 1}
        bad = PersistenceCertificate(FoxColoring(cert.kind[1], colors), 0, cert.witness)
        broken = next(x.slots for x in t.crossings if label in x.slots)
        with pytest.raises(CertificateError, match=rf"crossing relation .* at \({broken[0]}, "):
            persistence._check_certificate(t, bad)


def shifted_first(space_method):
    """first_nonconstant with one interior arc moved off its color: a broken coloring."""

    def broken(self):
        c = space_method(self)
        if c is None:
            return c
        boundary = self.diagram.boundary
        label = max(a for a in c.colors if a not in boundary)
        return FoxColoring(c.modulus, {**c.colors, label: (c.colors[label] + 1) % c.modulus})

    return broken


class TestEmittersRejectABrokenRelation:
    def test_the_search(self, corpus_diagrams, monkeypatch):
        t = corpus_diagrams["fig1-krebes"]
        monkeypatch.setattr(
            FoxSolutionSpace, "first_nonconstant", shifted_first(FoxSolutionSpace.first_nonconstant)
        )
        with pytest.raises(CertificateError, match="crossing relation"):
            find_certificate_report(t)

    def test_the_one_arc_cut(self, trefoil, monkeypatch):
        c = fox_solution_space(trefoil, 3).first_nonconstant()
        broken = FoxColoring(3, {**c.colors, 3: (c.colors[3] + 1) % 3})
        monkeypatch.setattr(persistence, "verify_coloring", lambda d, coloring: True)
        with pytest.raises(CertificateError, match="crossing relation"):
            cut_arc_twice(trefoil, broken, 1)

    def test_the_two_arc_cut(self, trefoil, monkeypatch):
        c = fox_solution_space(trefoil, 3, {1: 0, 6: 0}).first_nonconstant()
        real = persistence.r2_transport

        def broken_transport(d, coloring, source, dest):
            moved = real(d, coloring, source, dest)
            label = min(set(moved.coloring.colors) - {moved.segment, dest})
            colors = {**moved.coloring.colors, label: (moved.coloring.colors[label] + 1) % 3}
            moved.coloring = FoxColoring(3, colors)
            return moved

        monkeypatch.setattr(persistence, "r2_transport", broken_transport)
        with pytest.raises(CertificateError, match="crossing relation"):
            cut_two_arcs(trefoil, c, 1, 6)


class TestCutPrecondition:
    @pytest.mark.parametrize("cut", ["once", "twice", "two arcs"])
    def test_every_cut_needs_one_component(self, corpus_diagrams, cut):
        hopf = corpus_diagrams["hopf"]
        c = fox_solution_space(hopf, 2).first_nonconstant()
        assert c is not None and verify_coloring(hopf, c)
        a, b = sorted(hopf.arcs())[:2]
        with pytest.raises(DiagramError, match="1-component"):
            if cut == "once":
                persistence.cut_arc_once(hopf, a)
            elif cut == "twice":
                cut_arc_twice(hopf, c, a)
            else:
                cut_two_arcs(hopf, c, a, b)

    def test_the_cuts_still_refuse_trivial_and_invalid_colorings(self, trefoil):
        constant = FoxColoring(3, {a: 0 for a in trefoil.arcs()})
        with pytest.raises(CertificateError, match="trivial"):
            cut_arc_twice(trefoil, constant, 1)
        broken = FoxColoring(3, {**constant.colors, 1: 1, 2: 2})
        with pytest.raises(CertificateError, match="not valid"):
            cut_arc_twice(trefoil, broken, 1)


def test_pair_creation_mints_with_the_quandle_rule(corpus_diagrams):
    # 6_2 mod 11 gives each of its 6 strands its own color, so no pair lies on
    # two strands and one is minted
    d = corpus_diagrams["6_2"]
    fox = fox_solution_space(d, 11).first_nonconstant()
    quandle = QuandleColoring(dihedral(11), dict(fox.colors))
    d_fox, c_fox, pair_fox, recs_fox = ensure_same_colored_pair(d, fox)
    d_q, c_q, pair_q, recs_q = ensure_same_colored_pair(d, quandle)
    assert len(recs_fox) == 1 and (d_q, pair_q, recs_q) == (d_fox, pair_fox, recs_fox)
    assert c_q.colors == c_fox.colors and c_q.colors[pair_q[0]] == c_q.colors[pair_q[1]]
    assert verify_coloring(d_q, c_q)


def test_every_emitted_certificate_passes_the_check(corpus_diagrams):
    emitted = []
    for name in ("fig1-krebes", "fig5-t-plus-tstar", "fig3-1tangle", "fig2-p5"):
        t = corpus_diagrams[name]
        for quandles, moduli in (((), None), ((dihedral(3), dihedral(5)), [])):
            if (cert := find_certificate_report(t, moduli, quandles).certificate) is not None:
                emitted.append((t, cert))
    trefoil = parse_diagram("X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3")
    c = fox_solution_space(trefoil, 3, {1: 0, 6: 0}).first_nonconstant()
    emitted.append(cut_arc_twice(trefoil, c, 1))
    emitted.append(cut_two_arcs(trefoil, c, 1, 6, extra_passes=2)[:2])
    emitted.append(persistence.build_T_plus_Tstar([3, 2, 1]))
    assert len(emitted) >= 8
    for t, cert in emitted:
        persistence._check_certificate(t, cert)
