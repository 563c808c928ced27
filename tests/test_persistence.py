import random
import re

import pytest

from oracles import canonical_form, reference_cut_choice, reference_verify_certificate
from tanglecert import colorings, persistence
from tanglecert.colorings import (
    FoxColoring,
    Quandle,
    QuandleColoring,
    determinant,
    dihedral,
    fox_solution_space,
    link_determinant,
)
from tanglecert.braids import braid_closure
from tanglecert.diagram import Diagram, DiagramError, co_facial, components, max_label, orient, parse_diagram
from tanglecert.persistence import (
    CertificateError,
    CertificateNotFound,
    PersistenceCertificate,
    build_T_plus_Tstar,
    cut_arc_once,
    cut_arc_twice,
    cut_two_arcs,
    ensure_same_colored_pair,
    find_certificate,
    find_certificate_report,
    find_same_colored_pairs,
    irreducibility_report,
    krebes_gcd,
    verify_certificate,
)
from tanglecert.tangle import (
    close_one_tangle,
    denominator_closure,
    insert_into_host,
    linking_sum,
    numerator_closure,
    rational_tangle,
    zero_tangle,
)


def tricoloring(trefoil):
    return fox_solution_space(trefoil, 3).first_nonconstant()


class TestCutOnce:
    def test_trefoil_to_one_tangle(self, trefoil):
        t = cut_arc_once(trefoil, 1)
        assert len(t.boundary) == 2
        assert canonical_form(close_one_tangle(t)) == canonical_form(trefoil)

    def test_circle_to_trivial_tangle(self):
        t = cut_arc_once(parse_diagram("O 1"), 1)
        assert t.boundary == (1, 1) and not t.crossings

    def test_requires_one_component(self, corpus_diagrams):
        with pytest.raises(Exception):
            cut_arc_once(corpus_diagrams["hopf"], 1)

    def test_one_tangle_certificate(self, trefoil):
        t = cut_arc_once(trefoil, 1)
        cert = find_certificate(t)
        assert cert is not None and cert.kind == ("fox", 3)
        report = verify_certificate(t, cert, trials=30, seed=0)
        assert report.passes == report.trials  # every 1-tangle closure is a knot


class TestCutTwice:
    def test_trefoil_certified_mod3(self, trefoil):
        t, cert = cut_arc_twice(trefoil, tricoloring(trefoil), 1)
        assert len(t.boundary) == 4
        assert cert.kind == ("fox", 3)
        assert determinant(numerator_closure(t)) == 3
        assert link_determinant(denominator_closure(t)) == 0
        assert krebes_gcd(t) == 3

    def test_constant_coloring_rejected(self, trefoil):
        c = FoxColoring(3, {a: 1 for a in trefoil.arcs()})
        with pytest.raises(CertificateError):
            cut_arc_twice(trefoil, c, 1)

    def test_8_16_any_arc_certifies_mod5(self, corpus_diagrams):
        d = corpus_diagrams["8_16"]
        c = fox_solution_space(d, 5).first_nonconstant()
        arc = min(d.arcs())
        t, cert = cut_arc_twice(d, c, arc)
        assert cert.kind == ("fox", 5)
        report = verify_certificate(t, cert, trials=20, seed=1)
        assert report.passes > 0


class TestCutTwoArcs:
    def test_non_cofacial_pair_needs_transport(self, trefoil):
        c = tricoloring(trefoil)
        pairs = find_same_colored_pairs(trefoil, c, require_non_cofacial=True)
        assert pairs
        t, cert, moves = cut_two_arcs(trefoil, c, *pairs[0])
        assert len(moves) >= 1
        assert cert.kind == ("fox", 3)
        report = verify_certificate(t, cert, trials=30, seed=2)
        assert report.passes > 0

    def test_different_colors_rejected(self, trefoil):
        c = tricoloring(trefoil)
        arcs = sorted(trefoil.arcs())
        a, b = next(
            (x, y)
            for x in arcs
            for y in arcs
            if x < y and c.colors[x] != c.colors[y]
        )
        with pytest.raises(CertificateError):
            cut_two_arcs(trefoil, c, a, b)

    def test_cofacial_pair_cuts_without_moves(self, corpus_diagrams):
        d = corpus_diagrams["8_16"]
        c = fox_solution_space(d, 5).first_nonconstant()
        pair = next(
            p
            for p in find_same_colored_pairs(d, c)
            if co_facial(d, *p)
        )
        t, cert, moves = cut_two_arcs(d, c, *pair)
        assert moves == []
        assert cert.kind == ("fox", 5)

    def test_8_16_pairs_give_two_tangles(self, corpus_diagrams):
        d = corpus_diagrams["8_16"]
        c = fox_solution_space(d, 5).first_nonconstant()
        pairs = find_same_colored_pairs(d, c)
        assert len(pairs) >= 2
        shapes = set()
        for pair in pairs[:2]:
            t, cert, _ = cut_two_arcs(d, c, *pair)
            shapes.add(canonical_form(t))
            assert cert.kind == ("fox", 5)
        assert len(shapes) == 2

    def test_certificate_data_is_path_independent(self, trefoil):
        # whatever transport route is taken, the certified modulus and the
        # boundary color depend only on the chosen arcs
        c = tricoloring(trefoil)
        pairs = find_same_colored_pairs(trefoil, c, require_non_cofacial=True)
        results = {
            (cert.kind, cert.boundary_color)
            for pair in pairs
            for _, cert, _ in [cut_two_arcs(trefoil, c, *pair)]
            if c.colors[pair[0]] == c.colors[pairs[0][0]]
        }
        assert len({k for k, _ in results}) == 1

    def test_unreduced_fox_colors_compare_as_residues(self, trefoil):
        # 6 and 0 are one residue mod 3; the solver's own coloring is reduced
        c = FoxColoring(3, {1: 0, 2: 2, 3: 2, 4: 1, 5: 1, 6: 3})
        reduced = FoxColoring(3, {**c.colors, 6: 0})
        assert find_same_colored_pairs(trefoil, c) == [(1, 6), (2, 3), (4, 5)]
        assert find_same_colored_pairs(trefoil, c) == find_same_colored_pairs(trefoil, reduced)
        assert find_same_colored_pairs(trefoil, c, require_non_cofacial=True) == (
            find_same_colored_pairs(trefoil, reduced, require_non_cofacial=True)
        )
        t, cert, moves = cut_two_arcs(trefoil, c, 1, 6)
        t2, cert2, moves2 = cut_two_arcs(trefoil, reduced, 1, 6)
        assert (t, cert.to_json(), moves) == (t2, cert2.to_json(), moves2)
        assert cert.coloring.colors[6] == 0

    def test_regluing_preserves_determinant(self, trefoil):
        c = tricoloring(trefoil)
        t, cert, _ = cut_two_arcs(trefoil, c, *find_same_colored_pairs(trefoil, c)[0])
        n = numerator_closure(t)
        assert determinant(n) == determinant(trefoil)


class TestLinkingInflation:
    def test_strictly_increasing_on_6_2(self, corpus_diagrams):
        d = corpus_diagrams["6_2"]
        c = fox_solution_space(d, 11).first_nonconstant()
        d2, c2, pair, _ = ensure_same_colored_pair(d, c)
        values = []
        for k in (1, 2, 3):
            t, cert, _ = cut_two_arcs(d2, c2, *pair, extra_passes=k)
            assert cert.kind == ("fox", 11)
            values.append(abs(linking_sum(orient(t))))
        assert values[0] > 0
        assert values[0] < values[1] < values[2]

    def test_inter_strand_count_grows_linearly(self, corpus_diagrams):
        d = corpus_diagrams["6_2"]
        c = fox_solution_space(d, 11).first_nonconstant()
        d2, c2, pair, _ = ensure_same_colored_pair(d, c)
        sizes = []
        for k in (0, 1, 2):
            t, _, _ = cut_two_arcs(d2, c2, *pair, extra_passes=k)
            sizes.append(len(t.crossings))
        assert sizes[1] - sizes[0] == 2 and sizes[2] - sizes[1] == 2


def _cut_choices(d, c, pair, extra_passes, monkeypatch):
    """cut_two_arcs's tangle, and what it scored: (knot, mover, candidates, scores)."""
    seen = []
    real = persistence._cut_linkings

    def spy(*args):
        seen.append((*args, real(*args)))
        return seen[-1][-1]

    monkeypatch.setattr(persistence, "_cut_linkings", spy)
    t, _, _ = cut_two_arcs(d, c, *pair, extra_passes=extra_passes)
    monkeypatch.undo()
    (choice,) = seen
    return t, choice


def _fox_colored(d):
    """d's first nonconstant coloring mod the smallest odd prime below 100
    dividing its determinant, or None."""
    det = link_determinant(d)
    p = next((p for p in range(3, 98, 2) if det % p == 0), None)
    return None if p is None else fox_solution_space(d, p).first_nonconstant()


def _seeded_braid_knots(count, seed=16):
    rng = random.Random(seed)
    knots = []
    while len(knots) < count:
        n = rng.randint(16, 30)
        d = braid_closure([rng.choice((1, -1, 2, -2)) for _ in range(n)], 3)
        if len(components(d)) == 1 and link_determinant(d) > 1:
            knots.append(d)
    return knots


class TestCutChoice:
    """The cut scored on the uncut knot's strand walk against every candidate
    cut built, oriented and its linking summed."""

    def test_walk_scores_match_built_cuts(self, corpus_diagrams, monkeypatch):
        knots = [d for d in corpus_diagrams.values() if not d.boundary and len(components(d)) == 1]
        cases = 0
        for d in knots + _seeded_braid_knots(12):
            c = _fox_colored(d)
            if c is None:
                continue
            pairs = find_same_colored_pairs(d, c, require_non_cofacial=True)
            for pair in pairs[:1] + pairs[-1:]:
                for k in range(4):
                    t, (d2, mover, candidates, scores) = _cut_choices(d, c, pair, k, monkeypatch)
                    ref_scores, ref_t = reference_cut_choice(d2, mover, candidates)
                    assert dict(zip(candidates, scores)) == ref_scores
                    assert t == ref_t
                    cases += 1
        assert cases >= 100

    def test_oriented_knots_score_by_their_signs(self, corpus_diagrams, monkeypatch):
        # a co-facial pair needs no R2 move, so the cut keeps the knot's own signs
        cases = 0
        for d in corpus_diagrams.values():
            if d.boundary or len(components(d)) != 1 or not d.crossings:
                continue
            d = orient(d)
            c = _fox_colored(d)
            if c is None:
                continue
            for pair in find_same_colored_pairs(d, c):
                if co_facial(d, *pair):
                    t, (d2, mover, candidates, scores) = _cut_choices(d, c, pair, 0, monkeypatch)
                    ref_scores, ref_t = reference_cut_choice(d2, mover, candidates)
                    assert t.oriented and t == ref_t
                    assert dict(zip(candidates, scores)) == ref_scores
                    cases += 1
        assert cases >= 10

    def test_a_tie_goes_to_the_smallest_label(self, trefoil, monkeypatch):
        c = tricoloring(trefoil)
        t, (d, mover, candidates, scores) = _cut_choices(trefoil, c, (1, 6), 1, monkeypatch)
        assert (candidates, scores) == ([6, 13, 14], [1, 0, 1])
        assert t.boundary[3] == 6
        assert reference_cut_choice(d, mover, candidates) == ({6: 1, 13: 0, 14: 1}, t)


class TestKrebesGcd:
    def test_fig8_tangle_gcd_one(self, corpus_diagrams):
        assert krebes_gcd(corpus_diagrams["fig8-tangle"]) == 1

    def test_krebes_gcd_divisible_by_three(self, corpus_diagrams):
        assert krebes_gcd(corpus_diagrams["fig1-krebes"]) % 3 == 0

    def test_zero_tangle(self):
        assert krebes_gcd(zero_tangle()) == 1


class TestFindCertificate:
    def test_krebes_mod3(self, corpus_diagrams):
        cert = find_certificate(corpus_diagrams["fig1-krebes"])
        assert cert is not None and cert.kind == ("fox", 3)
        assert cert.boundary_color == 0

    def test_fig2_family(self, corpus_diagrams):
        for p in (3, 5, 7):
            cert = find_certificate(corpus_diagrams[f"fig2-p{p}"])
            assert cert is not None and cert.kind == ("fox", p)

    def test_fig9_reports_clash(self, corpus_diagrams):
        t = corpus_diagrams["fig9-tangle"]
        report = find_certificate_report(t, moduli=[3, 5, 7])
        assert report.certificate is None
        assert all(not e["found"] for e in report.entries)
        assert any("clash" in e for e in report.entries)

    def test_fig8_tangle_no_fox_certificate_below_97(self, corpus_diagrams):
        t = corpus_diagrams["fig8-tangle"]
        primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
        report = find_certificate_report(t, moduli=primes)
        assert report.certificate is None
        # and the gcd obstruction announces this outcome in advance
        assert find_certificate_report(t).cannot_exist

    def test_dihedral_quandle_route(self, corpus_diagrams):
        t = corpus_diagrams["fig1-krebes"]
        cert = find_certificate(t, moduli=[], quandles=(dihedral(3),))
        assert cert is not None and cert.kind[0] == "quandle"
        report = verify_certificate(t, cert, trials=10, seed=0)
        assert report.passes > 0

    def test_dihedral7_certifies_mirror_sum(self, corpus_diagrams):
        t = corpus_diagrams["fig5-t-plus-tstar"]
        cert = find_certificate(t, moduli=[], quandles=(dihedral(7),))
        assert cert is not None and cert.kind[0] == "quandle"
        assert cert.coloring.nontrivial

    def test_the_quandle_route_builds_only_the_coloring_it_issues(self, corpus_diagrams, monkeypatch):
        # 12 split circles give 3^12 boundary-pinned dihedral-3 colorings; the
        # search reads the first nonconstant one and builds no other
        t = corpus_diagrams["fig1-krebes"]
        m = max_label(t)
        d = Diagram(t.crossings, tuple(range(m + 1, m + 13)), t.boundary)
        built, init = [], QuandleColoring.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuandleColoring, "__init__", counting)
        cert = find_certificate(d, moduli=[], quandles=(dihedral(3),))
        assert cert is not None and cert.coloring.nontrivial and cert.boundary_color == 0
        assert len(built) <= 2

    def test_certificate_modulus_divides_gcd(self, corpus_diagrams):
        for name in ("fig1-krebes", "fig2-p5", "fig2-p7", "fig5-t-plus-tstar"):
            t = corpus_diagrams[name]
            cert = find_certificate(t)
            g = krebes_gcd(t)
            assert g % cert.kind[1] == 0, name


class TestDefaultModuli:
    @pytest.mark.parametrize(
        "g,moduli",
        [
            (0, persistence._PRIMES_TO_97),
            (1, []),
            (2 ** 3 * 3 ** 2, [2, 3]),
            (3 * 101, [3, 101]),
            (3 * 101 * 103, [3, 101 * 103]),
        ],
    )
    def test_small_primes_then_the_unfactored_rest(self, monkeypatch, g, moduli):
        monkeypatch.setattr(persistence, "krebes_gcd", lambda t: g)
        assert persistence._default_moduli(zero_tangle()) == (list(moduli), g == 1)

    def test_a_large_prime_factor_is_swept_unfactored(self):
        # the gcd is F47^2; trial division toward F47 = 2,971,215,073 never got there
        s, cert = build_T_plus_Tstar([1] * 47)
        assert krebes_gcd(s) == 2971215073 ** 2
        assert cert.kind == ("fox", 2971215073 ** 2)
        assert verify_certificate(s, cert, trials=20, seed=0).passes == 28


class TestKindFollowsTheColoring:
    def test_a_fox_coloring_gives_its_modulus(self, trefoil):
        _, cert = cut_arc_twice(trefoil, tricoloring(trefoil), 1)
        cert = PersistenceCertificate(cert.coloring, cert.boundary_color, cert.witness)
        assert cert.kind == ("fox", 3)
        assert cert.to_json()["kind"] == {"fox": 3}

    def test_a_quandle_coloring_gives_its_quandle(self, corpus_diagrams):
        q = dihedral(3)
        cert = find_certificate(corpus_diagrams["fig1-krebes"], moduli=[], quandles=(q,))
        assert cert.kind == ("quandle", q)
        assert cert.to_json()["kind"] == {"quandle": "dihedral-3"}


class TestVerifyCertificate:
    def test_corrupted_certificate_fails(self, trefoil):
        t, cert = cut_arc_twice(trefoil, tricoloring(trefoil), 1)
        colors = dict(cert.coloring.colors)
        interior = next(
            a for a in sorted(colors) if a not in t.boundary
        )
        colors[interior] = (colors[interior] + 1) % 3
        bad = PersistenceCertificate(FoxColoring(3, colors), cert.boundary_color, cert.witness)
        with pytest.raises(CertificateError):
            verify_certificate(t, bad, trials=2, seed=0)

    def test_malformed_boundary_rejected(self, trefoil):
        t, cert = cut_arc_twice(trefoil, tricoloring(trefoil), 1)
        colors = dict(cert.coloring.colors)
        colors[t.boundary[0]] = (colors[t.boundary[0]] + 1) % 3
        bad = PersistenceCertificate(FoxColoring(3, colors), cert.boundary_color, cert.witness)
        with pytest.raises(CertificateError):
            verify_certificate(t, bad, trials=2, seed=0)

    def test_broken_tangle_coloring_fails_when_every_closure_is_a_link(self):
        # every closure of this sum has two components, so no host would catch it
        s, cert = build_T_plus_Tstar([3, 1, 2])
        assert cert.kind == ("fox", 2)
        assert verify_certificate(s, cert, trials=10, seed=0).passes == 0
        colors = dict(cert.coloring.colors)
        colors[3] += 1
        bad = PersistenceCertificate(FoxColoring(2, colors), cert.boundary_color, cert.witness)
        with pytest.raises(CertificateError, match="crossing relation"):
            verify_certificate(s, bad, trials=100, seed=0)

    def test_uncolored_interior_arc_rejected(self, corpus_diagrams):
        t = corpus_diagrams["fig5-t-plus-tstar"]
        cert = find_certificate(t)
        interior = max(a for a in t.arcs() if a not in t.boundary and a not in cert.witness)
        colors = {a: v for a, v in cert.coloring.colors.items() if a != interior}
        bad = PersistenceCertificate(
            FoxColoring(cert.kind[1], colors), cert.boundary_color, cert.witness
        )
        with pytest.raises(CertificateError, match=f"arc {interior}"):
            verify_certificate(t, bad, trials=2, seed=0)

    @pytest.mark.parametrize("drop_endpoint", [False, True])
    def test_missing_witness_or_endpoint_color_is_named(self, corpus_diagrams, drop_endpoint):
        t = corpus_diagrams["fig5-t-plus-tstar"]
        cert = find_certificate(t)
        colors = dict(cert.coloring.colors)
        witness = cert.witness
        if drop_endpoint:
            assert 1 in t.boundary
            del colors[1]
            label = 1
        else:
            witness = (1, 999)
            label = 999
        bad = PersistenceCertificate(FoxColoring(cert.kind[1], colors), cert.boundary_color, witness)
        with pytest.raises(CertificateError, match=f" {label} has no color"):
            verify_certificate(t, bad, trials=2, seed=0)

    @pytest.mark.parametrize("witness", [None, (1,)], ids=["none", "one-arc"])
    def test_a_witness_that_is_not_a_pair_is_named(self, corpus_diagrams, witness):
        # a constant coloring's witness() is None; neither is a pair of arcs
        t = corpus_diagrams["fig1-krebes"]
        coloring = FoxColoring(3, {a: 0 for a in t.arcs()})
        assert coloring.witness() is None
        bad = PersistenceCertificate(coloring, 0, witness)
        message = re.escape(f"witness must be a pair of arcs, got {witness!r}")
        with pytest.raises(CertificateError, match=message):
            verify_certificate(t, bad, trials=2, seed=0)


    @pytest.mark.parametrize("quandles", [(), (dihedral(3),)])
    def test_oriented_tangle_verifies_like_its_unoriented_form(self, corpus_diagrams, quandles):
        # the rational hosts are unsigned; signs do not enter these crossing rules
        t = corpus_diagrams["fig1-krebes"]
        oriented = orient(t)
        moduli = [] if quandles else None
        reports = [
            verify_certificate(d, find_certificate(d, moduli, quandles), trials=20, seed=0).to_json()
            for d in (t, oriented)
        ]
        assert reports[0]["passes"] > 0
        assert reports[1] == reports[0]

    def test_non_involutory_certificate_on_an_oriented_tangle_names_the_missing_hosts(
        self, corpus_diagrams
    ):
        table = tuple(tuple((3 * a - 2 * b) % 7 for b in range(7)) for a in range(7))
        alexander = Quandle(table, name="alexander-7-3")  # a * b = 3a - 2b over Z/7
        assert not alexander.involutory
        t = orient(corpus_diagrams["fig1-krebes"])
        cert = find_certificate(t, [], (alexander,))
        assert cert is not None
        with pytest.raises(CertificateError, match="oriented rational hosts"):
            verify_certificate(t, cert, trials=5, seed=0)


def _verified_certificates(corpus):
    """(name, tangle, certificate): the corpus certificates, the dihedral one
    of fig1-krebes, and T+T* for 20 seeded twist vectors."""
    out = []
    for name, t in corpus.items():
        if t.boundary and (cert := find_certificate(t)) is not None:
            out.append((name, t, cert))
    krebes = corpus["fig1-krebes"]
    out.append(("fig1-krebes dihedral(3)", krebes, find_certificate(krebes, [], (dihedral(3),))))
    rng = random.Random(8)
    while len(out) < 28:
        w = [rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
        try:
            s, cert = build_T_plus_Tstar(w)
        except (DiagramError, CertificateNotFound):
            continue
        out.append((f"T+T*{w}", s, cert))
    return out


class TestVerifyEachHostOnce:
    @pytest.mark.parametrize("trials", [0, 1, 5, 100])
    def test_report_equals_the_reference_loop(self, corpus_diagrams, trials):
        certs = _verified_certificates(corpus_diagrams)
        assert "fig3-1tangle" in [name for name, _, _ in certs]
        for name, t, cert in certs:
            for seed in (0, 3, 7919):
                got = verify_certificate(t, cert, trials=trials, seed=seed).to_json()
                want = reference_verify_certificate(t, cert, trials=trials, seed=seed).to_json()
                assert got == want, (name, seed)

    @pytest.mark.parametrize("name", ["fig5-t-plus-tstar", "fig3-1tangle"])
    def test_each_distinct_host_and_closure_is_built_once(self, corpus_diagrams, monkeypatch, name):
        t = corpus_diagrams[name]
        cert = find_certificate(t)
        glued, built = [], []

        def counting_insert(t, host, closure="N"):
            glued.append(closure)
            return insert_into_host(t, host, closure)

        def counting_rational(w):
            built.append(tuple(w))
            return rational_tangle(w)

        monkeypatch.setattr(persistence, "insert_into_host", counting_insert)
        monkeypatch.setattr(persistence, "rational_tangle", counting_rational)
        report = verify_certificate(t, cert, trials=100, seed=1)
        pairs = {(e["host"], e["closure"]) for e in report.entries}
        assert len(pairs) < len(report.entries)  # the draws repeat
        assert len(glued) == len(pairs)
        assert len(built) == len(set(built))  # rejected 1-tangle caps included
        suffix = "-capped" if len(t.boundary) == 2 else ""
        hosts = {e["host"] for e in report.entries} - {"zero", "infinity", "trivial"}
        assert hosts <= {f"rational{list(w)}{suffix}" for w in built}

    def test_repeated_entries_are_copies(self, corpus_diagrams):
        t = corpus_diagrams["fig5-t-plus-tstar"]
        report = verify_certificate(t, find_certificate(t), trials=100, seed=1)
        ids = {id(e) for e in report.entries}
        assert len(ids) == len(report.entries)


class TestTPlusTstar:
    def test_vertical_column_certifies(self):
        s, cert = build_T_plus_Tstar([3, 0])
        assert cert.kind == ("fox", 3)
        report = verify_certificate(s, cert, trials=20, seed=4)
        assert report.passes > 0

    def test_fig5_vector_certifies_mod7(self):
        s, cert = build_T_plus_Tstar([3, 2, 1])
        assert cert.kind == ("fox", 7)

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(Exception):
            build_T_plus_Tstar([0])
        with pytest.raises(Exception):
            build_T_plus_Tstar([0, 3])

    def test_integer_tangles_cannot_certify(self):
        # an integer tangle plus its mirror cancels to the zero tangle, so
        # the gcd obstruction rules every modulus out
        with pytest.raises(CertificateNotFound) as err:
            build_T_plus_Tstar([3])
        assert err.value.cannot_exist


class TestIrreducibilityReport:
    def test_fig8_tangle_consistent(self, corpus_diagrams):
        rep = irreducibility_report(corpus_diagrams["fig8-tangle"])
        assert rep.closure_n.determinant == 5
        assert rep.closure_d.determinant == 3
        assert rep.krebes_gcd == 1
        assert rep.verdict == "consistent with irreducible"
        assert rep.local_knots == "not checked"

    def test_zero_tangle_excluded(self):
        rep = irreducibility_report(zero_tangle())
        assert rep.verdict.startswith("excluded")

    def test_one_determinant_per_closure(self, corpus_diagrams, monkeypatch):
        calls = {}
        for module, name in [
            (persistence, "numerator_closure"),
            (persistence, "denominator_closure"),
            (persistence, "link_determinant"),
            (persistence, "fox_solution_space"),
            (colorings, "fox_solution_space"),
        ]:
            real, log = getattr(module, name), calls.setdefault(name, [])
            monkeypatch.setattr(module, name, lambda *a, real=real, log=log: log.append(a) or real(*a))
        rep = irreducibility_report(corpus_diagrams["fig1-krebes"])
        assert len(calls["numerator_closure"]) + len(calls["denominator_closure"]) == 2
        assert len(calls["link_determinant"]) == 2
        assert calls["fox_solution_space"] == []
        assert rep.krebes_gcd == krebes_gcd(corpus_diagrams["fig1-krebes"])

    def test_twist_built_flagged(self):
        rep = irreducibility_report(rational_tangle([2, 2]), twists=[2, 2])
        assert rep.fraction_reducible_hint
        assert str(rep.fraction) == "5/2"
        assert "reducible by construction" in rep.verdict
