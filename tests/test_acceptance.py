"""Acceptance suite: one test per criterion, one pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Every tolerance here is exact.
"""

import random
from itertools import product

from oracles import brute_fox_count, same_colored_arc_pairs
from tanglecert.braids import braid_closure
from tanglecert.colorings import (
    determinant,
    fox_solution_space,
    link_determinant,
)
from tanglecert.diagram import co_facial, components, faces, orient
from tanglecert.moves import apply_r1, apply_r2_over, apply_r3, find_r3_triangles, r2_transport
from tanglecert.persistence import (
    build_T_plus_Tstar,
    cut_arc_twice,
    cut_two_arcs,
    ensure_same_colored_pair,
    find_certificate,
    find_certificate_report,
    find_same_colored_pairs,
    krebes_gcd,
    verify_certificate,
)
from tanglecert.tangle import (
    denominator_closure,
    linking_sum,
    numerator_closure,
    rational_tangle,
    tangle_fraction,
)
from tanglecert.colorings import FoxColoring

MODULI = (2, 3, 4, 5, 6, 7)


def report(n, text):
    print(f"ACCEPTANCE {n:02d} PASS - {text}")


def test_criterion_01_counts_match_brute_force(corpus_diagrams):
    checked = 0
    for name, d in sorted(corpus_diagrams.items()):
        if len(d.crossings) > 8:
            continue
        for n in MODULI:
            assert fox_solution_space(d, n).count == brute_fox_count(d, n), (name, n)
            checked += 1
    assert checked >= 60
    report(1, f"solver counts equal exhaustive enumeration ({checked} diagram/modulus pairs)")


def test_criterion_02_determinants(corpus_diagrams):
    expected = {"trefoil": 3, "fig8-knot": 5, "6_2": 11, "8_16": 35}
    for name, det in expected.items():
        assert determinant(corpus_diagrams[name]) == det, name
    # divisibility anchors: the nontrivial colorings reported for these
    # knots force 5 | det(8_16) and 11 | det(6_2)
    assert determinant(corpus_diagrams["8_16"]) % 5 == 0
    assert determinant(corpus_diagrams["6_2"]) % 11 == 0
    report(2, "determinants 3, 5, 11, 35 with divisibility anchors")


def test_criterion_03_krebes_and_family(corpus_diagrams):
    cert = find_certificate(corpus_diagrams["fig1-krebes"])
    assert cert is not None and cert.kind == ("fox", 3)
    for p in (3, 5, 7):
        cert_p = find_certificate(corpus_diagrams[f"fig2-p{p}"])
        assert cert_p is not None and cert_p.kind == ("fox", p), p
    report(3, "Krebes tangle certified mod 3; twist-column family certified mod p")


def _emitted_certificates(corpus_diagrams, trefoil):
    """The certificates the other criteria construct, for soundness testing."""
    out = []
    for name in ("fig1-krebes", "fig2-p3", "fig2-p5", "fig2-p7", "fig5-t-plus-tstar"):
        t = corpus_diagrams[name]
        out.append((name, t, find_certificate(t)))
    c = fox_solution_space(trefoil, 3).first_nonconstant()
    t, cert = cut_arc_twice(trefoil, c, 1)
    out.append(("trefoil-cut-twice", t, cert))
    pair = [p for p in same_colored_arc_pairs(trefoil, c) if not co_facial(trefoil, *p)][0]
    t2, cert2, _ = cut_two_arcs(trefoil, c, *pair)
    out.append(("trefoil-two-arcs", t2, cert2))
    return out


def test_criterion_04_certificate_soundness(corpus_diagrams, trefoil):
    total_pass = 0
    for name, t, cert in _emitted_certificates(corpus_diagrams, trefoil):
        assert cert is not None, name
        rep = verify_certificate(t, cert, trials=100, seed=0)  # raises on any failure
        assert rep.passes + rep.skipped == rep.trials
        total_pass += rep.passes
    assert total_pass > 0
    report(4, f"every emitted certificate verified over 100 seeded hosts ({total_pass} knot closures checked)")


def test_criterion_05_transport_pipeline(trefoil):
    c = fox_solution_space(trefoil, 3).first_nonconstant()
    # each strand of the tricolored trefoil has its own color, so its same-colored
    # pairs lie on one strand; cut_two_arcs cuts those too
    assert find_same_colored_pairs(trefoil, c) == []
    pairs = [p for p in same_colored_arc_pairs(trefoil, c) if not co_facial(trefoil, *p)]
    assert pairs, "tricolored trefoil must have a same-colored non-co-facial pair"
    t, cert, moves = cut_two_arcs(trefoil, c, *pairs[0])
    assert len(moves) >= 1
    assert cert.kind == ("fox", 3)
    rep = verify_certificate(t, cert, trials=100, seed=5)
    assert rep.passes > 0 and rep.passes + rep.skipped == rep.trials
    report(5, f"transport-and-cut pipeline: {len(moves)} move(s), certificate mod 3, verified")


def test_criterion_06_linking_inflation(corpus_diagrams):
    d = corpus_diagrams["6_2"]
    c = fox_solution_space(d, 11).first_nonconstant()
    d2, c2, pair, _ = ensure_same_colored_pair(d, c)
    values = []
    for k in (1, 2, 3):
        t, cert, _ = cut_two_arcs(d2, c2, *pair, extra_passes=k)
        assert cert.kind == ("fox", 11), k
        rep = verify_certificate(t, cert, trials=40, seed=k)
        assert rep.passes + rep.skipped == rep.trials
        values.append(abs(linking_sum(orient(t))))
    assert values[0] > 0 and values[0] < values[1] < values[2]
    report(6, f"|linking| strictly increases with extra passes: {values}, certificate mod 11 kept")


def test_criterion_07_negative_controls(corpus_diagrams):
    fig9 = corpus_diagrams["fig9-tangle"]
    rep9 = find_certificate_report(fig9, moduli=[2, 3, 5, 7, 11, 13])
    assert rep9.certificate is None
    clashes = [e["clash"] for e in rep9.entries if "clash" in e]
    assert clashes, "expected a forced-equal-arcs witness"
    fig8 = corpus_diagrams["fig8-tangle"]
    assert krebes_gcd(fig8) == 1
    primes = [p for p in range(2, 98) if all(p % q for q in range(2, p))]
    rep8 = find_certificate_report(fig8, moduli=primes)
    assert rep8.certificate is None
    report(7, f"no certificates: clash witness {clashes[0]} and gcd-1 obstruction confirmed")


def test_criterion_08_move_invariance():
    rng = random.Random(2024)
    diagrams = []
    while len(diagrams) < 100:
        strands = rng.choice([2, 3, 3, 4])
        word = [
            rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(1, 8))
        ]
        d = braid_closure(word, strands)
        if len(d.crossings) <= 8:
            diagrams.append(d)
    moves_done = {"R1": 0, "R2": 0, "R3": 0, "transport": 0}
    for d in diagrams:
        base = {n: fox_solution_space(d, n).count for n in MODULI}
        arcs = sorted(d.arcs())
        d1, _ = apply_r1(d, rng.choice(arcs), positive=rng.random() < 0.5)
        assert {n: fox_solution_space(d1, n).count for n in MODULI} == base
        moves_done["R1"] += 1
        eligible = [f for f in faces(d) if len(f.arcs) >= 2 and f.corners]
        if eligible:
            f = rng.choice(eligible)
            m, t = rng.sample(sorted(f.arcs), 2)
            d2, _ = apply_r2_over(d, m, t)
            assert {n: fox_solution_space(d2, n).count for n in MODULI} == base
            moves_done["R2"] += 1
        tris = find_r3_triangles(d)
        if tris:
            d3, _ = apply_r3(d, rng.choice(tris))
            assert {n: fox_solution_space(d3, n).count for n in MODULI} == base
            moves_done["R3"] += 1
        if len(components(d)) == 1 and len(arcs) >= 2:
            s, t = rng.sample(arcs, 2)
            res = r2_transport(d, FoxColoring(5, {a: 0 for a in arcs}), s, t)
            assert determinant(res.diagram) == determinant(d)
            moves_done["transport"] += 1
    assert moves_done["R1"] == 100 and moves_done["R2"] >= 90
    assert moves_done["R3"] >= 20 and moves_done["transport"] >= 15
    report(8, f"coloring counts invariant under moves on 100 diagrams ({moves_done})")


def test_criterion_09_rational_calculus():
    checked = 0
    for length in (1, 2, 3, 4):
        for w in product([-3, -2, -1, 0, 1, 2, 3], repeat=length):
            f = tangle_fraction(list(w))
            t = rational_tangle(list(w))
            dets = sorted(
                (
                    link_determinant(numerator_closure(t)),
                    link_determinant(denominator_closure(t)),
                )
            )
            assert dets == sorted((abs(f.p), abs(f.q))), w
            checked += 1
    report(9, f"closure determinants match fraction numerators/denominators ({checked} vectors)")


def test_criterion_10_t_plus_tstar():
    # Sampled fractions p/q keep q odd and >= 3: an integer tangle plus its
    # mirror cancels to the zero tangle (no certificate can exist), and an
    # even denominator leaves a closed component in the sum, so no closure
    # is ever a knot and verification would be vacuous.
    rng = random.Random(42)
    samples = []
    while len(samples) < 20:
        w = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(2, 4))]
        f = tangle_fraction(w)
        if f.is_zero or f.is_infinity or f.q < 3 or f.q % 2 == 0:
            continue
        samples.append(w)
    verified = 0
    for w in samples:
        s, cert = build_T_plus_Tstar(w)
        rep = verify_certificate(s, cert, trials=100, seed=10)
        assert rep.passes + rep.skipped == rep.trials
        assert rep.passes > 0, w
        verified += rep.passes
    report(10, f"20 random twist vectors certified and verified ({verified} knot closures)")
