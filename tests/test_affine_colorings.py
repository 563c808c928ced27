"""Affine quandle colorings by elimination against the search they replaced.

quandle_colorings solves an affine quandle of prime order p (a * b =
t*a + (1-t)*b mod p) by one linalg.solve_mod call.  It must return the
colorings of oracles.reference_quandle_colorings in the same order, with
the same complete flag and the same exceptions: on seeded braid closures,
Alexander quandles on their oriented copies (both crossing signs) and
dihedral ones on the unoriented closures, with pins and with caps that
truncate.  Every other quandle is still searched.
"""

import pickle
import random

import pytest

from oracles import reference_quandle_colorings
from tanglecert import linalg
from tanglecert.braids import braid_closure
from tanglecert.colorings import (
    ColoringError,
    Quandle,
    QuandleColoring,
    dihedral,
    fox_solution_space,
    quandle_colorings,
    verify_coloring,
)
from tanglecert.diagram import orient, parse_diagram, relabel


def alexander(p, t):
    table = tuple(tuple((t * a + (1 - t) * b) % p for b in range(p)) for a in range(p))
    return Quandle(table, f"alexander-{p}-{t}")


# dihedral(5) with the elements 0 and 1 swapped: a quandle, but not affine as written
SWAP = (1, 0, 2, 3, 4)
NOT_AFFINE = Quandle(tuple(tuple(SWAP[(2 * SWAP[b] - SWAP[a]) % 5] for b in range(5)) for a in range(5)))

ALEXANDERS = [alexander(p, t) for p in (2, 3, 5, 7, 11) for t in range(2, p)]
DIHEDRALS = [dihedral(p) for p in (2, 3, 5, 7)]
CAPS = (10 ** 6, 0, 1, 5)

RNG = random.Random(2029)
CLOSURES = []
for _ in range(150):
    strands = RNG.randint(2, 4)
    word = [RNG.choice((1, -1)) * RNG.randint(1, strands - 1) for _ in range(RNG.randint(1, 10))]
    CLOSURES.append(braid_closure(word, strands))
CHUNKS = [CLOSURES[i:i + 15] for i in range(0, len(CLOSURES), 15)]


def outcome(search, d, q, pins=None, cap=10 ** 6):
    try:
        res = search(d, q, pins, cap)
    except Exception as exc:
        return type(exc), str(exc)
    return [c.colors for c in res], res.complete


def pin_sets(d, q):
    """No pins, one pin, and two pins (which clash when both arcs share a strand)."""
    arcs = sorted(d.arcs())
    return (None, {arcs[0]: 1}, {arcs[0]: 0, arcs[-1]: q.size - 1})


@pytest.mark.parametrize("chunk", CHUNKS, ids=[f"closures{i * 15}-{i * 15 + 14}" for i in range(len(CHUNKS))])
def test_elimination_matches_the_search(chunk):
    for d in chunk:
        oriented = orient(d)
        for dd, quandles in ((oriented, ALEXANDERS), (d, DIHEDRALS)):
            for q in quandles:
                for pins in pin_sets(dd, q):
                    for cap in CAPS:
                        assert outcome(quandle_colorings, dd, q, pins, cap) == outcome(
                            reference_quandle_colorings, dd, q, pins, cap
                        ), (q.name, pins, cap)


def test_the_grid_holds_nonconstant_colorings_truncation_and_both_signs():
    oriented = [orient(d) for d in CLOSURES]
    assert {x.sign for d in oriented for x in d.crossings} == {-1, 1}
    assert sum(len(quandle_colorings(d, alexander(7, 3))) > 7 for d in oriented) >= 5
    assert sum(len(quandle_colorings(d, alexander(11, 5))) > 11 for d in oriented) >= 5
    assert sum(not quandle_colorings(d, dihedral(3), cap=5).complete for d in CLOSURES) >= 20


def test_affine_recognition_is_kept_once():
    assert [q._affine for q in ALEXANDERS[:4]] == [2, 2, 3, 4]
    assert dihedral(7)._affine == 6 and dihedral(2)._affine == 1
    assert dihedral(4)._affine is None and NOT_AFFINE._affine is None
    assert Quandle(((0,),))._affine is None
    assert dihedral(5).involutory and not alexander(5, 2).involutory
    assert {"involutory", "_affine", "_inverse"} <= set(vars(dihedral(5)))


def test_kept_attributes_leave_equality_and_pickling_alone():
    q = alexander(7, 3)
    copy = pickle.loads(pickle.dumps(q))
    assert copy == q and hash(copy) == hash(q)
    assert (copy.involutory, copy._affine) == (q.involutory, q._affine)
    assert alexander(7, 3) == q and alexander(7, 3) != alexander(7, 2)


@pytest.fixture
def solves(monkeypatch):
    calls = []
    real = linalg.solve_mod

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, "solve_mod", spy)
    return calls


@pytest.mark.parametrize(
    "q,want",
    [(dihedral(3), 1), (alexander(7, 3), 1), (dihedral(4), 0), (NOT_AFFINE, 0)],
    ids=["dihedral-3", "alexander-7-3", "dihedral-4", "not-affine"],
)
def test_only_prime_affine_quandles_are_solved(solves, q, want):
    d = orient(braid_closure([1, -2, 1, -2], 3))
    quandle_colorings(d, q, pins={1: 0})
    assert len(solves) == want


def test_composite_and_non_affine_quandles_still_match_the_reference():
    for d in CLOSURES[:30]:
        oriented = orient(d)
        for q, dd in ((dihedral(4), d), (dihedral(6), d), (NOT_AFFINE, d), (alexander(9, 4), oriented)):
            for cap in (10 ** 6, 2):
                assert outcome(quandle_colorings, dd, q, None, cap) == outcome(
                    reference_quandle_colorings, dd, q, None, cap
                ), (q.name, cap)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dihedral_counts_equal_fox_counts(p):
    rng = random.Random(p)
    for d in CLOSURES[:40]:
        mapping = dict(zip(sorted(d.arcs()), rng.sample(range(1, 10 * len(d.arcs()) + 1), len(d.arcs()))))
        for dd in (d, orient(d), relabel(d, mapping)):
            assert len(quandle_colorings(dd, dihedral(p))) == fox_solution_space(dd, p).count


def test_torus_knot_t35_by_alexander_31_7():
    # det 1, so no Fox coloring; the Alexander polynomial vanishes at t = 7 mod 31
    d = orient(braid_closure([1, 2] * 5, 3))
    res = quandle_colorings(d, alexander(31, 7))
    assert len(res) == 961 and res.complete
    assert sum(c.nontrivial for c in res) == 930
    assert all(verify_coloring(d, c) for c in res.colorings[::97])


class TestCrossingFreeDiagrams:
    """A diagram without crossings has no orientation to read and needs none."""

    def test_non_involutory_quandle_colors_the_unknot(self):
        unknot = parse_diagram("O 1")
        assert not unknot.oriented
        res = quandle_colorings(unknot, alexander(5, 2))
        assert [c.colors for c in res] == [{1: v} for v in range(5)] and res.complete
        assert outcome(reference_quandle_colorings, unknot, alexander(5, 2)) == (
            [{1: v} for v in range(5)], True
        )

    def test_non_involutory_coloring_of_the_unknot_verifies(self):
        unknot = parse_diagram("O 1")
        assert verify_coloring(unknot, QuandleColoring(alexander(5, 2), {1: 3}))
        with pytest.raises(ColoringError, match="outside the quandle"):
            verify_coloring(unknot, QuandleColoring(alexander(5, 2), {1: 5}))

    def test_an_unoriented_diagram_with_crossings_is_still_refused(self, trefoil):
        with pytest.raises(ColoringError, match="orientation required"):
            quandle_colorings(trefoil, alexander(5, 2))
        with pytest.raises(ColoringError, match="orientation required"):
            verify_coloring(trefoil, QuandleColoring(alexander(5, 2), {a: 0 for a in trefoil.arcs()}))
