"""Affine quandle colorings by elimination against the search they replaced.

quandle_space solves an affine quandle (a * b = t*a + (1-t)*b mod n) by
one linalg.solve_mod call, which gives its count; for prime n the same
solve lists the colorings.  Its listing must be that of
oracles.reference_quandle_colorings in the same order (every prefix taken
with islice the reference's prefix), with the same count, the same first
nonconstant coloring and the same exceptions: on seeded braid closures,
Alexander quandles on their oriented copies (both crossing signs) and
dihedral ones on the unoriented closures, with pins and with short
prefixes.  Composite orders and non-affine tables are listed by the search.
"""

import pickle
import random
from itertools import islice

import pytest

from oracles import reference_quandle_colorings
from tanglecert import colorings, linalg
from tanglecert.braids import braid_closure
from tanglecert.colorings import (
    ColoringError,
    Quandle,
    QuandleColoring,
    dihedral,
    fox_solution_space,
    quandle_space,
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


def outcome(d, q, pins=None, caps=CAPS):
    """quandle_space's first `cap` colorings for each cap, its count and its
    first nonconstant coloring, or the type and message of what it raised."""
    try:
        space = quandle_space(d, q, pins)
        first = space.first_nonconstant()
        prefixes = [[c.colors for c in islice(space.colorings(), cap)] for cap in caps]
        return prefixes, space.count, first and first.colors
    except Exception as exc:
        return type(exc), str(exc)


def reference(d, q, pins=None, caps=CAPS):
    """The same three read off the reference's full listing."""
    try:
        listed = [c.colors for c in reference_quandle_colorings(d, q, pins)]
    except Exception as exc:
        return type(exc), str(exc)
    first = next((c for c in listed if len(set(c.values())) >= 2), None)
    return [listed[:cap] for cap in caps], len(listed), first


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
                    assert outcome(dd, q, pins) == reference(dd, q, pins), (q.name, pins)


def test_the_grid_holds_nonconstant_colorings_truncation_and_both_signs():
    oriented = [orient(d) for d in CLOSURES]
    assert {x.sign for d in oriented for x in d.crossings} == {-1, 1}
    assert sum(quandle_space(d, alexander(7, 3)).count > 7 for d in oriented) >= 5
    assert sum(quandle_space(d, alexander(11, 5)).count > 11 for d in oriented) >= 5
    assert sum(quandle_space(d, dihedral(3)).count > 5 for d in CLOSURES) >= 20


def test_affine_recognition_is_kept_once():
    assert [q._affine for q in ALEXANDERS[:4]] == [2, 2, 3, 4]
    assert dihedral(7)._affine == 6 and dihedral(2)._affine == 1
    assert dihedral(4)._affine == 3 and dihedral(6)._affine == 5 and alexander(9, 4)._affine == 4
    assert NOT_AFFINE._affine is None
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
    list(quandle_space(d, q, pins={1: 0}).colorings())
    assert len(solves) == want


@pytest.mark.parametrize(
    "q,want_solves,want_walks",
    [(dihedral(3), 1, 0), (dihedral(4), 1, 0), (alexander(9, 4), 1, 0), (NOT_AFFINE, 0, 1)],
    ids=["dihedral-3", "dihedral-4", "alexander-9-4", "not-affine"],
)
def test_only_a_non_affine_count_walks_the_search(solves, monkeypatch, q, want_solves, want_walks):
    walks = []
    real = colorings._search
    monkeypatch.setattr(colorings, "_search", lambda *args: walks.append(args) or real(*args))
    d = orient(braid_closure([1, -2, 1, -2], 3))
    space = quandle_space(d, q, pins={1: 0})
    assert space.count == len(reference_quandle_colorings(d, q, {1: 0}))
    assert (len(solves), len(walks)) == (want_solves, want_walks)


COMPOSITE = [dihedral(n) for n in (4, 6, 8, 9)] + [alexander(n, t) for n, t in ((9, 2), (8, 3), (10, 3), (6, 5), (9, 4))]


def test_composite_and_non_affine_quandles_still_match_the_reference():
    for d in CLOSURES[:30]:
        oriented = orient(d)
        for q in COMPOSITE + [NOT_AFFINE]:
            dd = d if q.involutory else oriented
            for pins in pin_sets(dd, q):
                assert outcome(dd, q, pins, (10 ** 6, 2)) == reference(dd, q, pins, (10 ** 6, 2)), (q.name, pins)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_dihedral_counts_equal_fox_counts(p):
    rng = random.Random(p)
    for d in CLOSURES[:40]:
        mapping = dict(zip(sorted(d.arcs()), rng.sample(range(1, 10 * len(d.arcs()) + 1), len(d.arcs()))))
        for dd in (d, orient(d), relabel(d, mapping)):
            assert quandle_space(dd, dihedral(p)).count == fox_solution_space(dd, p).count


def test_torus_knot_t35_by_alexander_31_7():
    # det 1, so no Fox coloring; the Alexander polynomial vanishes at t = 7 mod 31
    d = orient(braid_closure([1, 2] * 5, 3))
    space = quandle_space(d, alexander(31, 7))
    res = list(space.colorings())
    assert len(res) == space.count == 961
    assert sum(c.nontrivial for c in res) == 930
    assert all(verify_coloring(d, c) for c in res[::97])
    assert space.first_nonconstant() == next(c for c in res if c.nontrivial)


class TestCrossingFreeDiagrams:
    """A diagram without crossings has no orientation to read and needs none."""

    def test_non_involutory_quandle_colors_the_unknot(self):
        unknot = parse_diagram("O 1")
        assert not unknot.oriented
        assert outcome(unknot, alexander(5, 2), caps=(9,)) == reference(unknot, alexander(5, 2), caps=(9,)) == (
            [[{1: v} for v in range(5)]], 5, None
        )

    def test_non_involutory_coloring_of_the_unknot_verifies(self):
        unknot = parse_diagram("O 1")
        assert verify_coloring(unknot, QuandleColoring(alexander(5, 2), {1: 3}))
        with pytest.raises(ColoringError, match="outside the quandle"):
            verify_coloring(unknot, QuandleColoring(alexander(5, 2), {1: 5}))

    def test_an_unoriented_diagram_with_crossings_is_still_refused(self, trefoil):
        with pytest.raises(ColoringError, match="orientation required"):
            quandle_space(trefoil, alexander(5, 2))
        with pytest.raises(ColoringError, match="orientation required"):
            verify_coloring(trefoil, QuandleColoring(alexander(5, 2), {a: 0 for a in trefoil.arcs()}))
