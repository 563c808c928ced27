"""The one-loop quandle coloring search against the recursive reference.

quandle_colorings must return the colorings of
oracles.reference_quandle_colorings in the same order, the same complete
flag, and the same exception type and message, on seeded braid closures
with dihedral quandles, the 1-element quandle and a non-involutory
Alexander quandle, with pins and with caps that truncate.
"""

import random

import pytest

from oracles import reference_quandle_colorings
from tanglecert.braids import braid_closure
from tanglecert.colorings import ColoringError, Quandle, dihedral, quandle_colorings
from tanglecert.diagram import orient, parse_diagram

# a * b = 2a - b mod 5, the Alexander quandle on Z/5 with t = 2: not involutory
ALEXANDER = Quandle(tuple(tuple((2 * a - b) % 5 for b in range(5)) for a in range(5)), "alexander-5")
TRIVIAL = Quandle(((0,),), "trivial")


def random_closure(rng, strands, crossings):
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
    return braid_closure(word, strands)


RNG = random.Random(2027)
CLOSURES = [random_closure(RNG, RNG.randint(2, 5), RNG.randint(1, 14)) for _ in range(30)]
IDS = [f"c{i}" for i in range(len(CLOSURES))]


def outcome(search, d, q, pins=None, cap=10 ** 6):
    try:
        res = search(d, q, pins, cap)
    except Exception as exc:
        return type(exc), str(exc)
    return [c.colors for c in res], res.complete


def cases(d):
    """(diagram, quandle, pins, cap) for one closure."""
    arcs = sorted(d.arcs())
    over = d.crossings[0].slots[1::2]  # two labels of one strand
    out = []
    for q in (dihedral(3), dihedral(5), TRIVIAL):
        out += [(d, q, None, 10 ** 6), (d, q, None, 0), (d, q, None, 1), (d, q, None, 5)]
    oriented = orient(d)
    out += [(oriented, ALEXANDER, None, 10 ** 6), (oriented, ALEXANDER, None, 3)]
    out.append((d, ALEXANDER, None, 10 ** 6))  # unoriented: both raise
    for q, dd in ((dihedral(3), d), (ALEXANDER, oriented)):
        out += [
            (dd, q, {arcs[0]: 1}, 10 ** 6),
            (dd, q, {arcs[0]: 0, arcs[-1]: 2}, 10 ** 6),
            (dd, q, {over[0]: 2, over[1]: 2}, 10 ** 6),
            (dd, q, {over[0]: 0, over[1]: 1}, 10 ** 6),  # two pins clash on one strand
            (dd, q, {arcs[-1]: 1}, 2),
            (dd, q, {10 ** 6: 0}, 10 ** 6),  # not an arc
            (dd, q, {arcs[0]: q.size}, 10 ** 6),  # not a quandle element
            (dd, q, {arcs[0]: -1}, 10 ** 6),
        ]
    return out


@pytest.mark.parametrize("d", CLOSURES, ids=IDS)
def test_search_matches_the_recursive_reference(d):
    for dd, q, pins, cap in cases(d):
        assert outcome(quandle_colorings, dd, q, pins, cap) == outcome(
            reference_quandle_colorings, dd, q, pins, cap
        ), (q.name, pins, cap)


def test_the_inputs_hold_nonconstant_colorings_and_both_crossing_signs():
    oriented = [orient(d) for d in CLOSURES]
    assert {x.sign for d in oriented for x in d.crossings} == {-1, 1}
    assert sum(len(quandle_colorings(d, ALEXANDER)) > 5 for d in oriented) >= 10
    assert sum(len(quandle_colorings(d, dihedral(5))) > 5 for d in CLOSURES) >= 10


def test_every_pin_is_checked_before_any_is_assigned(trefoil):
    # pins 4 and 5 lie on one strand and clash; the reference returns the
    # empty search before it reaches the unknown arc, the loop raises
    pins = {4: 0, 5: 1, 99: 0}
    assert len(reference_quandle_colorings(trefoil, dihedral(3), pins)) == 0
    with pytest.raises(ColoringError, match="pinned arc 99 is not in the diagram"):
        quandle_colorings(trefoil, dihedral(3), pins)


def test_many_circles_do_not_deepen_the_call_stack():
    d = parse_diagram(" ; ".join(f"O {k}" for k in range(1, 1201)))
    res = quandle_colorings(d, dihedral(3), cap=5)
    assert len(res) == 5 and not res.complete
    assert [c.colors[1199] for c in res] == [0, 0, 0, 1, 1]
    assert [c.colors[1200] for c in res] == [0, 1, 2, 0, 1]
