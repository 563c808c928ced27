"""The strand walk and the face-orbit reads against their references.

components, orient, _flow's crossing signs, a tangle's connectivity and
linking sum read one walk over the dart pairing; co_facial, _far_ends and
the transport's face path read the face ids and face orbits that validate
keeps.  Each must agree with the version it replaced in tests/oracles.py:
a dict union-find, a walk of its own, a label -> component dict, the Face
list of faces(), and a scan over every face orbit.  Asking co_facial pair
by pair, as the callers of find_same_colored_pairs do, must drop the pairs
that the face-by-face collection drops.  The tangles are the 2-tangles
among the inputs and the cut_two_arcs tangles of the corpus knots, with 0
to 3 spiral passes.
"""

import random
import re
from itertools import combinations, permutations
from pathlib import Path

import pytest

from oracles import (
    reference_co_facial,
    reference_components,
    reference_connectivity,
    reference_far_ends,
    reference_first_step_arc,
    reference_linking_sum,
    reference_non_cofacial_pairs,
    reference_orient,
    same_colored_arc_pairs,
    reference_r2_transport,
)
from tanglecert.braids import braid_closure
from tanglecert.colorings import FoxColoring, fox_solution_space
from tanglecert.diagram import (
    _far_ends,
    _flow,
    _strands,
    co_facial,
    components,
    orient,
    parse_diagram,
    unoriented,
)
from tanglecert.moves import MoveError, _first_step_arc, r2_transport
from tanglecert.persistence import cut_arc_once, cut_two_arcs, find_same_colored_pairs
from tanglecert.tangle import (
    connectivity,
    infinity_tangle,
    linking_sum,
    mirror,
    numerator_closure,
    rational_tangle,
    tangle_add,
    zero_tangle,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
TREFOIL = "X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3"


def random_closure(rng, strands, crossings):
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
    return braid_closure(word, strands)


RNG = random.Random(41)
CLOSURES = [random_closure(RNG, RNG.randint(2, 5), RNG.randint(1, 30)) for _ in range(25)]


def diagrams():
    out = [parse_diagram(p.read_text()) for p in sorted(CORPUS.glob("*.pd"))] + CLOSURES
    for twists in ([2, 1], [3], [1, 2, 1], [2, 2], [3, 1, 2], [-2, 3]):
        t = rational_tangle(twists)
        out += [t, tangle_add(t, mirror(t))]
    trefoil = parse_diagram(TREFOIL)
    out += [
        zero_tangle(),
        infinity_tangle(),
        numerator_closure(zero_tangle()),  # two crossing-free circles
        parse_diagram("O 1 ; O 2 ; O 3 ; O 4"),
        parse_diagram(TREFOIL + " ; O 7"),
        parse_diagram("B 1 1"),
        cut_arc_once(trefoil, 1),
        braid_closure([1, -1, 3, 3, 3], 5),  # a kink, a Hopf link and a circle
    ]
    return out


DIAGRAMS = diagrams()
IDS = [f"d{i}" for i in range(len(DIAGRAMS))]


def cut_tangles():
    """cut_two_arcs of the first and last same-colored pair of each colorable
    corpus knot (the first nonconstant coloring mod 3, 5, 7, 11 or 13), with
    0 to 3 spiral passes."""
    out = []
    for p in sorted(CORPUS.glob("*.pd")):
        d = parse_diagram(p.read_text())
        if d.boundary or len(components(d)) != 1:
            continue
        spaces = (fox_solution_space(d, n) for n in (3, 5, 7, 11, 13))
        c = next((c for space in spaces if (c := space.first_nonconstant())), None)
        if c is None:
            continue
        pairs = same_colored_arc_pairs(d, c)
        for pair in pairs[:1] + pairs[-1:]:
            out += [cut_two_arcs(d, c, *pair, extra_passes=k)[0] for k in range(4)]
    return out


CUTS = cut_tangles()
CUT_IDS = [f"c{i}" for i in range(len(CUTS))]
TANGLES = [d for d in DIAGRAMS if len(d.boundary) == 4] + CUTS
TANGLE_IDS = [f"t{i}" for i in range(len(TANGLES))]


def test_the_inputs_hold_multi_component_links_and_circles():
    assert sum(len(components(d)) > 1 and len(d.crossings) > 0 for d in CLOSURES) >= 5
    assert sum(bool(d.circles) for d in DIAGRAMS) >= 5
    assert sum(len(d.boundary) == 4 for d in DIAGRAMS) >= 14
    assert len(TANGLES) >= 40 and sum(abs(linking_sum(orient(t))) >= 2 for t in TANGLES) >= 5


@pytest.mark.parametrize("d", DIAGRAMS, ids=IDS)
def test_components_match_the_union_find(d):
    assert components(d) == reference_components(d)


@pytest.mark.parametrize("d", DIAGRAMS, ids=IDS)
def test_orient_matches_the_reference_walk(d):
    plain = unoriented(d) if d.crossings else d
    assert orient(plain) == reference_orient(plain)


@pytest.mark.parametrize("d", DIAGRAMS + CUTS, ids=IDS + CUT_IDS)
def test_flow_signs_are_the_signs_orient_gives(d):
    plain = unoriented(d) if d.crossings else d
    _, signs = _flow(plain, _strands(plain)[1])
    assert signs == [c.sign for c in reference_orient(plain).crossings]


@pytest.mark.parametrize("t", TANGLES, ids=TANGLE_IDS)
def test_connectivity_and_linking_sum_match_the_component_reading(t):
    assert connectivity(t) == reference_connectivity(t)
    oriented = orient(t)
    assert linking_sum(oriented) == reference_linking_sum(oriented)


@pytest.mark.parametrize("d", DIAGRAMS, ids=IDS)
def test_co_facial_matches_the_face_list_on_every_pair(d):
    for a1, a2 in combinations(sorted(d.arcs()), 2):
        assert co_facial(d, a1, a2) == reference_co_facial(d, a1, a2), (a1, a2)


@pytest.mark.parametrize("d", DIAGRAMS, ids=IDS)
def test_far_ends_match_the_orbit_scan_on_every_pair(d):
    arcs = sorted(d.arcs())
    for pair in [[a] for a in arcs] + [list(p) for p in combinations(arcs, 2)]:
        assert _far_ends(d, pair) == reference_far_ends(d, pair), pair


@pytest.mark.parametrize("d", DIAGRAMS, ids=IDS)
def test_non_cofacial_pairs_match_co_facial_on_every_pair(d):
    colorings = [FoxColoring(3, {a: 0 for a in d.arcs()})]  # every pair shares a color
    nonconstant = fox_solution_space(d, 3).first_nonconstant()
    if nonconstant is not None:
        colorings.append(nonconstant)
    for c in colorings:
        pairs = find_same_colored_pairs(d, c)
        assert [p for p in pairs if not co_facial(d, *p)] == reference_non_cofacial_pairs(d, pairs)


def first_step(step_arc, d, mover, dest):
    try:
        return step_arc(d, mover, dest)
    except MoveError as exc:
        return str(exc)


@pytest.mark.parametrize("d", DIAGRAMS, ids=IDS)
def test_first_step_arc_matches_the_face_list(d):
    rng = random.Random(len(d.crossings))
    pairs = list(permutations(sorted(d.arcs()), 2))
    for mover, dest in rng.sample(pairs, min(len(pairs), 300)):
        expected = (
            None
            if reference_co_facial(d, mover, dest)
            else first_step(reference_first_step_arc, d, mover, dest)
        )
        assert first_step(_first_step_arc, d, mover, dest) == expected, (mover, dest)


def transport_cases():
    """(diagram, coloring, source, dest) with arcs that share no face: knots,
    links and two T+T* tangles, seeded."""
    rng = random.Random(7)
    cases = []
    while len(cases) < 24:
        d = random_closure(rng, rng.randint(2, 4), rng.randint(3, 20))
        apart = [p for p in combinations(sorted(d.arcs()), 2) if not reference_co_facial(d, *p)]
        if not apart:
            continue
        coloring = next(
            (c for n in (3, 5, 7) if (c := fox_solution_space(d, n).first_nonconstant())),
            FoxColoring(5, {a: 0 for a in d.arcs()}),
        )
        cases.append((d, coloring, *rng.choice(apart)[:: rng.choice((1, -1))]))
    for twists in ([2, 1], [3, 1, 2]):
        t = rational_tangle(twists)
        s = tangle_add(t, mirror(t))
        coloring = FoxColoring(3, {a: 0 for a in s.arcs()})
        arcs = sorted(s.arcs())
        cases.append((s, coloring, arcs[0], arcs[-1]))
    return cases


TRANSPORT = transport_cases()


@pytest.mark.parametrize("case", TRANSPORT, ids=[f"t{i}" for i in range(len(TRANSPORT))])
def test_r2_transport_matches_the_reference(case):
    d, coloring, source, dest = case
    try:
        expected = reference_r2_transport(d, coloring, source, dest)
    except MoveError as exc:
        with pytest.raises(MoveError, match=re.escape(str(exc))):
            r2_transport(d, coloring, source, dest)
        return
    res = r2_transport(d, coloring, source, dest)
    assert (res.diagram, res.coloring, res.segment, res.records) == expected


def test_most_transport_cases_take_moves():
    moved = 0
    for d, coloring, source, dest in TRANSPORT:
        try:
            moved += len(r2_transport(d, coloring, source, dest).records) > 0
        except MoveError:
            pass
    assert moved >= 20
