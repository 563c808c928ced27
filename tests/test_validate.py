"""The integer-dart validator against the tuple-keyed reference validator.

validate() must accept and reject exactly what oracles.reference_validate
does, with the same exception type and message, and its faces must be the
reference's face orbits in the same order: face id f holds exactly the
darts of reference orbit f, and faces() walks them in the reference's
order.  find_r3_triangles must pick the triangles the old filter over
every reference orbit picks.  The one exception is a label
that is not an integer below 2**31, which the kept dart index cannot hold.
Every public constructor must return a diagram that passes validation from
scratch, since validation runs once per Diagram object and internal
intermediates are never validated.
"""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_face_orbits, reference_r3_triangles, reference_validate
from tanglecert import diagram
from tanglecert.braids import braid_closure
from tanglecert.colorings import fox_solution_space
from tanglecert.diagram import (
    ArcOccurrenceError,
    Crossing,
    Diagram,
    DiagramError,
    _CAP,
    _darts,
    _place,
    components,
    faces,
    orient,
    parse_diagram,
    validate,
)
from tanglecert.moves import apply_r1, apply_r2_over, apply_r3, find_r3_triangles, undo_move
from tanglecert.persistence import build_T_plus_Tstar, cut_arc_once, cut_arc_twice, cut_two_arcs
from tanglecert.tangle import (
    close_one_tangle,
    denominator_closure,
    infinity_tangle,
    insert_into_host,
    mirror,
    numerator_closure,
    rational_tangle,
    rotate90,
    tangle_add,
    zero_tangle,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
TREFOIL = "X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3"


def fresh(d):
    """The same diagram as a new object, without a validation marker."""
    return Diagram(d.crossings, d.circles, d.boundary)


def outcome(check, d):
    try:
        check(d)
    except DiagramError as exc:
        return type(exc), str(exc)
    return None


def assert_agrees_with_reference(d):
    expected = outcome(reference_validate, d)
    assert outcome(validate, fresh(d)) == expected, d
    if expected is None:
        orbits = reference_face_orbits(d)
        ids = {place: f for f, orbit in enumerate(orbits) for place in orbit}
        face = _darts(d)[3]
        assert [ids[_place(d, j)] for j in range(len(face))] == list(face)
        walked = [tuple(p for p in orbit if p[0] != _CAP) for orbit in orbits]
        assert [f.corners for f in faces(d)[: len(orbits)]] == walked


def random_closure(rng, strands, crossings):
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
    return braid_closure(word, strands)


def base_diagrams():
    rng = random.Random(20)
    out = [parse_diagram(p.read_text()) for p in sorted(CORPUS.glob("*.pd"))]
    out += [random_closure(rng, rng.randint(2, 5), rng.randint(1, 40)) for _ in range(25)]
    for twists in ([2, 1], [3], [1, 2, 1], [2, 2], [3, 1, 2], [-2, 3]):
        t = rational_tangle(twists)
        out += [t, tangle_add(t, mirror(t))]
    out.append(numerator_closure(zero_tangle()))  # two crossing-free circles
    out.append(cut_arc_once(parse_diagram(TREFOIL), 1))
    out += [orient(d) for d in out[:30]]
    return out


BASES = base_diagrams()


@pytest.mark.parametrize("index", range(len(BASES)))
def test_bases_agree_with_reference(index):
    assert reference_validate(BASES[index]) is None
    assert_agrees_with_reference(BASES[index])


def test_r3_triangles_match_the_filter_over_reference_orbits():
    rng = random.Random(33)
    closures = [random_closure(rng, 3, rng.randint(3, 30)) for _ in range(60)]
    # cut open, a knot has three-cornered faces on the boundary cap, which are no triangles
    cut = [cut_arc_once(d, min(d.arcs())) for d in closures if len(components(d)) == 1]
    assert len(cut) >= 10
    found = 0
    for d in BASES + closures + cut:
        triangles = find_r3_triangles(d)
        assert triangles == reference_r3_triangles(d), d
        found += len(triangles)
    assert found >= 20


def places(d):
    return [("x", ci, s) for ci in range(len(d.crossings)) for s in range(4)] + [
        ("b", bi, 0) for bi in range(len(d.boundary))
    ]


def read(crossings, boundary, place):
    kind, i, s = place
    return crossings[i][0][s] if kind == "x" else boundary[i]


def write(crossings, boundary, place, label):
    kind, i, s = place
    if kind == "x":
        crossings[i][0][s] = label
    else:
        boundary[i] = label


@st.composite
def mutated(draw):
    """A base diagram with one to three local edits to its rotation system."""
    d = BASES[draw(st.integers(0, len(BASES) - 1))]
    crossings = [[list(c.slots), c.sign] for c in d.crossings]
    boundary = list(d.boundary)
    for _ in range(draw(st.integers(1, 3))):
        kinds = ["swap_slots", "permute_boundary", "exchange", "overwrite", "merge", "flip_sign"]
        kind = draw(st.sampled_from(kinds))
        spots = places(Diagram(tuple(Crossing(tuple(s), g) for s, g in crossings), d.circles, tuple(boundary)))
        if kind == "swap_slots" and crossings:
            slots = crossings[draw(st.integers(0, len(crossings) - 1))][0]
            a, b = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
            slots[a], slots[b] = slots[b], slots[a]
        elif kind == "permute_boundary" and boundary:
            boundary = draw(st.permutations(boundary))
        elif kind == "exchange" and len(spots) >= 2:
            p, q = draw(st.lists(st.sampled_from(spots), min_size=2, max_size=2, unique=True))
            x, y = read(crossings, boundary, p), read(crossings, boundary, q)
            write(crossings, boundary, p, y)
            write(crossings, boundary, q, x)
        elif kind == "overwrite" and len(spots) >= 2:
            p, q = draw(st.lists(st.sampled_from(spots), min_size=2, max_size=2, unique=True))
            write(crossings, boundary, p, read(crossings, boundary, q))
        elif kind == "merge" and len(spots) >= 2:  # every place of one label takes another's
            p, q = draw(st.lists(st.sampled_from(spots), min_size=2, max_size=2, unique=True))
            x, y = read(crossings, boundary, p), read(crossings, boundary, q)
            for spot in spots:
                if read(crossings, boundary, spot) == x:
                    write(crossings, boundary, spot, y)
        elif kind == "flip_sign" and crossings:
            crossing = crossings[draw(st.integers(0, len(crossings) - 1))]
            crossing[1] = -crossing[1]
    return Diagram(tuple(Crossing(tuple(s), g) for s, g in crossings), d.circles, tuple(boundary))


@settings(max_examples=400, deadline=None)
@given(mutated())
def test_mutated_rotation_systems_agree_with_reference(d):
    assert_agrees_with_reference(d)


@pytest.mark.parametrize(
    "text",
    [
        "X 1 2 2 1",  # a kink
        "X 1 2 3 4",  # every arc dangles
        "X 1 1 2 2 ; X 3 3 4 4",  # two split kinks
        "X 1 2 3 4 ; X 1 2 3 4",  # two crossings glued the non-planar way
        "X 1 2 1 2",  # a one-crossing torus
        "X 1 1 1 1",  # one label four times, paired off as two planar loops
        "X 3 4 5 6 ; X 1 2 1 2 ; X 3 4 5 6",  # two non-planar components: report the first
        "X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3 ; X 7 8 8 7",  # a trefoil beside a kink
        "X 7 8 8 7 ; X 1 4 2 5 ; X 3 6 4 1 ; X 2 5 6 3",  # a kink beside a non-planar trefoil
        "B 1 1",
        "B 1 2 2 1",
        "B 1 2 1 2",
        "O 1 ; O 1",
        "O 1 ; X 1 2 2 3",
        "Xp 1 2 3 4 ; X 3 4 1 2",
        "Xp 1 4 2 5 ; Xp 3 6 4 1 ; Xm 5 2 6 3",
    ],
)
def test_hand_made_diagrams_agree_with_reference(text):
    from tanglecert.diagram import _parse_text

    crossings, circles, boundary = _parse_text(text)
    assert_agrees_with_reference(Diagram(tuple(crossings), tuple(circles), boundary or ()))


# ---------------------------------------------------------------------------
# validate once


def test_validation_marker_is_per_object_and_invisible_to_equality():
    d = parse_diagram(TREFOIL)
    twin = fresh(d)
    assert "_valid" in d.__dict__ and "_valid" not in twin.__dict__
    assert d == twin and hash(d) == hash(twin) and repr(d) == repr(twin)


def test_second_validate_on_the_same_object_returns_at_once(monkeypatch):
    d = fresh(parse_diagram(TREFOIL))
    validate(d)

    def fail(*args):
        raise AssertionError("validated twice")

    monkeypatch.setattr(diagram, "_check_euler", fail)
    validate(d)
    with pytest.raises(AssertionError):
        validate(fresh(d))


def test_a_rejected_diagram_stays_unmarked():
    d = Diagram((Crossing((1, 2, 3, 4)), Crossing((1, 2, 3, 4))))
    for _ in range(2):
        with pytest.raises(DiagramError):
            validate(d)
    assert "_valid" not in d.__dict__


def test_a_diagram_built_from_lists_is_rejected_and_never_marked():
    crossings = [Crossing((1, 4, 2, 5)), Crossing((3, 6, 4, 1)), Crossing((5, 2, 6, 3))]
    d = Diagram(crossings)
    with pytest.raises(DiagramError, match="Diagram.crossings must be a tuple"):
        validate(d)
    crossings.append(Crossing((7, 8, 9, 10)))  # a marked list could change under the marker
    with pytest.raises(DiagramError, match="Diagram.crossings must be a tuple"):
        validate(d)
    assert "_valid" not in d.__dict__


@pytest.mark.parametrize(
    "d,field",
    [
        (Diagram((), [1]), "Diagram.circles"),
        (Diagram((Crossing((1, 1, 2, 2)),), (), [2, 2]), "Diagram.boundary"),
        (Diagram((Crossing((1, 2, 2, 1)), Crossing([3, 4, 4, 3]))), "Crossing.slots"),
    ],
)
def test_list_fields_are_named_in_the_rejection(d, field):
    with pytest.raises(DiagramError, match=f"{field} must be a tuple"):
        validate(d)


@pytest.mark.parametrize("label", [2 ** 31, 10 ** 30, 2.0])
def test_labels_the_dart_index_cannot_hold_are_rejected(label):
    d = Diagram((Crossing((1, label, label, 1)),))
    with pytest.raises(ArcOccurrenceError, match="integers below 2"):
        validate(d)
    assert "_valid" not in d.__dict__


def test_the_largest_label_the_dart_index_holds():
    d = parse_diagram(f"X 1 {2 ** 31 - 1} {2 ** 31 - 1} 1")
    assert max(diagram._darts(d)[0]) == 2 ** 31 - 1
    with pytest.raises(ArcOccurrenceError):
        parse_diagram(f"X 1 {2 ** 31} {2 ** 31} 1")


def _constructed():
    """(name, diagram) for the output of every public constructor."""
    trefoil = parse_diagram(TREFOIL)
    coloring = fox_solution_space(trefoil, 3).first_nonconstant()
    t = rational_tangle([2, 1, 3])
    s = tangle_add(t, mirror(t))
    one = cut_arc_once(trefoil, 1)
    host = rational_tangle([-2, 3])
    kinked, kink = apply_r1(trefoil, 2)
    moved, move = apply_r2_over(trefoil, 1, 4)
    knot = braid_closure([1, 2, 1, -2, 1, 2], 3)
    triangle = find_r3_triangles(knot)[0]
    return [
        ("parse_diagram", trefoil),
        ("braid_closure", knot),
        ("rational_tangle", t),
        ("mirror", mirror(t)),
        ("rotate90", rotate90(t)),
        ("tangle_add", s),
        ("numerator_closure", numerator_closure(s)),
        ("denominator_closure", denominator_closure(s)),
        ("close_one_tangle", close_one_tangle(one)),
        ("insert_into_host N", insert_into_host(s, host, "N")),
        ("insert_into_host D", insert_into_host(s, host, "D")),
        ("insert_into_host zero", insert_into_host(s, zero_tangle(), "N")),
        ("insert_into_host infinity", insert_into_host(s, infinity_tangle(), "D")),
        ("insert_into_host 1-tangle", insert_into_host(one, cut_arc_once(trefoil, 3))),
        ("orient", orient(s)),
        ("apply_r1", kinked),
        ("undo r1", undo_move(kinked, kink)[0]),
        ("apply_r2_over", moved),
        ("undo r2", undo_move(moved, move)[0]),
        ("apply_r3", apply_r3(knot, triangle)[0]),
        ("cut_arc_once", one),
        ("cut_arc_twice", cut_arc_twice(trefoil, coloring, 1)[0]),
        ("cut_two_arcs", cut_two_arcs(trefoil, coloring, 1, 6)[0]),
        ("cut_two_arcs with passes", cut_two_arcs(trefoil, coloring, 1, 6, extra_passes=2)[0]),
        ("build_T_plus_Tstar", build_T_plus_Tstar([3, 1, 2])[0]),
    ]


CONSTRUCTED = _constructed()


@pytest.mark.parametrize("name,d", CONSTRUCTED, ids=[name for name, _ in CONSTRUCTED])
def test_public_constructors_return_diagrams_valid_from_scratch(name, d):
    assert "_valid" in d.__dict__, f"{name} returned an unvalidated diagram"
    validate(fresh(d))
    assert reference_validate(d) is None


def test_insert_into_host_equals_the_closed_sum():
    rng = random.Random(3)
    tangles = [tangle_add(t, mirror(t)) for t in map(rational_tangle, ([2, 1], [3], [1, 2, 1]))]
    hosts = [zero_tangle(), infinity_tangle()]
    hosts += [rational_tangle([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(1, 4))]) for _ in range(20)]
    for t in tangles:
        for host in hosts:
            assert insert_into_host(t, host, "N") == numerator_closure(tangle_add(t, host))
            assert insert_into_host(t, host, "D") == denominator_closure(tangle_add(t, host))
