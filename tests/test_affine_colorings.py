"""Affine quandle colorings by elimination against the search they replaced.

quandle_space solves an affine quandle (a * b = t*a + (1-t)*b mod n) on
the diagram's unit residual at t, one split component at a time, which
gives its count; the solve, lifted to every strand, lists the colorings
for every n, prime or composite, as a Fox space lists its own.  Its
listing must be that of oracles.reference_quandle_colorings and of
_search in the same order (every prefix taken with islice the reference's
prefix), with the same count, the same first nonconstant coloring, the
forced pair read off the listing and the same exceptions: on seeded braid
closures, Alexander quandles on their oriented copies (both crossing
signs) and dihedral ones on the unoriented closures, with pins and with
short prefixes.  Only non-affine tables are listed by the search.  A
split diagram is solved one component at a time; on many components a
short listing must build only what it steps, bar the lifted basis of each
component with nonconstant or pinned colorings, and a second walk of the
same space builds nothing.
"""

import pickle
import random
from itertools import islice

import pytest

from oracles import brute_fox_count, reference_quandle_colorings
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
from tanglecert.diagram import orient, parse_diagram, relabel, serialize
from tanglecert.moves import apply_r1


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
    [(dihedral(3), 1), (alexander(7, 3), 1), (dihedral(4), 1), (NOT_AFFINE, 0)],
    ids=["dihedral-3", "alexander-7-3", "dihedral-4", "not-affine"],
)
def test_every_affine_quandle_is_solved(solves, monkeypatch, q, want):
    # a listing solves an affine quandle of any order once and never walks the search
    walks = []
    real = colorings._search
    monkeypatch.setattr(colorings, "_search", lambda *args: walks.append(args) or real(*args))
    d = orient(braid_closure([1, -2, 1, -2], 3))
    list(quandle_space(d, q, pins={1: 0}).colorings())
    assert (len(solves), len(walks)) == (want, 1 - want)


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


FAMILY_DIHEDRALS = [dihedral(n) for n in (3, 4, 5, 6, 8, 9, 12, 15, 25, 27)]
FAMILY_ALEXANDERS = [alexander(n, t) for n, t in ((9, 4), (9, 2), (15, 2), (25, 3), (8, 3), (10, 3), (12, 5), (7, 3), (11, 5))]
FAMILY = [CLOSURES[i:i + 20] for i in range(0, 60, 20)]


PREFIX = 50  # colorings compared with the search's per space
WHOLE = 3000  # on every third closure, spaces up to this count are compared whole with the reference
BRUTE = 20_000  # n ** strands up to which Fox counts are compared with exhaustive backtracking


def searched(d, q, pins):
    """_search's first PREFIX colorings, as colors by label."""
    strands, col, triples = colorings._strand_columns(d)
    pinned = [(col[label], v) for label, v in (pins or {}).items()]
    walk = colorings._search(q, triples, d.crossings, len(strands), pinned)
    return [{label: x[c] for label, c in col.items()} for x in islice(walk, PREFIX)]


def forced_pair(space, listed):
    """The first pair of strands equal in every listed coloring."""
    strands = space.strands
    for i, a in enumerate(strands):
        for b in strands[i + 1:]:
            if all(c[a] == c[b] for c in listed):
                return (a, b)
    return None


@pytest.mark.parametrize("chunk", FAMILY, ids=[f"closures{i}-{i + 19}" for i in range(0, 60, 20)])
def test_composite_listings_match_the_search(chunk):
    # dihedral(n) and oriented Alexander quandles of composite and prime
    # order, each unpinned and with one and two pins: the listing starts as
    # the search's, and on every third closure, up to WHOLE colorings, it is
    # the reference's whole listing, count and forced pair; the Fox space
    # mod n lists the dihedral(n) colorings, and small ones count as
    # exhaustive backtracking does
    for k, d in enumerate(chunk):
        oriented = orient(d)
        for dd, quandles in ((d, FAMILY_DIHEDRALS), (oriented, FAMILY_ALEXANDERS)):
            for q in quandles:
                for pins in pin_sets(dd, q):
                    space = quandle_space(dd, q, pins)
                    listed = [c.colors for c in islice(space.colorings(), PREFIX)]
                    assert listed == searched(dd, q, pins), (q.name, pins)
                    first = space.first_nonconstant()
                    want = next((c for c in listed if len(set(c.values())) >= 2), None)
                    assert (first and first.colors) == want or len(listed) == PREFIX and want is None
                    if q in FAMILY_DIHEDRALS:
                        fox = fox_solution_space(dd, q.size, pins)
                        assert [c.colors for c in islice(fox.colorings(), PREFIX)] == listed
                        if q.size ** len(fox.strands) <= BRUTE:
                            assert fox.count == space.count == brute_fox_count(dd, q.size, pins)
                    if k % 3 == 0 and space.count <= WHOLE:
                        whole = [c.colors for c in reference_quandle_colorings(dd, q, pins)]
                        assert whole[:PREFIX] == listed and space.count == len(whole), (q.name, pins)
                        assert space.forced_equal_pair() == (forced_pair(space, whole) if whole else None)


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


# ---------------------------------------------------------------------------
# spaces solved on the unit residual


def corpus_quandle(corpus_dir, name):
    return colorings.parse_quandle((corpus_dir / f"{name}.q").read_text(), name=name)


def dropped_labels(d, t):
    """Labels whose strand a unit pivot of the rows at t drops, one per strand."""
    fox = colorings._strand_columns(d)
    _, _, pivots = colorings._unit_residual(d, fox, t)
    dropped = {c for c, _ in pivots}
    return sorted({c: label for label, c in fox[1].items() if c in dropped}.values())


def test_corpus_tangles_pinned_at_their_boundary_match_the_reference(corpus_diagrams, corpus_dir):
    tangles = {name: d for name, d in corpus_diagrams.items() if d.boundary}
    assert len(tangles) >= 5
    quandles = [dihedral(3), dihedral(5), dihedral(7)]
    oriented_quandles = [corpus_quandle(corpus_dir, "alexander-7-3"), corpus_quandle(corpus_dir, "alexander-11-5")]
    for name, t in tangles.items():
        for dd, qs in ((t, quandles), (orient(t), oriented_quandles)):
            for q in qs:
                for pins in [{e: v for e in dd.boundary} for v in (0, q.size - 1)] + [dict(zip(dd.boundary, range(4)))]:
                    assert outcome(dd, q, pins) == reference(dd, q, pins), (name, q.name, pins)


def test_pins_on_dropped_columns_match_the_reference():
    seen = 0
    for d in CLOSURES[:60]:
        oriented = orient(d)
        for dd, q in ((d, dihedral(5)), (oriented, alexander(7, 3)), (oriented, alexander(11, 5))):
            t = q._affine if 2 * q._affine <= q.size else q._affine - q.size
            labels = dropped_labels(dd, t)
            if not labels:
                continue
            seen += 1
            for pins in ({labels[0]: 1}, {labels[0]: 2, labels[-1]: 2}, {a: i % q.size for i, a in enumerate(labels)}):
                assert outcome(dd, q, pins) == reference(dd, q, pins), (q.name, pins)
    assert seen >= 100


def test_a_kink_row_without_a_unit_matches_the_reference():
    # an oriented kink at t = 3 has the row 3*u - 3*o or its negative: no +-1 entry
    q = alexander(7, 3)
    found = False
    for d in CLOSURES[:20]:
        for arc in sorted(d.arcs())[:2]:
            for positive in (True, False):
                kinked = orient(apply_r1(d, arc, positive)[0])
                _, _, triples = colorings._strand_columns(kinked)
                rows = colorings._crossing_rows(triples, kinked.crossings, 3)
                found |= any(row and all(abs(v) != 1 for v in row.values()) for row in rows)
                for pins in (None, {arc: 4}):
                    assert outcome(kinked, q, pins) == reference(kinked, q, pins), (arc, positive, pins)
    assert found


def test_corpus_knots_by_the_corpus_alexander_quandles(corpus_diagrams, corpus_dir):
    for name in ("alexander-7-3", "alexander-11-5"):
        q = corpus_quandle(corpus_dir, name)
        for stem, d in corpus_diagrams.items():
            dd = orient(d)
            for pins in (None, {min(dd.arcs()): 1}):
                assert outcome(dd, q, pins) == reference(dd, q, pins), (name, stem, pins)


@pytest.mark.parametrize("n", [6, 15])
def test_composite_dihedral_counts_match_the_reference(n, corpus_diagrams):
    q = dihedral(n)
    for d in [*CLOSURES[:25], *corpus_diagrams.values()]:
        for pins in pin_sets(d, q) + ({a: 0 for a in d.boundary} or None,):
            want = reference(d, q, pins, caps=())
            assert outcome(d, q, pins, caps=()) == want, (q.name, pins)


@pytest.fixture
def eliminations(monkeypatch):
    """Every call of linalg.eliminate_units, recorded."""
    calls = []
    real = linalg.eliminate_units
    monkeypatch.setattr(linalg, "eliminate_units", lambda *a: calls.append(a) or real(*a))
    return calls


def test_dihedral_spaces_read_the_fox_residual(eliminations, solves, corpus_dir):
    d = parse_diagram((corpus_dir / "8_16.pd").read_text())
    det = colorings.link_determinant(d)
    space = quandle_space(d, dihedral(3))
    assert space.count == 3 and det == 35
    assert len(list(space.colorings())) == 3 and space.first_nonconstant() is None
    pinned = quandle_space(d, dihedral(5), {3: 0, 12: 0})
    assert pinned.first_nonconstant() is not None
    assert len(eliminations) == 1 and set(d.__dict__["_units"]) == {-1}
    # no solve sees the crossing rows: the residual's rows and one per pin
    residual, _, _ = d.__dict__["_units"][-1]
    assert [len(args[0]) for args in solves] == [len(residual), len(residual) + 2]


def test_an_alexander_quandle_builds_its_own_record(eliminations, corpus_dir):
    d = orient(parse_diagram((corpus_dir / "fig8-knot.pd").read_text()))
    assert quandle_space(d, alexander(7, 3)).count == 7
    assert quandle_space(d, alexander(7, 4)).count == 7  # t = 4 is -3 in (-7/2, 7/2]
    assert quandle_space(d, dihedral(7)).count == 7
    assert quandle_space(d, alexander(5, 3)).count == 5  # t = 3 is -2, like alexander(7, 5)
    assert quandle_space(d, alexander(7, 5)).count == 7
    assert quandle_space(d, alexander(11, 5)).count == 121
    units = d.__dict__["_units"]
    assert set(units) == {3, -3, -1, -2, 5} and len(eliminations) == 5
    _, _, pivots = units[3]
    with pytest.raises(TypeError):
        units[7] = units[3]
    with pytest.raises(TypeError):
        pivots[0][1][0] = 1


# ---------------------------------------------------------------------------
# split diagrams: one part per component


def split_union(*pieces):
    """The split union of the pieces, labels interleaved: the i-th of k
    pieces takes the labels i + 1, i + 1 + k, i + 1 + 2k, ..., so strands
    of different pieces alternate in strand order."""
    k, text = len(pieces), ""
    for i, d in enumerate(pieces):
        text += serialize(relabel(d, {a: i + 1 + k * j for j, a in enumerate(sorted(d.arcs()))}))
    return parse_diagram(text)


def copies(d, k):
    """k split copies of d, each on its own block of labels."""
    m = max(d.arcs())
    return parse_diagram("".join(serialize(relabel(d, {a: a + i * m for a in d.arcs()})) for i in range(k)))


def test_split_unions_match_the_reference(corpus_diagrams):
    trefoil, fig8 = corpus_diagrams["trefoil"], corpus_diagrams["fig8-knot"]
    kink = parse_diagram("X 1 2 2 1")
    circle = parse_diagram("O 1")
    unions = [
        split_union(trefoil, trefoil),
        split_union(trefoil, fig8),
        split_union(fig8, circle, trefoil),
        split_union(kink, trefoil, circle),
        split_union(CLOSURES[3], CLOSURES[8]),
    ]
    for d in unions:
        arcs = sorted(d.arcs())
        for dd, qs in ((d, [dihedral(3), dihedral(5)]), (orient(d), [alexander(7, 3), alexander(5, 2)])):
            for q in qs:
                for pins in (None, {arcs[0]: 1}, {arcs[1]: 2, arcs[-1]: 1}, {a: 0 for a in arcs[::3]}):
                    assert outcome(dd, q, pins, (10 ** 6, 0, 4)) == reference(dd, q, pins, (10 ** 6, 0, 4)), (q.name, pins)


@pytest.fixture
def builds(monkeypatch):
    """Every linalg.lift_units and _Echelon.back_substitute call, recorded."""
    calls = []
    lift, back = linalg.lift_units, linalg._Echelon.back_substitute
    monkeypatch.setattr(linalg, "lift_units", lambda *a: calls.append(("lift", a)) or lift(*a))
    monkeypatch.setattr(linalg._Echelon, "back_substitute", lambda *a, **k: calls.append(("back", a)) or back(*a, **k))
    return calls


def test_components_with_only_constant_colorings_build_nothing(builds, corpus_diagrams):
    # 300 split figure-eights (det 5) and 300 kinked unknots under dihedral(3):
    # every component has only the constant colorings, so its generator is 1
    # on its strands, read off the kept split without a back-substitution or
    # a lift
    fig8, kink = corpus_diagrams["fig8-knot"], parse_diagram("X 1 2 2 1")
    d = split_union(copies(fig8, 300), copies(kink, 300))
    _, _, pivots = colorings._unit_residual(d, colorings._strand_columns(d), -1)
    assert len(pivots) >= 600  # each figure-eight's rows have unit pivots
    space = quandle_space(d, dihedral(3))
    first = list(islice(space.colorings(), 5))
    assert len(first) == 5 and all(verify_coloring(d, c) for c in first)
    assert space.first_nonconstant() == first[1] and not first[0].nontrivial
    assert builds == [] and space.count == 3 ** 600


@pytest.mark.parametrize("which", ["kept", "dropped"])
def test_one_pin_among_many_components_lifts_one_part(builds, corpus_diagrams, which):
    # one pin among 1,200 circles, or on a kept or a dropped strand of one of
    # 300 figure-eights: the pin row is read off the pivot record without a
    # lift, and only the pinned part's particular solution is built
    fig8 = corpus_diagrams["fig8-knot"]
    d = copies(fig8, 300)
    fox = colorings._strand_columns(d)
    _, _, pivots = colorings._unit_residual(d, fox, -1)
    dropped = {c for c, _ in pivots}
    label = next(a for a in sorted(d.arcs())[400:] if (fox[1][a] in dropped) == (which == "dropped"))
    for dd, pins in ((d, {label: 2}), (parse_diagram(" ; ".join(f"O {k}" for k in range(1, 1201))), {600: 2})):
        builds.clear()
        space = quandle_space(dd, dihedral(3), pins)
        first = list(islice(space.colorings(), 5))
        assert len(first) == 5 and all(verify_coloring(dd, c) and c.colors[next(iter(pins))] == 2 for c in first)
        assert space.first_nonconstant() == first[0]
        assert [kind for kind, _ in builds] == ["back", "lift"]


def test_components_with_nonconstant_colorings_lift_their_own_pivots(builds, corpus_diagrams):
    # 300 split trefoils under dihedral(3): each has two generators, lifted
    # into one Howell form when the space is first walked, each lift reading only its
    # own trefoil's pivots; a second walk builds nothing
    d = copies(corpus_diagrams["trefoil"], 300)
    space = quandle_space(d, dihedral(3))
    first = list(islice(space.colorings(), 5))
    assert all(verify_coloring(d, c) for c in first)
    lifts = [args for kind, args in builds if kind == "lift"]
    assert len(lifts) == 600 and max(len(args[0]) for args in lifts) <= 2
    builds.clear()
    assert space.first_nonconstant() == first[1]
    assert [c.colors for c in islice(space.colorings(), 5)] == [c.colors for c in first]
    assert builds == []


def test_a_second_walk_builds_nothing(builds, corpus_diagrams):
    # color --quandle walks twice: first_nonconstant, then the listing
    d = corpus_diagrams["fig10-overlaid"]
    space = quandle_space(d, dihedral(3))
    first = space.first_nonconstant()
    built = len(builds)
    listed = list(islice(space.colorings(), 9))
    assert built > 0 and len(builds) == built
    assert first == next(c for c in listed if c.nontrivial)
