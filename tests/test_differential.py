"""The sparse modular solver and the bounded determinant against the oracles.

Counts are compared with the dense diagonalization of oracles.py run over
Z/N, determinants with the same diagonalization over Z (kept to closures of
at most 40 crossings, where its entries stay small) and with a first minor
eliminated over the rationals.  Every answer of fox_solution_space, which
solves each diagram's kept unit residual one split component at a time,
is compared with the solve of the full rows in crossing order on fresh
strand columns: its count, forced pair, lexicographic listing and first
nonconstant coloring.  The
report's closure evidence, read from one determinant per closure, is
compared with a Fox solve per modulus.
"""

import random
from itertools import islice

import pytest

from oracles import (
    crossing_matrix,
    diagonal_count,
    link_invariant,
    minor_determinant,
    reference_closure_evidence,
    reference_first_nonconstant,
    reference_fox_solution_space,
    strand_partition,
)
from tanglecert.braids import braid_closure
from tanglecert.colorings import determinant, fox_solution_space, link_determinant, verify_coloring
from tanglecert.diagram import Diagram, components, parse_diagram, relabel, validate
from tanglecert.persistence import _closure_evidence
from tanglecert.tangle import (
    close_one_tangle,
    denominator_closure,
    mirror,
    numerator_closure,
    rational_tangle,
    tangle_add,
)

MODULI = (2, 3, 4, 5, 9, 15, 97)
LISTED = 200  # colorings checked one by one per space; smaller spaces are listed whole
TREFOIL = "X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3"


def random_closure(rng, strands, crossings):
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
    return braid_closure(word, strands)


def pinned_system(d, pins):
    """Dense crossing matrix plus one row per pin, in the oracle's own strand order."""
    rep = strand_partition(d)
    strands = sorted(set(rep.values()))
    rows = crossing_matrix(d)
    rhs = [0] * len(rows)
    for label, value in pins.items():
        row = [0] * len(strands)
        row[strands.index(rep[label])] = 1
        rows.append(row)
        rhs.append(value)
    return rows, rhs, len(strands)


def first_forced_pair(strands, solutions):
    """The lexicographically first pair of strands equal in every listed solution."""
    for i in range(len(strands)):
        for j in range(i + 1, len(strands)):
            if all(x[i] == x[j] for x in solutions):
                return (strands[i], strands[j])
    return None


@pytest.mark.parametrize("seed", range(12))
def test_counts_and_solutions_match_oracle(seed):
    rng = random.Random(seed)
    d = random_closure(rng, rng.randint(3, 5), rng.randint(10, 100))
    labels = sorted(d.arcs())
    for pins in ({}, {a: rng.randrange(2) for a in rng.sample(labels, rng.randint(1, 3))}):
        rows, rhs, n_vars = pinned_system(d, pins)
        for n in MODULI:
            space = fox_solution_space(d, n, pins)
            assert space.count == diagonal_count(rows, rhs, n_vars, n), (seed, pins, n)
            listed = list(islice(space.colorings(), LISTED))
            for c in listed:
                assert verify_coloring(d, c)
                assert all(c.colors[a] == v % n for a, v in pins.items())
            first = space.first_nonconstant()
            assert first is None or (verify_coloring(d, first) and first.nontrivial)
            if not pins:
                assert (first is not None) == (space.count > n)
            if space.count <= LISTED:
                assert len(listed) == len({tuple(sorted(c.colors.items())) for c in listed})
                assert len(listed) == space.count
                vectors = [tuple(c.colors[s] for s in space.strands) for c in listed]
                assert space.forced_equal_pair() == (
                    first_forced_pair(space.strands, vectors) if vectors else None
                )
                assert (first is None) == all(len(set(x)) == 1 for x in vectors)


def test_link_determinant_matches_oracle_on_closures():
    rng = random.Random(0)
    for _ in range(150):
        d = random_closure(rng, rng.randint(2, 5), rng.randint(1, 40))
        expected = link_invariant(d)
        assert link_determinant(d) == expected
        if len(components(d)) == 1:
            assert determinant(d) == expected


def test_link_determinant_matches_oracle_on_rational_closures():
    rng = random.Random(1)
    for _ in range(40):
        t = rational_tangle([rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(rng.randint(1, 5))])
        for d in (numerator_closure(t), denominator_closure(t)):
            assert link_determinant(d) == link_invariant(d)


def test_link_determinant_matches_oracle_on_corpus(corpus_diagrams):
    for name, d in corpus_diagrams.items():
        if d.boundary:
            continue
        expected = link_invariant(d)
        assert link_determinant(d) == expected, name
        if len(components(d)) == 1:
            assert determinant(d) == expected, name


@pytest.mark.parametrize(
    "text",
    [
        "O 1",
        "O 1 ; O 2",
        "X 1 2 4 3 ; X 3 4 2 1",  # Hopf link
        TREFOIL + " ; O 7",
        TREFOIL + " ; X 11 14 12 15 ; X 13 16 14 11 ; X 15 12 16 13",  # two trefoils, apart
    ],
)
def test_link_determinant_matches_oracle_on_small_and_split_diagrams(text):
    d = parse_diagram(text)
    assert link_determinant(d) == link_invariant(d)


ORDER_MODULI = (2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 25, 27, 30, 49, 97)


def shuffled(rng, d):
    """d with its crossings in a random order and its labels permuted, validated."""
    crossings = list(d.crossings)
    rng.shuffle(crossings)
    labels = sorted(d.arcs())
    image = rng.sample(labels, len(labels))
    out = relabel(Diagram(tuple(crossings), d.circles, d.boundary), dict(zip(labels, image)))
    validate(out)
    return out


def strand_values(space, coloring):
    return tuple(coloring.colors[s] for s in space.strands)


def assert_same_space(got, want, listed=40, sorted_up_to=2000):
    """The full-row solve's count, strands and forced pair; got's listing the
    start of want's sorted solutions (or, past sorted_up_to of them,
    increasing colorings of want's space); got's first nonconstant coloring
    its listing's first."""
    assert got.count == want.count
    assert got.strands == want.strands
    assert got.forced_equal_pair() == want.forced_equal_pair()
    prefix = [strand_values(got, c) for c in islice(got.colorings(), listed)]
    if want.count <= sorted_up_to:
        assert prefix == want.solutions()[:listed]
    else:
        assert prefix == sorted(set(prefix)) and len(prefix) == listed
        assert all(verify_coloring(got.diagram, c) for c in islice(got.colorings(), listed))
    first = got.first_nonconstant()
    assert first == next((c for c in got.colorings() if c.nontrivial), None)


@pytest.mark.parametrize("seed", range(8))
def test_row_order_changes_no_answer(corpus_diagrams, seed):
    # 12 cases a seed, each over 15 moduli: 1,440 spaces compared in all
    rng = random.Random(seed)
    cases = []
    for _ in range(4):
        d = random_closure(rng, rng.randint(2, 5), rng.randint(1, 40))
        cases += [(d, {}), (shuffled(rng, d), {})]
    tangles = sorted(name for name, t in corpus_diagrams.items() if len(t.boundary) == 4)
    for name in rng.sample(tangles, 2):
        t = corpus_diagrams[name]
        cases.append((t, {e: 0 for e in t.boundary}))
        cases.append((t, {e: rng.randrange(3) for e in t.boundary}))
    for d, pins in cases:
        for n in ORDER_MODULI:  # each diagram's kept system serves every modulus
            assert_same_space(fox_solution_space(d, n, pins), reference_fox_solution_space(d, n, pins))


@pytest.mark.parametrize("seed", range(4))
def test_first_nonconstant_matches_the_basis_reading(corpus_diagrams, seed):
    # the corpus, pinned and unpinned, then seeded closures pinned on two
    # arcs and seeded T+T* sums pinned on their boundary, against the
    # lexicographically first nonconstant coloring read off full-row solves
    rng = random.Random(seed)
    cases = []
    for d in corpus_diagrams.values():
        cases.append((d, {}))
        if d.boundary:
            cases.append((d, {e: 0 for e in d.boundary}))
            cases.append((d, {e: rng.randrange(3) for e in d.boundary}))
    for _ in range(8):
        d = random_closure(rng, rng.randint(2, 5), rng.randint(1, 60))
        cases.append((d, {}))
        cases.append((d, dict.fromkeys(rng.sample(sorted(d.arcs()), 2), 0)))
    for _ in range(4):
        t = rational_tangle([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 4))])
        s = tangle_add(t, mirror(t))
        cases.append((s, {}))
        cases.append((s, {e: 0 for e in s.boundary}))
    for d, pins in cases:
        for n in (3, 5, 15):
            space = fox_solution_space(d, n, pins)
            got = space.first_nonconstant()
            assert (got and strand_values(space, got)) == reference_first_nonconstant(d, n, pins), (d, pins, n)


def test_link_determinant_matches_the_rational_first_minor():
    rng = random.Random(11)
    checked = 0
    while checked < 24:
        s = rng.randint(2, 5)
        d = random_closure(rng, s, rng.randint(s, 60))
        rows = crossing_matrix(d)
        if rows and len(rows) == len(rows[0]):  # square: every component passes under
            assert link_determinant(d) == minor_determinant(d)
            checked += 1


def evidence_diagrams(corpus, seed):
    """Closed corpus diagrams and the closures of the corpus tangles, then
    seeded 2-4-strand braid closures (knots, links, and split links whose
    words skip a generator) and the N and D closures of seeded T+T* sums."""
    out = []
    for d in corpus.values():
        if not d.boundary:
            out.append(d)
        elif len(d.boundary) == 2:
            out.append(close_one_tangle(d))
        else:
            out += [numerator_closure(d), denominator_closure(d)]
    rng = random.Random(seed)
    for _ in range(200):
        strands = rng.randint(2, 4)
        gens = list(range(1, strands))
        if strands > 2 and rng.random() < 0.25:  # a skipped generator splits the link
            gens.remove(rng.choice(gens))
        word = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randint(1, 20))]
        out.append(braid_closure(word, strands))
    for _ in range(40):
        t = rational_tangle([rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 4))])
        s = tangle_add(t, mirror(t))
        out += [numerator_closure(s), denominator_closure(s)]
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_closure_evidence_matches_a_solve_per_modulus(corpus_diagrams, seed):
    moduli = range(2, 31)
    diagrams = evidence_diagrams(corpus_diagrams, seed)
    assert any(len(components(d)) > 1 and link_determinant(d) == 0 for d in diagrams)
    for d in diagrams:
        assert _closure_evidence(d, moduli) == reference_closure_evidence(d, moduli)
