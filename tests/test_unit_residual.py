"""The unit residual against the oracles.

Each diagram's crossing rows are reduced once over Z by unit pivots
(linalg.eliminate_units); every Fox space, pinned or not, and the link
determinant read the few rows left.  Counts are compared with exhaustive
backtracking (small inputs) and with the solve of the full rows in
crossing order, for composite moduli too; determinants with the dense
diagonalization and with the dense fraction-free determinant of the
crossing matrix's first minor.  The residual and its split are built once
per diagram, whatever the moduli and pins, and kept like the Fox system.
"""

import copy
import pickle
import random
from itertools import islice

import pytest

from oracles import (
    brute_fox_count,
    crossing_matrix,
    diagonal_count,
    link_invariant,
    modular_solutions,
    reference_fox_solution_space,
    strand_partition,
)
from tanglecert import colorings, linalg
from tanglecert.braids import braid_closure
from tanglecert.colorings import fox_solution_space, link_determinant
from tanglecert.diagram import Crossing, Diagram, parse_diagram
from tanglecert.persistence import cut_two_arcs
from tanglecert.tangle import denominator_closure, mirror, numerator_closure, rational_tangle, tangle_add

MODULI = (2, 3, 4, 5, 6, 9, 15, 25, 97)
BRUTE_LIMIT = 20_000  # modulus ** strands up to which the backtracking oracle runs


def seeded_closures(seed, count):
    """2-6-strand braid closures: knots, links, split diagrams (a generator
    left out) and crossing-free unlinks (the empty word)."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        strands = rng.randint(2, 6)
        if i % 10 == 0:
            word = []
        else:
            gens = list(range(1, strands))
            if i % 4 == 0 and strands > 2:
                gens.remove(rng.choice(gens))  # the closure splits there
            word = [rng.choice((1, -1)) * rng.choice(gens) for _ in range(rng.randint(1, 24))]
        out.append(braid_closure(word, strands))
    return out


def t_plus_tstar(seed, count):
    """T+T* tangles and both their closures."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        t = rational_tangle([rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(rng.randint(1, 4))])
        s = tangle_add(t, mirror(t))
        out += [s, numerator_closure(s), denominator_closure(s)]
    return out


def inputs(corpus_diagrams):
    return [*corpus_diagrams.values(), *seeded_closures(11, 80), *t_plus_tstar(12, 12)]


def n_strands(d):
    return len(set(strand_partition(d).values()))


def minor_bareiss(d):
    """|first minor| of the dense crossing matrix by linalg.bareiss_determinant, 0 when not square."""
    rows, n = crossing_matrix(d), n_strands(d)
    if n <= 1:
        return 1
    if len(rows) != n:
        return 0
    return abs(linalg.bareiss_determinant([row[:-1] for row in rows[:-1]]))


@pytest.fixture
def spied(monkeypatch):
    """Every call of linalg.eliminate_units, recorded."""
    calls = []
    real = linalg.eliminate_units
    monkeypatch.setattr(linalg, "eliminate_units", lambda *a: calls.append(a) or real(*a))
    return calls


def test_residual_counts_match_the_oracles(corpus_diagrams):
    for d in inputs(corpus_diagrams):
        for n in MODULI:
            count = fox_solution_space(d, n).count
            assert count == reference_fox_solution_space(d, n).count, (d, n)
            if n ** n_strands(d) <= BRUTE_LIMIT:
                assert count == brute_fox_count(d, n), (d, n)


def test_residual_determinants_match_the_oracles(corpus_diagrams):
    for d in inputs(corpus_diagrams):
        if d.boundary:
            continue
        det = link_determinant(d)
        assert det == link_invariant(d) == minor_bareiss(d), d


def test_larger_closures_match_the_full_solve():
    rng = random.Random(13)
    for _ in range(12):
        strands = rng.randint(3, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(60, 150))]
        d = braid_closure(word, strands)
        for n in MODULI:
            assert fox_solution_space(d, n).count == reference_fox_solution_space(d, n).count
        assert link_determinant(d) == minor_bareiss(d)


def test_a_count_read_first_agrees_with_the_listing():
    d = braid_closure([1, -2, 1, -2, 1, -2, 3, -3, 3], 4)
    for n in (3, 4, 6, 9):
        space = fox_solution_space(d, n)
        count = space.count
        assert count == sum(1 for _ in space.colorings()) == reference_fox_solution_space(d, n).count


def fresh(corpus_dir, name):
    """A newly parsed corpus diagram, which keeps nothing yet."""
    return parse_diagram((corpus_dir / f"{name}.pd").read_text())


def test_the_residual_is_built_once_per_diagram(spied, corpus_dir):
    d = fresh(corpus_dir, "8_16")
    det = link_determinant(d)
    counts = [fox_solution_space(d, n).count for n in MODULI]
    assert link_determinant(d) == det and counts[3] > 5  # 5 divides det 35
    assert len(spied) == 1 and "_units" in d.__dict__


@pytest.fixture
def splits(monkeypatch):
    """Every call of colorings._split_components, recorded."""
    calls = []
    real = colorings._split_components
    monkeypatch.setattr(colorings, "_split_components", lambda *a: calls.append(a) or real(*a))
    return calls


def test_pinned_solves_build_the_residual_once(spied, splits, corpus_dir, monkeypatch):
    # and no solve sees the crossing rows: only the residual's and the pins'
    solves = []
    real = linalg.solve_mod
    monkeypatch.setattr(linalg, "solve_mod", lambda *a: solves.append(len(a[0])) or real(*a))
    d = fresh(corpus_dir, "8_16")
    for n in MODULI:
        space = fox_solution_space(d, n, pins={3: 0, 12: 0})
        space.count, space.first_nonconstant(), space.forced_equal_pair()
        sum(1 for _ in zip(range(20), space.colorings()))
    assert fox_solution_space(d, 5).count == 25
    assert len(spied) == len(splits) == 1 and set(d.__dict__["_split"]) == {-1}
    residual, _, _ = d.__dict__["_units"][-1]
    assert solves == [len(residual) + 2] * len(MODULI) + [len(residual)] and len(residual) < len(d.crossings)


def test_a_two_arc_cut_builds_the_residual_once(spied, corpus_dir):
    # the transport cut: a pinned solve, then moves, recoloring and the cut,
    # which solve nothing more
    for name, a, b, n in (("8_16", 3, 12, 5), ("trefoil", 1, 6, 3)):
        d = fresh(corpus_dir, name)
        coloring = fox_solution_space(d, n, pins={a: 0, b: 0}).first_nonconstant()
        cut_two_arcs(d, coloring, a, b, extra_passes=1)
    assert len(spied) == 2


def test_a_read_of_the_basis_gives_the_count(spied, corpus_dir, monkeypatch):
    # first_nonconstant solves the parts, which then give the count
    solves = []
    real = linalg.solve_mod
    monkeypatch.setattr(linalg, "solve_mod", lambda *a: solves.append(a) or real(*a))
    d = fresh(corpus_dir, "6_2")
    space = fox_solution_space(d, 11)
    assert space.first_nonconstant() is not None and len(solves) == 1
    assert space.count == 121 and len(solves) == 1 and len(spied) == 1


def test_one_split_per_tangle_and_rule(splits, corpus_dir):
    # the certificate search builds a Fox space per modulus (five misses)
    # and a dihedral(3) space per orbit representative on one tangle, all at
    # t = -1
    from tanglecert.colorings import dihedral, quandle_space
    from tanglecert.persistence import find_certificate_report

    t = fresh(corpus_dir, "fig1-krebes")
    report = find_certificate_report(t, [2, 4, 5, 7, 11], (dihedral(3),))
    assert [e["found"] for e in report.entries] == [False] * 5 + [True]
    for v in range(3):
        quandle_space(t, dihedral(3), {e: v for e in t.boundary}).count
    assert len(splits) == 1 and set(t.__dict__["_split"]) == {-1}


def test_an_unvalidated_diagram_keeps_no_residual(spied):
    d = Diagram((Crossing((1, 4, 2, 5)), Crossing((3, 6, 4, 1)), Crossing((5, 2, 6, 3))))
    assert link_determinant(d) == 3 and fox_solution_space(d, 3).count == 9
    assert len(spied) == 2 and "_units" not in d.__dict__ and "_split" not in d.__dict__


def test_the_kept_residual_is_immutable_and_not_pickled():
    d = braid_closure([1, -2, 1, -2, 1, 1, -2], 3)
    det = link_determinant(d)
    assert fox_solution_space(d, 3).count == 9
    residual, n_left, _ = d.__dict__["_units"][-1]
    component, index, parts, _ = d.__dict__["_split"][-1]
    assert isinstance(component, tuple) and index[next(iter(index))] == 0 and len(parts) == 1
    with pytest.raises(TypeError):
        parts[1] = parts[0]
    assert isinstance(residual, tuple) and len(residual) == n_left
    with pytest.raises(TypeError):
        residual[0][0] = 1
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert twin == d and not {"_units", "_split", "_fox"} & set(twin.__dict__)
        assert link_determinant(twin) == det


def dense(rows, n):
    return [[row.get(c, 0) for c in range(n)] for row in rows]


def test_eliminate_units_keeps_every_count():
    rng = random.Random(14)
    for _ in range(300):
        n_rows, n_vars = rng.randint(0, 5), rng.randint(1, 5)
        rows = [{c: v for c in range(n_vars) if (v := rng.choice((0, 0, 1, -1, 2, -2, 3)))} for _ in range(n_rows)]
        before = [dict(row) for row in rows]
        residual, n_left, _ = linalg.eliminate_units(rows, n_vars)
        assert rows == before
        assert len(rows) - len(residual) == n_vars - n_left
        assert all(0 <= c < n_left for row in residual for c in row)
        for n in (2, 4, 6, 9):
            want = diagonal_count(dense(rows, n_vars), [0] * n_rows, n_vars, n)
            got = diagonal_count(dense(residual, n_left), [0] * len(residual), n_left, n) if residual else n ** n_left
            assert got == want, (rows, n)


def test_eliminate_units_keeps_empty_rows_and_squareness():
    residual, n_left, _ = linalg.eliminate_units([{}, {0: 1, 1: -1}, {0: -1, 1: 1}], 2)
    assert residual == [{}, {}] and n_left == 1
    residual, n_left, pivots = linalg.eliminate_units([{0: 2, 1: 3}, {0: 3, 1: 2}], 2)  # no unit: unchanged
    assert residual == [{0: 2, 1: 3}, {0: 3, 1: 2}] and n_left == 2 and pivots == []


def test_lift_units_solves_every_row():
    # every solution mod n of the residual lifts to a solution of the rows
    # that agrees with it on the residual's columns
    rng = random.Random(15)
    for _ in range(300):
        n_rows, n_vars = rng.randint(0, 6), rng.randint(1, 6)
        rows = [{c: v for c in range(n_vars) if (v := rng.choice((0, 0, 1, -1, 2, -2, 3)))} for _ in range(n_rows)]
        residual, n_left, pivots = linalg.eliminate_units(rows, n_vars)
        kept = [c for c in range(n_vars) if c not in {c for c, _ in pivots}]
        for n in (2, 5, 6):
            space = linalg.solve_mod(residual, [0] * len(residual), n_left, n)
            for y in islice(modular_solutions(space), 40):
                lifted = linalg.lift_units(pivots, dict(zip(kept, y)), n)
                assert all(lifted.values())
                x = [lifted.get(c, 0) for c in range(n_vars)]
                assert [x[c] for c in kept] == list(y)
                assert all(sum(v * x[c] for c, v in row.items()) % n == 0 for row in rows), (rows, n, y)
