import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    cofactor_det,
    crossing_matrix,
    diagonal_count,
    diagonalize,
    invariant_product,
    lucas,
    modular_solutions,
)
from tanglecert.braids import braid_closure
from tanglecert.colorings import link_determinant
from tanglecert.diagram import components
from tanglecert.linalg import abs_determinant, bareiss_determinant, solve_mod


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


small_matrices = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_bareiss_matches_cofactor(m):
    assert bareiss_determinant(m) == cofactor_det(m)


@given(small_matrices)
@settings(max_examples=150, deadline=None)
def test_abs_determinant_matches_cofactor(m):
    assert abs_determinant(sparse(m)) == abs(cofactor_det(m))


def test_abs_determinant_lifts_past_a_small_prime():
    # 3^40 has 64 bits, past a machine word
    m = [{i: 3} for i in range(40)]
    assert abs_determinant(m) == 3 ** 40
    assert abs_determinant([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 0


def test_a_determinant_has_no_size_limit():
    # a 44,497-bit determinant
    assert abs_determinant([{0: 1 << 44496}]) == 1 << 44496


def test_the_input_rows_are_not_changed():
    rows = [{0: 2, 1: -1, 2: -1}, {0: -1, 1: 2, 2: 0}, {1: -1, 2: 2}]
    copy = [dict(row) for row in rows]
    assert abs_determinant(rows) == abs(bareiss_determinant([[2, -1, -1], [-1, 2, 0], [0, -1, 2]]))
    assert rows == copy


def test_closure_minors_match_the_dense_reference():
    # first minors of 2- to 5-strand closures, knots and links, singular ones
    # included, against bareiss_determinant of the minor of an independently
    # built crossing matrix
    rng = random.Random(22)
    checked = links = zeros = 0
    while checked < 2000:
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 24))]
        d = braid_closure(word, strands)
        matrix = crossing_matrix(d)
        if len(matrix) != len(matrix[0]) or len(matrix) < 2:
            continue
        minor = [row[:-1] for row in matrix[1:]]
        expected = abs(bareiss_determinant(minor))
        assert abs_determinant(sparse(minor)) == expected
        assert link_determinant(d) == expected
        checked += 1
        links += len(components(d)) > 1
        zeros += expected == 0
    assert links > 400 and zeros > 200


@pytest.mark.parametrize("n", [*range(1, 61), 5000])
def test_turks_head_determinants_are_lucas_numbers(n):
    # the closure of (s1 s2^-1)^n: a Turk's head knot, or a 3-component link when 3 | n
    assert link_determinant(braid_closure([1, -2] * n, 3)) == lucas(2 * n) - 2


@given(small_matrices)
@settings(max_examples=100, deadline=None)
def test_diagonalize_is_unimodular_equivalence(m):
    diag, u, v = diagonalize(m)
    d = matmul(matmul(u, m), v)
    n = len(m)
    for i in range(n):
        for j in range(n):
            expect = diag[i] if i == j and i < len(diag) else 0
            assert d[i][j] == expect
    assert abs(bareiss_determinant(u)) == 1
    assert abs(bareiss_determinant(v)) == 1


def sparse(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def brute_count(rows, rhs, n_vars, modulus):
    count = 0
    for x in range(modulus ** n_vars):
        vec = [(x // modulus ** i) % modulus for i in range(n_vars)]
        if all(
            sum(r * v for r, v in zip(row, vec)) % modulus == b % modulus
            for row, b in zip(rows, rhs)
        ):
            count += 1
    return count


def test_solution_counts_match_brute_force():
    rng = random.Random(0)
    for _ in range(60):
        n_vars = rng.randint(1, 3)
        n_rows = rng.randint(0, 3)
        modulus = rng.choice([2, 3, 4, 5, 6, 8, 9, 12])
        rows = [[rng.randint(-4, 4) for _ in range(n_vars)] for _ in range(n_rows)]
        rhs = [rng.randint(0, modulus - 1) for _ in range(n_rows)]
        space = solve_mod(sparse(rows), rhs, n_vars, modulus)
        expected = brute_count(rows, rhs, n_vars, modulus)
        assert space.count == expected
        got = sorted(modular_solutions(space))
        assert len(got) == expected
        assert len(set(got)) == expected
        for vec in got:
            for row, b in zip(rows, rhs):
                assert sum(r * v for r, v in zip(row, vec)) % modulus == b % modulus


def test_composite_counts_match_diagonal_oracle():
    # systems too large to brute-force, over moduli whose pivots are often not units
    rng = random.Random(1)
    for _ in range(80):
        n_vars = rng.randint(2, 7)
        n_rows = rng.randint(1, 8)
        modulus = rng.choice([4, 8, 12, 36, 64, 72, 100, 2 ** 40 * 3 ** 5])
        rows = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n_vars)] for _ in range(n_rows)]
        rhs = [rng.choice([0, rng.randint(0, modulus - 1)]) for _ in range(n_rows)]
        space = solve_mod(sparse(rows), rhs, n_vars, modulus)
        assert space.count == diagonal_count(rows, rhs, n_vars, modulus)
        if space.count:
            for vec in islice(modular_solutions(space), 50):
                for row, b in zip(rows, rhs):
                    assert sum(r * v for r, v in zip(row, vec)) % modulus == b % modulus


def test_invariant_product_of_diag():
    rank, prod = invariant_product([[2, 0], [0, 3]])
    assert rank == 2 and prod == 6
    rank, prod = invariant_product([[2, 4], [0, 0]])
    assert rank == 1 and prod == 2


def test_inconsistent_system_is_empty():
    space = solve_mod([{0: 2}], [1], 1, 4)  # 2x = 1 mod 4 has no solution
    assert space.count == 0
