import random
from itertools import islice
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import cofactor_det, diagonal_count, diagonalize, invariant_product
from tanglecert import linalg
from tanglecert.braids import braid_closure
from tanglecert.colorings import link_determinant
from tanglecert.linalg import (
    DeterminantBoundExceeded,
    abs_determinant,
    bareiss_determinant,
    solve_mod,
)


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
    # 3^40 needs more than the 64-bit prime at the head of the table
    m = [{i: 3} for i in range(40)]
    assert abs_determinant(m) == 3 ** 40
    assert abs_determinant([{0: 1, 1: 2}, {0: 2, 1: 4}]) == 0


def test_a_bound_past_the_largest_listed_prime_is_a_named_limit():
    # one row: |det| is its entry, which is also its Hadamard bound H, and
    # the largest listed prime, 2^44497 - 1, must exceed 2H
    assert abs_determinant([{0: (1 << 44496) - 1}]) == (1 << 44496) - 1
    with pytest.raises(DeterminantBoundExceeded, match="a prime of 44498 bits, past the 44497-bit limit"):
        abs_determinant([{0: 1 << 44496}])


def test_every_listed_proth_prime_is_proved_prime():
    assert len(linalg._PROTH) == len(linalg._PRIMES) - len(linalg._MERSENNE_EXPONENTS)
    for (k, m, a), p in zip(linalg._PROTH, linalg._PRIMES):
        assert p == k * 2 ** m + 1
        assert k % 2 == 1 and 0 < k < 2 ** m
        assert pow(a, (p - 1) // 2, p) == p - 1  # Proth's theorem: p is prime


def test_listed_primes_are_at_most_32_bits_apart_up_to_1024_bits():
    bits = [p.bit_length() for p in linalg._PRIMES]
    assert bits == sorted(bits)
    assert bits[0] <= 64
    top = next(i for i, b in enumerate(bits) if b >= 1024)
    assert all(b - a <= 32 for a, b in zip(bits[: top + 1], bits[1 : top + 1]))
    assert [(1 << e) - 1 for e in linalg._MERSENNE_EXPONENTS] == list(linalg._PRIMES[top + 1 :])


def test_the_determinant_prime_is_the_first_above_its_bound(monkeypatch):
    rng = random.Random(150)
    word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(150)]
    d = braid_closure(word, 3)
    minors, moduli = [], []
    abs_determinant = linalg.abs_determinant

    def recording_determinant(rows):
        minors.append(rows)
        return abs_determinant(rows)

    class Recording(linalg._Echelon):
        def __init__(self, n):
            moduli.append(n)
            super().__init__(n)

    monkeypatch.setattr(linalg, "abs_determinant", recording_determinant)
    monkeypatch.setattr(linalg, "_Echelon", Recording)
    link_determinant(d)
    (minor,) = minors
    assert len(minor) == 149
    squared = prod(sum(v * v for v in row.values()) for row in minor)  # H^2
    assert moduli == [next(p for p in linalg._PRIMES if p * p > 4 * squared)]
    assert moduli[0].bit_length() <= 232 < 521


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
        got = sorted(space.enumerate())
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
            for vec in islice(space.enumerate(), 50):
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
