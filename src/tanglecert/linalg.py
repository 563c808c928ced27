"""Exact linear algebra behind the coloring solvers and determinants.

A crossing matrix is sparse: each row has at most three nonzeros (t, 1 - t
and -1 for an affine quandle; for Fox, t = -1, +2 on the over strand and -1
on each under strand).  Rows are therefore dicts (column -> integer).
solve_mod eliminates over Z/N, so no entry ever exceeds the modulus and
nothing grows with the size of the diagram.

solve_mod brings the augmented system [A | b] to Howell form over Z/N
(Howell 1986; Storjohann and Mulders 1998): an echelon form, pivot at the
leftmost column of each row, in which each pivot row's annihilator multiple
(N/g) * row has been reduced into the rows to its right.  Composite moduli
need no factoring.  When a pivot does not divide the entry below it, one
extended-gcd step (a unimodular 2x2 transform) replaces the pivot by their
gcd, so the pivot's ideal strictly grows.  In Howell form the system is
inconsistent iff some pivot sits in the right-hand-side column.  The
solution count is the product of gcd(pivot, N) over pivot columns times N
per free column.  Back substitution gives a particular solution and one
generator per column of order > 1 (ModularAffineSpace), without
backtracking.  The same form, grown from generators rather than
equations (_Echelon.insert), is a Howell basis of the module they span:
each pivot row times its u is 0 before its pivot column s and g | N at s,
and every element that is 0 before s is a combination of the rows from s
on.  The coloring solvers list a solution set from such a basis by
strand, which gives lexicographic order for every N
(colorings.AffineSpace._walk).

Rows enter the elimination in the order given.  The coloring solvers feed
crossing rows right to left (by decreasing rightmost column), which needs
far fewer reduction steps than crossing order; no answer depends on it.

eliminate_units reduces a matrix once over Z by unit pivots: each row
that holds a +-1 entry, in the given order, clears the column of that
entry the fewest rows hold from every other row, and goes with it.  What
is left (a few rows for a crossing matrix) has the same invariant factors
other than 1, and the same solution count mod every N up to the columns
the pivots fix.  It also returns the pivot record, each pivot's column and
row as they stood when it was chosen; no later pivot touches that row, so
lift_units, back-substituting in reverse pivot order, lifts any solution
mod N on the residual's columns to every column, sparse, over as much of
the record as the caller hands it (one split component's part, say).  The
coloring solvers keep the residual and the record beside the Fox system,
read the link determinant off the residual, and solve every Fox and
affine quandle space on it, one split component at a time, and lift its
basis.

abs_determinant eliminates over Z without fractions (Bareiss 1968), sparse
and column by column, so it needs no modulus: every entry it keeps is a
minor of the matrix, and the entries grow with the determinant, not with
a bound on it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from math import gcd, prod


def bareiss_determinant(matrix: list[list[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free elimination).

    The dense reference: tests and bench/workloads.py::_minor_det compare
    abs_determinant and the benchmark's answers against it.
    """
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------------------
# sparse elimination over Z/N


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _combine(x: int, p: dict[int, int], y: int, r: dict[int, int], n: int) -> dict[int, int]:
    """x*p + y*r mod n, zero entries dropped."""
    out = {}
    for k in p.keys() | r.keys():
        v = (x * p.get(k, 0) + y * r.get(k, 0)) % n
        if v:
            out[k] = v
    return out


class _Echelon:
    """Howell echelon form over Z/n, grown one row at a time.

    rows maps each pivot column to its row, whose leftmost column is that
    pivot; units maps it to (g, u) with g = gcd(pivot, n) and u the inverse
    of pivot/g modulo n/g.
    """

    def __init__(self, n: int):
        self.n = n
        self.rows: dict[int, dict[int, int]] = {}
        self.units: dict[int, tuple[int, int]] = {}

    def _set_pivot(self, c: int, row: dict[int, int], pending: list) -> None:
        n = self.n
        g = gcd(row[c], n)
        self.rows[c] = row
        self.units[c] = (g, pow(row[c] // g, -1, n // g))
        if g > 1:  # the annihilator multiple has a zero pivot; it joins the rows to the right
            pending.append(_combine(n // g, row, 0, {}, n))

    def insert(self, row: dict[int, int]) -> None:
        """Reduce a row (entries already mod n, no zeros) into the form."""
        n = self.n
        pending = [row]
        while pending:
            row = pending.pop()
            while row:
                c = min(row)
                pivot = self.rows.get(c)
                if pivot is None:
                    self._set_pivot(c, row, pending)
                    break
                g, u = self.units[c]
                b = row[c]
                if b % g == 0:
                    q = (b // g) * u % (n // g)
                    for k, v in pivot.items():
                        w = (row.get(k, 0) - q * v) % n
                        if w:
                            row[k] = w
                        else:
                            row.pop(k, None)
                else:  # the pivot's ideal grows to gcd(a, b)
                    a = pivot[c]
                    e, s, t = _xgcd(a, b)
                    self._set_pivot(c, _combine(s, pivot, t, row, n), pending)
                    row = _combine(b // e, pivot, -(a // e), row, n)

    def back_substitute(self, n_vars: int, values: dict[int, int], rhs: bool) -> tuple[int, ...]:
        """The solution with the given free and pivot-offset values (default 0).

        A free column takes its value directly; a pivot column c takes the
        back-substituted value plus (n/g) times its offset, for g = gcd(pivot, n).
        """
        n = self.n
        x = [0] * n_vars
        for c in reversed(range(n_vars)):
            row = self.rows.get(c)
            if row is None:
                x[c] = values.get(c, 0) % n
                continue
            r = row.get(n_vars, 0) if rhs else 0
            for k, v in row.items():
                if c < k < n_vars:
                    r -= v * x[k]
            g, u = self.units[c]
            x[c] = (r % n // g) * u % (n // g) + n // g * values.get(c, 0)
        return tuple(x)


@dataclass
class ModularAffineSpace:
    """The solution set of A*x = b (mod N), exactly counted.

    The count comes straight from the Howell form.  Every solution is
    x0 + sum(l_i * g_i) for exactly one choice of 0 <= l_i < o_i: x0 the
    particular solution, g_i the generator of column c_i, of order o_i > 1.
    columns() lists the (c_i, o_i) and builds nothing; _vector
    back-substitutes x0 or one g_i.
    """

    modulus: int
    n_vars: int
    count: int
    _form: _Echelon | None = None

    def _vector(self, c: int | None) -> tuple[int, ...]:
        """The particular solution (c None) or the generator of column c, back-substituted."""
        return self._form.back_substitute(self.n_vars, {} if c is None else {c: 1}, rhs=c is None)

    def columns(self) -> list[tuple[int, int]]:
        """(column, order) of every generator, by increasing column."""
        form = self._form
        orders = [form.units[c][0] if c in form.rows else self.modulus for c in range(self.n_vars)]
        return [(c, order) for c, order in enumerate(orders) if order > 1]


def solve_mod(rows: list[Mapping[int, int]], rhs: list[int], n_vars: int, modulus: int) -> ModularAffineSpace:
    """Solve rows * x = rhs (mod modulus) for x in (Z/modulus)^n_vars.

    Each row is a sparse mapping (a dict, say), column -> integer
    coefficient; the rows are not changed.  Rows enter
    the elimination in order, so rows that fix single unknowns (pins) are
    cheapest first.
    """
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    form = _Echelon(modulus)
    for row, b in zip(rows, rhs):
        augmented = {c: v % modulus for c, v in row.items() if v % modulus}
        if b % modulus:
            augmented[n_vars] = b % modulus
        if augmented:
            form.insert(augmented)
    if n_vars in form.rows:
        return ModularAffineSpace(modulus, n_vars, 0)
    count = modulus ** (n_vars - len(form.rows)) * prod(g for g, _ in form.units.values())
    return ModularAffineSpace(modulus, n_vars, count, form)


def eliminate_units(
    rows: list[Mapping[int, int]], n_vars: int
) -> tuple[list[dict[int, int]], int, list[tuple[int, dict[int, int]]]]:
    """(residual, n_columns, pivots): the rows left after unit pivots over Z,
    renumbered over the columns left, in order, and the pivot record; the
    rows are not changed.

    The rows are walked once, in their given order.  A row that then holds
    a +-1 entry becomes a pivot: of its unit columns, the one the fewest
    rows hold (ties to the lower column) is cleared from every other row,
    and the pivot row and its column are dropped.  Each dropped column is
    fixed by its pivot row over Z/N for every N, so A*x = 0 and the
    residual have equally many solutions mod N up to those columns; and A
    is equivalent over Z to I (+) residual, so the invariant factors other
    than 1 are the residual's.  Empty rows stay, so a square input gives a
    square residual.  The pivots' product is +-1, so every entry left is a
    minor of the input: the entries grow with the answer, not the matrix.

    pivots lists (column, row) in pivot order, each row as it stood when it
    was chosen (original columns).  No later pivot touches it, and every
    earlier pivot's column was cleared from it, so lift_units reads each
    dropped column off its row in reverse pivot order.
    """
    rows = [{c: v for c, v in row.items() if v} for row in rows]
    holders: dict[int, set[int]] = {}  # column -> the rows that hold it
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    pivots: dict[int, int] = {}  # pivot row -> its column, in pivot order
    for i, pivot in enumerate(rows):
        c, fewest = None, 0
        for k, v in pivot.items():
            if v == 1 or v == -1:
                h = len(holders[k])
                if c is None or h < fewest or h == fewest and k < c:
                    c, fewest = k, h
        if c is None:
            continue
        sign = pivot[c]
        others = holders.pop(c)
        others.discard(i)
        for k in pivot:
            if k != c:
                holders[k].discard(i)
        for j in others:
            row = rows[j]
            f = row.pop(c) * sign  # row - f * pivot is 0 at c
            for k, v in pivot.items():
                if k == c:
                    continue
                w = row.get(k, 0) - f * v
                if w:
                    if k not in row:
                        holders[k].add(j)
                    row[k] = w
                else:
                    del row[k]
                    holders[k].discard(j)
        pivots[i] = c
    dropped = set(pivots.values())
    index = {c: k for k, c in enumerate(c for c in range(n_vars) if c not in dropped)}
    residual = [{index[c]: v for c, v in row.items()} for i, row in enumerate(rows) if i not in pivots]
    return residual, len(index), [(c, rows[i]) for i, c in pivots.items()]


def lift_units(
    pivots: Sequence[tuple[int, Mapping[int, int]]], values: Mapping[int, int], modulus: int
) -> dict[int, int]:
    """The solution mod `modulus` of the rows eliminate_units reduced that
    takes `values` (column -> value) on the residual's columns, as a sparse
    column -> value map, zeros dropped.  `values` must solve the residual
    and give every residual column that a row of `pivots` holds.

    Each dropped column c is set, in reverse pivot order, so that its
    pivot row vanishes: x[c] is minus the row's +-1 at c times the sum of
    the rest of the row.  The row holds only c, later pivots' columns and
    the residual's columns, all set by then.  `pivots` may be the part of
    the record that holds the columns of `values` (one split component's,
    say), which then costs that part's size, not the whole record's.
    """
    x = {c: v % modulus for c, v in values.items()}
    if not any(x.values()):
        return {}  # the rows are homogeneous
    for c, row in reversed(pivots):
        x[c] = r = 0  # its own entry in the row reads 0
        for k, v in row.items():
            r += v * x[k]
        x[c] = -row[c] * r % modulus
    return {c: v for c, v in x.items() if v}


def abs_determinant(rows: list[Mapping[int, int]]) -> int:
    """|det| of the square integer matrix with these sparse rows (columns 0..len(rows)-1).

    Sparse fraction-free elimination over Z (Bareiss 1968); the rows are not
    changed.  Rows wait in buckets by their leftmost column.  Step k takes
    the shortest row of bucket k as pivot, with p_k at column k, and puts
    every other row of the bucket, as (p_k * row - row[k] * pivot) / p_{k-1},
    in the bucket of its new leftmost column.  Every entry is then a minor
    of the matrix, so the divisions are exact.  A row that step j last
    changed is stale at step k by the exact factor p_{k-1} / p_j: the pivot
    is brought current, and the other rows divide by p_j instead.  An empty
    bucket or a row that cancels to nothing means det = 0; otherwise
    |det| = |p_{n-1}|.
    """
    buckets: dict[int, list] = {}  # leftmost column -> [(row, i)], the row current with pivots[i]
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        if not row:
            return 0
        buckets.setdefault(min(row), []).append((row, 0))
    pivots = [1]  # pivots[k + 1] = p_k; pivots[0] = p_{-1} = 1
    for k in range(len(rows)):
        bucket = buckets.pop(k, None)
        if bucket is None:
            return 0
        (pivot, i), *others = sorted(bucket, key=lambda entry: len(entry[0]))
        if i < k:  # bring the pivot current with p_{k-1}
            pivot = {c: v * pivots[k] // pivots[i] for c, v in pivot.items()}
        p = pivot[k]
        for row, i in others:
            a = row[k]
            new = {c: p * v for c, v in row.items()}
            for c, v in pivot.items():
                new[c] = new.get(c, 0) - a * v
            new = {c: v // pivots[i] for c, v in new.items() if v}
            if not new:
                return 0
            buckets.setdefault(min(new), []).append((new, k + 1))
        pivots.append(p)
    return abs(pivots[-1])
