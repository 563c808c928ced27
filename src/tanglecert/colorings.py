"""Fox colorings, finite quandles, and diagram coloring solvers.

A Fox coloring mod N assigns residues to arcs so that at every crossing the
two under-arc colors sum to twice the over-arc color.  The unknowns are
strand classes (the two over-slot labels of a crossing always share a
color), and the crossing relations form a sparse linear system solved
exactly over Z/N for any modulus, composite or prime (see linalg).
That system (the strand representatives, each label's column, each
crossing's (under-in, over, under-out) columns and the crossing rows in
elimination order) is built once per validated diagram, on the first
solver call, and kept immutable in its instance dict beside the dart
index; quandle_space, fox_matrix, fox_solution_space and
link_determinant all read it.  Crossing rows enter the elimination right
to left, in decreasing order of their rightmost column, so an incoming
row mostly meets columns no pivot holds yet.

Quandle colorings generalize this: a crossing forces under_out = under_in
* over (or its right inverse at negative crossings).  Dihedral quandles,
a*b = 2b - a, reproduce Fox colorings and are involutory, so they accept
unoriented diagrams.  An affine (Alexander) quandle of order n,
a*b = t*a + (1-t)*b mod n, dihedral(n) among them, colors by the solutions
of a linear system over Z/n (Inoue 2001), and Fox colorings are its case
t = -1 with signs ignored.  So both share one row rule (_crossing_rows),
one pinned solve (_pinned_solve: pin rows, then crossing rows, into
linalg.solve_mod) and one walk over the basis (ModularAffineSpace.enumerate).
The caller picks the walk order by the generator list it hands over: Fox
walks the generators by increasing column, the last fastest; the affine
solve of prime order numbers strands backwards and walks the generators
reversed, which lists its colorings in lexicographic order of strand
values.  Every other quandle (non-affine tables, affine ones of composite
order, the 1-element one) is listed by one generator loop over strand
indices: a propagation worklist, an undo trail and an explicit
backtracking stack, in the same lexicographic order.  Each kind has one
lazy space, FoxSolutionSpace or QuandleSpace, with count, colorings() and
first_nonconstant(); only a non-affine table's count runs the search to
its end.

The crossing rule (_crossing_rule) and the one loop that checks it
(_broken_crossing) live here, for both kinds; moves and persistence call them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from math import isqrt
from types import MappingProxyType

from . import linalg
from .diagram import Diagram, _find, _union, strand_classes

__all__ = [
    "ColoringError",
    "FoxColoring",
    "FoxSolutionSpace",
    "Quandle",
    "QuandleAxiomError",
    "QuandleColoring",
    "QuandleSearch",
    "QuandleSpace",
    "determinant",
    "dihedral",
    "fox_matrix",
    "fox_solution_space",
    "has_nontrivial_fox",
    "link_determinant",
    "parse_quandle",
    "quandle_colorings",
    "quandle_space",
    "validate_quandle",
    "verify_coloring",
]

class ColoringError(ValueError):
    pass


class QuandleAxiomError(ColoringError):
    def __init__(self, axiom: str, witness: tuple):
        super().__init__(f"quandle axiom violated ({axiom}) at {witness}")
        self.axiom = axiom
        self.witness = witness


@dataclass(frozen=True)
class FoxColoring:
    modulus: int
    colors: dict[int, int]

    @property
    def nontrivial(self) -> bool:
        return len({v % self.modulus for v in self.colors.values()}) >= 2

    def witness(self) -> tuple[int, int] | None:
        """A pair of arcs with distinct colors mod N, smallest labels first."""
        return _witness(self.colors, self.modulus)


def fox_matrix(d: Diagram) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse integer crossing matrix (rows: crossings, columns: strand classes).

    Each row is a dict, column -> coefficient: +2 on the over strand and -1
    on each under strand, summed when strands coincide (zeros dropped).
    Returns (rows, ordered strand representatives), both fresh copies.
    """
    strands, _, triples, _ = _strand_columns(d)
    return _crossing_rows(triples, d.crossings), list(strands)


_FoxSystem = tuple[
    tuple[int, ...],
    Mapping[int, int],
    tuple[tuple[int, int, int], ...],
    tuple[Mapping[int, int], ...],
]


def _strand_columns(d: Diagram) -> _FoxSystem:
    """(strands, col, triples, rows): the strand representatives in order,
    each label's column (the index of its strand), each crossing's
    (under-in, over, under-out) columns, and the crossing rows right to left.

    A validated diagram keeps the system in its instance dict under "_fox"
    from the first call on; an unvalidated one keeps nothing.
    """
    system = d.__dict__.get("_fox")
    if system is None:
        rep = strand_classes(d)
        strands = tuple(sorted(set(rep.values())))
        index = {s: i for i, s in enumerate(strands)}
        col = {label: index[r] for label, r in rep.items()}
        triples = tuple((col[a], col[b], col[c]) for a, b, c, _ in [x.slots for x in d.crossings])
        rows = _right_to_left(_crossing_rows(triples, d.crossings))
        system = (strands, MappingProxyType(col), triples, tuple(map(MappingProxyType, rows)))
        if "_valid" in d.__dict__:
            d.__dict__["_fox"] = system
    return system


def _crossing_rows(triples, crossings, t: int = -1) -> list[dict[int, int]]:
    """One row per crossing of the affine rule under-out = t*under-in + (1-t)*over:
    t*under-in + (1-t)*over - under-out, the under columns swapped at a
    negative crossing, entries on a shared column summed and zeros dropped.
    Fox is t = -1: +2 on the over strand and -1 on each under strand,
    whatever the sign.
    """
    rows = []
    for (u_in, over, u_out), x in zip(triples, crossings):
        if x.sign < 0:
            u_in, u_out = u_out, u_in
        row = {over: 1 - t}
        row[u_in] = row.get(u_in, 0) + t
        row[u_out] = row.get(u_out, 0) - 1
        rows.append(row if all(row.values()) else {c: v for c, v in row.items() if v})
    return rows


def _right_to_left(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """The rows by decreasing rightmost column, ties in their given order.

    Each pivot sits at its row's leftmost column, so in this order an
    incoming row's leftmost column is more often still free and the row
    becomes a pivot without reduction steps.  The Howell form's pivot
    columns and gcds and the back-substituted basis depend only on the row
    space, so no answer depends on the order.
    """
    return sorted(rows, key=lambda row: max(row, default=-1), reverse=True)


@dataclass
class FoxSolutionSpace:
    """Affine set of Fox colorings of one diagram for one modulus."""

    diagram: Diagram
    modulus: int
    strands: list[int]
    _space: linalg.ModularAffineSpace
    _col: Mapping[int, int]

    @property
    def count(self) -> int:
        return self._space.count

    def colorings(self):
        """Yield every coloring, the coefficient of the last basis generator fastest."""
        for x in self._space.enumerate():
            yield self._expand(x)

    def first_nonconstant(self) -> FoxColoring | None:
        """A nonconstant coloring read off the basis, or None when every coloring is constant.

        The particular solution if it is nonconstant, else the particular
        solution plus the first nonconstant generator.  Nothing is enumerated.
        """
        if self.count == 0:
            return None
        particular, generators = self._space.basis()
        if len(set(particular)) >= 2:
            return self._expand(particular)
        for g, _ in generators:
            if len(set(g)) >= 2:  # the particular solution is constant, so particular + g is not
                return self._expand(tuple((a + b) % self.modulus for a, b in zip(particular, g)))
        return None

    def forced_equal_pair(self) -> tuple[int, int] | None:
        """Two distinct strands that receive equal colors in every solution.

        This is the propagation clash behind a failed certificate search:
        the boundary pins force two internal arcs to agree, collapsing every
        coloring to a constant one.  Two strands agree in every solution iff
        they agree in the particular solution and in every generator.
        Returns the lexicographically first such pair, or None when the
        space is empty or has no such pair.
        """
        if self.count == 0:
            return None
        particular, generators = self._space.basis()
        groups: dict[tuple, list[int]] = {}
        for i in range(len(self.strands)):
            key = (particular[i],) + tuple(g[i] for g, _ in generators)
            groups.setdefault(key, []).append(i)
        pairs = [g[:2] for g in groups.values() if len(g) >= 2]
        if not pairs:
            return None
        i, j = min(pairs)
        return (self.strands[i], self.strands[j])

    def _expand(self, strand_values) -> FoxColoring:
        return FoxColoring(self.modulus, {label: strand_values[c] for label, c in self._col.items()})


def fox_solution_space(d: Diagram, modulus: int, pins: dict[int, int] | None = None) -> FoxSolutionSpace:
    """All Fox colorings of d mod `modulus` with the pinned arcs fixed.

    Inconsistent pins give the empty space (count 0), not an error.
    """
    if modulus < 2:
        raise ColoringError("modulus must be at least 2")
    strands, col, _, crossing_rows = _strand_columns(d)
    pins = pins or {}
    for label in pins:
        if label not in col:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
    space = _pinned_solve(col, pins, crossing_rows, len(strands), modulus)
    return FoxSolutionSpace(d, modulus, list(strands), space, col)


def _pinned_solve(col: Mapping[int, int], pins: Mapping[int, int], rows, n_vars: int, modulus: int):
    """solve_mod on one row per pin (1 at the label's column, its value on the
    right) and then the crossing rows.  Pins go first: each fixes one
    unknown, and eliminating it first adds no fill."""
    rhs = [*pins.values()] + [0] * len(rows)
    return linalg.solve_mod([{col[label]: 1} for label in pins] + list(rows), rhs, n_vars, modulus)


def has_nontrivial_fox(d: Diagram, modulus: int) -> bool:
    """True iff some coloring mod `modulus` uses at least two colors.

    The constant colorings are always present, so this is simply
    count > modulus.
    """
    return fox_solution_space(d, modulus).count > modulus


def _require_closed_knot(d: Diagram) -> None:
    from .diagram import components

    if d.boundary:
        raise ColoringError("determinant is defined for closed diagrams")
    if len(components(d)) != 1:
        raise ColoringError("determinant of multi-component links is not exposed")


def determinant(d: Diagram) -> int:
    """Knot determinant: the absolute value of a first minor of the crossing matrix.

    The crossing-free unknot returns 1 by the empty-matrix convention.
    """
    _require_closed_knot(d)
    return link_determinant(d)


def link_determinant(d: Diagram) -> int:
    """First-minor determinant extended to links; 0 when the corank exceeds 1.

    Nontrivial colorings mod p exist iff p divides this value (with the
    convention that everything divides 0), uniformly over component counts.

    The crossing matrix A has A*1 = 0 and, from the one redundant crossing
    relation, a left null vector with entries +-1; so all first minors of a
    square A agree up to sign, and |any first minor| is the product of the
    invariant factors when the corank is 1, and 0 when it is larger.  A
    has more strands than crossings exactly when some component never
    passes under another; with another component present the diagram is
    split, and the corank is at least 2.
    """
    if d.boundary:
        raise ColoringError("link determinant is defined for closed diagrams")
    strands, _, _, rows = _strand_columns(d)
    if len(strands) <= 1:
        return 1
    if len(rows) != len(strands):
        return 0
    last = len(strands) - 1
    # any row may go with the last column: all first minors agree up to sign
    minor = [{c: v for c, v in row.items() if c != last} for row in rows[1:]]
    return linalg.abs_determinant(_right_to_left(minor))


# ---------------------------------------------------------------------------
# quandles, and the crossing rule of both kinds of coloring


@dataclass(frozen=True)
class Quandle:
    """Finite quandle given by its Cayley table, table[a][b] = a * b; validated when built.

    involutory ((a * b) * b = a throughout) is an attribute, set when built.
    """

    table: tuple[tuple[int, ...], ...]
    name: str = ""

    def __post_init__(self):
        """Validate the table once and keep what the solvers read of it: the
        right inverse (_inverse[a * b][b] = a), whether it is involutory, and
        _affine, which is t when a * b = t*a + (1-t)*b mod n throughout for
        the size n > 1 (t = 1 * 0), else None."""
        validate_quandle(self)
        inverse = [list(row) for row in self.table]
        for a, row in enumerate(self.table):
            for b, c in enumerate(row):
                inverse[c][b] = a
        object.__setattr__(self, "_inverse", tuple(map(tuple, inverse)))
        table, n = self.table, self.size
        involutory = all(table[table[a][b]][b] == a for a in range(n) for b in range(n))
        object.__setattr__(self, "involutory", involutory)
        t = table[1][0] if n > 1 else None
        affine = n > 1 and all(table[a][b] == (t * a + (1 - t) * b) % n for a in range(n) for b in range(n))
        object.__setattr__(self, "_affine", t if affine else None)

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int, b: int) -> int:
        """The unique c with c * b = a."""
        return self._inverse[a][b]

    def orbit_representatives(self) -> list[int]:
        """One element per orbit of the right-translation action."""
        parent: dict[int, int] = {}
        for a, row in enumerate(self.table):
            for c in row:
                _union(parent, a, c)
        return sorted({_find(parent, a) for a in range(self.size)})


def validate_quandle(q: Quandle) -> None:
    n = q.size
    for a, row in enumerate(q.table):
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise QuandleAxiomError("table shape", (a,))
    for a in range(n):
        if q.table[a][a] != a:
            raise QuandleAxiomError("idempotence", (a,))
    for b in range(n):
        if len({q.table[a][b] for a in range(n)}) != n:
            raise QuandleAxiomError("right-invertibility", (b,))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if q.table[q.table[a][b]][c] != q.table[q.table[a][c]][q.table[b][c]]:
                    raise QuandleAxiomError("self-distributivity", (a, b, c))


def dihedral(n: int) -> Quandle:
    """The dihedral quandle on Z/n: a * b = 2b - a."""
    if n < 2:
        raise ColoringError("dihedral quandle needs n >= 2")
    table = tuple(tuple((2 * b - a) % n for b in range(n)) for a in range(n))
    return Quandle(table, name=f"dihedral-{n}")


def parse_quandle(text: str, name: str = "") -> Quandle:
    """Read the 'Q n' + n rows file format and validate the table."""
    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if len(tokens) < 2 or tokens[0] != "Q" or not tokens[1].isdecimal():
        raise ColoringError("quandle file must start with 'Q n'")
    n = int(tokens[1])
    body = tokens[2:]
    if len(body) != n * n:
        raise ColoringError(f"quandle table needs {n * n} entries, got {len(body)}")
    try:
        values = [int(t) for t in body]
    except ValueError as exc:
        raise ColoringError(f"bad quandle entry: {exc}") from None
    table = tuple(tuple(values[i * n: (i + 1) * n]) for i in range(n))
    return Quandle(table, name=name)


@dataclass(frozen=True)
class QuandleColoring:
    quandle: Quandle
    colors: dict[int, int]

    @property
    def nontrivial(self) -> bool:
        return len(set(self.colors.values())) >= 2

    def witness(self) -> tuple[int, int] | None:
        """A pair of arcs with distinct colors, smallest labels first."""
        return _witness(self.colors)


def _witness(colors: Mapping[int, int], modulus: int | None = None) -> tuple[int, int] | None:
    """The first pair of combinations(sorted(colors), 2) whose colors differ
    (mod modulus, when given), or None.  That pair is always the smallest
    label and the first label colored unlike it, so one pass finds it."""
    labels = sorted(colors)
    for b in labels:
        diff = colors[b] - colors[labels[0]]
        if diff and (modulus is None or diff % modulus):
            return (labels[0], b)
    return None


@dataclass
class QuandleSpace:
    """One diagram's colorings by one quandle, walked lazily as strand-value
    tuples in lexicographic order; a dict is built only per coloring taken."""

    quandle: Quandle
    _col: Mapping[int, int]  # label -> its strand's position in the walked tuples
    _walk: Callable[[], Iterator[tuple[int, ...]]]
    _count: Callable[[], int]

    @cached_property
    def count(self) -> int:
        """By elimination for an affine quandle, else a walk to the end of the search that builds no dicts."""
        return self._count()

    def colorings(self) -> Iterator[QuandleColoring]:
        """Yield every coloring, in lexicographic order of strand values."""
        for x in self._walk():
            yield self._expand(x)

    def first_nonconstant(self) -> QuandleColoring | None:
        """The lexicographically first nonconstant coloring, or None when every coloring is constant."""
        return next((self._expand(x) for x in self._walk() if len(set(x)) >= 2), None)

    def _expand(self, strand_values) -> QuandleColoring:
        return QuandleColoring(self.quandle, {label: strand_values[c] for label, c in self._col.items()})


def quandle_space(d: Diagram, q: Quandle, pins: dict[int, int] | None = None) -> QuandleSpace:
    """All colorings of d by q with the pinned arcs fixed; clashing pins give the empty space.

    An affine quandle (a * b = t*a + (1-t)*b mod n, dihedral(n) with t = -1)
    is solved over Z/n (Howell form for composite n), which gives count.  For
    prime n the solve also lists: the rows are those of _crossing_rows at t on
    reversed columns (strand s is column k-1-s of k), so each pivot is a later
    strand than its row's other entries and each generator is 1 at its own
    free strand and 0 at every other and every earlier one, where the
    particular solution is 0 at every free strand.  The generators' coefficients
    by increasing free strand are then the free strands' values, and the walk
    over the reversed columns() is lexicographic.  Over a composite n they do
    not step in that order, so every other quandle is listed by _search.

    Non-involutory quandles need an oriented diagram when d has crossings.
    """
    if not q.involutory and d.crossings and not d.oriented:
        raise ColoringError("orientation required for non-involutory quandle colorings")
    pins = pins or {}
    strands, col, triples, _ = _strand_columns(d)
    for label, v in pins.items():
        if label not in col:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
        if not (0 <= v < q.size):
            raise ColoringError(f"pin value {v} outside the quandle")
    pinned = [(col[label], v) for label, v in pins.items()]
    walk = partial(_search, q, triples, d.crossings, len(strands), pinned)
    if q._affine is None:
        return QuandleSpace(q, col, walk, lambda: sum(1 for _ in walk()))
    last = len(strands) - 1
    at = {label: last - c for label, c in col.items()}
    reversed_triples = [(last - a, last - b, last - c) for a, b, c in triples]
    rows = _right_to_left(_crossing_rows(reversed_triples, d.crossings, q._affine))
    solve = partial(_pinned_solve, at, pins, rows, len(strands), q.size)
    if any(q.size % k == 0 for k in range(2, isqrt(q.size) + 1)):  # composite
        return QuandleSpace(q, col, walk, lambda: solve().count)
    solution = solve()
    columns = solution.columns()[::-1] if solution.count else []
    return QuandleSpace(q, at, partial(solution.enumerate, columns), lambda: solution.count)


def _search(q: Quandle, triples, crossings, n_strands: int, pinned) -> Iterator[tuple[int, ...]]:
    """Yield every tuple of strand values that colors the diagram by q, in
    lexicographic order, the pinned (strand, value) pairs fixed.

    One loop, no recursion: assigning a value pushes the strand onto a
    worklist, a crossing whose over strand and one under strand are known
    forces the other, and every assignment goes on an undo trail.  The
    search is a stack of (strand, next value, trail length) that branches
    on the first free strand.
    """
    # a rule is (under-in, over, under-out, forward table, backward table): at a
    # positive crossing under-out = under-in * over, at a negative one the inverse
    table, inverse = q.table, q._inverse
    rules: list[list[tuple]] = [[] for _ in range(n_strands)]
    for (u_in, over, u_out), x in zip(triples, crossings):
        forward, backward = (table, inverse) if x.sign >= 0 else (inverse, table)
        rule = (u_in, over, u_out, forward, backward)
        for s in {u_in, over, u_out}:
            rules[s].append(rule)
    value: list[int | None] = [None] * n_strands
    trail: list[int] = []

    def assign(s: int, v: int) -> bool:
        """Give strand s the value v and every value it forces; False on a clash."""
        if value[s] is not None:
            return value[s] == v
        value[s] = v
        trail.append(s)
        work = [s]
        while work:
            for u_in, over, u_out, forward, backward in rules[work.pop()]:
                a, b, c = value[u_in], value[over], value[u_out]
                if b is None or a is None and c is None:
                    continue
                t, want = (u_in, backward[c][b]) if a is None else (u_out, forward[a][b])
                if value[t] is None:
                    value[t] = want
                    trail.append(t)
                    work.append(t)
                elif value[t] != want:
                    return False
        return True

    def first_free(start: int) -> int:
        return next((s for s in range(start, n_strands) if value[s] is None), n_strands)

    if not all(assign(s, v) for s, v in pinned):
        return
    stack = [(first_free(0), 0, len(trail))]
    while stack:
        s, v, mark = stack.pop()
        for t in trail[mark:]:
            value[t] = None
        del trail[mark:]
        if s == n_strands:  # every strand has a value
            yield tuple(value)
        elif v < q.size:
            stack.append((s, v + 1, mark))
            if assign(s, v):
                stack.append((first_free(s + 1), 0, len(trail)))


@dataclass
class QuandleSearch:
    """Every coloring of a quandle_space, listed."""

    colorings: list[QuandleColoring]
    complete: bool = True

    def __iter__(self):
        return iter(self.colorings)

    def __len__(self):
        return len(self.colorings)


def quandle_colorings(d: Diagram, q: Quandle, pins: dict[int, int] | None = None) -> QuandleSearch:
    """Every coloring of quandle_space(d, q, pins), listed eagerly; the package
    calls quandle_space.  Kept for the benchmark, which reads len(), iterates
    and pops from .colorings; ROADMAP item 9's benchmark change can delete it."""
    return QuandleSearch(list(quandle_space(d, q, pins).colorings()))


def _crossing_rule(coloring, oriented: bool):
    """(values, forward, backward): the colors as the rule reads them, reduced
    mod N (Fox) or range-checked (quandle; the coloring's own dict when
    unchanged), and the rule: under-out = forward(under-in, over) and
    under-in = backward(under-out, over) at a positive or unsigned crossing,
    swapped at a negative one.  Fox: 2*over - under both ways.  Quandle: the
    table and its inverse, so a non-involutory one needs an oriented diagram.
    """
    colors = coloring.colors
    low, high = min(colors.values(), default=0), max(colors.values(), default=0)
    if isinstance(coloring, FoxColoring):
        n = coloring.modulus
        if low < 0 or high >= n:
            colors = {label: v % n for label, v in colors.items()}
        fox = lambda a, b: (2 * b - a) % n
        return colors, fox, fox
    q = coloring.quandle
    if not oriented and not q.involutory:
        raise ColoringError("orientation required for a non-involutory quandle coloring")
    if low < 0 or high >= q.size:
        label, v = next((label, v) for label, v in colors.items() if not 0 <= v < q.size)
        raise ColoringError(f"arc {label} has color {v}, outside the quandle")
    table, inverse = q.table, q._inverse
    return colors, (lambda a, b: table[a][b]), (lambda a, b: inverse[a][b])


def _broken_crossing(d: Diagram, coloring):
    """The first crossing of d whose relation the coloring breaks, or None;
    ColoringError when an arc has no color or the rule rejects a value."""
    values, forward, backward = _crossing_rule(coloring, d.oriented or not d.crossings)
    get, broken = values.__getitem__, None
    try:
        for x in d.crossings:  # every one, so that a missing color anywhere raises
            a, b, c, e = map(get, x.slots)
            if broken is None and (b != e or c != (forward if x.sign >= 0 else backward)(a, b)):
                broken = x
        for label in (*d.circles, *d.boundary):  # circles and crossing-free strands
            get(label)
    except KeyError as exc:
        raise ColoringError(f"no color assigned to arc {exc.args[0]}") from None
    return broken


def verify_coloring(d: Diagram, coloring) -> bool:
    """Check a Fox or quandle coloring against every crossing of d."""
    return _broken_crossing(d, coloring) is None
