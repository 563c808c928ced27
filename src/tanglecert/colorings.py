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

Beside it the diagram keeps unit residuals (_unit_residual), one per
integer t of the affine row rule, each built on first use: the crossing
rows at t reduced once over Z by unit pivots (linalg.eliminate_units), a
few rows over the columns no pivot fixed, with the pivot record that
lifts a solution on those columns to every strand (linalg.lift_units),
immutable.  An unpinned fox_solution_space count is solve_mod of the
t = -1 residual, exact for every modulus since each eliminated column is
fixed by its unit pivot, and link_determinant is abs_determinant of its
first minor.  Listing Fox colorings, first_nonconstant and
forced_equal_pair read the Howell form of the full rows, built on first
read, which then gives the count too; pinned Fox spaces (the certificate
search, the transport cut) solve the full rows with their pins and never
build a residual.

Quandle colorings generalize this: a crossing forces under_out = under_in
* over (or its right inverse at negative crossings).  Dihedral quandles,
a*b = 2b - a, reproduce Fox colorings and are involutory, so they accept
unoriented diagrams.  An affine (Alexander) quandle of order n,
a*b = t*a + (1-t)*b mod n, dihedral(n) among them, colors by the solutions
of a linear system over Z/n (Inoue 2001), and Fox colorings are its case
t = -1 with signs ignored.  So both share one row rule (_crossing_rows)
and one listing loop (linalg.odometer).  An affine quandle space, pinned
or not, solves the residual at its t, taken in (-n/2, n/2] so that
dihedral(n) reads the Fox one, one split component (strands joined by
crossings) at a time, each pin written as its strand's lift expression
(_split_solve); that gives its count for every n.  For prime n each
component's lifted basis, in reduced row echelon form by strand, and the
odometer over all of them walk the colorings in lexicographic order of
strand values (_lexicographic).  A component that has only the constant
colorings needs no lift: its generator is 1 on it, built when first
stepped.  Every other component's basis is lifted and reduced when the
space is first walked and kept for later walks, at a cost of its size
times its number of generators.  Every other quandle (non-affine tables,
affine ones of composite order, the 1-element one) is listed by one
generator loop over strand indices: a propagation worklist, an undo
trail and an explicit backtracking stack, in the same lexicographic
order.  Each kind has one lazy space, FoxSolutionSpace or QuandleSpace,
with count, colorings() and first_nonconstant(); only a non-affine
table's count runs the search to its end.

Each coloring class carries one protocol: rule(oriented), its colors and
the crossing rule's two directions; kind and key, a certificate's kind and
its JSON key, which one function per kind (_fox_key, _quandle_key) writes
for the coloring and the certificate search alike; description, how text
output names the kind (_fox_description, _quandle_description); involutory, whether
crossing signs may be ignored; and reduce(v), a color as the colors are
kept (a Fox coloring keeps residues mod N).  The one loop that checks the
rule (_broken_crossing) lives here, and moves and persistence name no
coloring class.  A new kind of coloring is one coloring class, one key
and one description function, one space constructor and one entry in the
certificate search's list.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from math import isqrt, prod
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


class _Coloring:
    """What both kinds read off their colors, which compare as they are kept."""

    @property
    def nontrivial(self) -> bool:
        return len(set(self.colors.values())) >= 2

    def witness(self) -> tuple[int, int] | None:
        """The first pair of combinations(sorted(colors), 2) whose colors differ, or
        None: always the smallest label and the first one colored unlike it."""
        colors = self.colors
        labels = sorted(colors)
        return next(((labels[0], b) for b in labels if colors[b] != colors[labels[0]]), None)


def _fox_key(n: int) -> dict:
    """The JSON kind of a Fox coloring mod n, for its certificate and its search entry."""
    return {"fox": n}


def _quandle_key(q: Quandle) -> dict:
    """The JSON kind of a coloring by q, for its certificate and its search entry."""
    return {"quandle": q.name or "table"}


def _fox_description(n: int) -> str:
    """How a Fox coloring mod n names its kind in text output."""
    return f"fox mod {n}"


def _quandle_description(q: Quandle) -> str:
    """How a coloring by q names its kind in text output."""
    return q.name


@dataclass(frozen=True)
class FoxColoring(_Coloring):
    """Colors mod N, kept as residues: any color out of range is reduced when built."""

    modulus: int
    colors: dict[int, int]
    involutory = True  # signs do not enter the rule

    def __post_init__(self):
        n, colors = self.modulus, self.colors
        if min(colors.values(), default=0) < 0 or max(colors.values(), default=0) >= n:
            object.__setattr__(self, "colors", {label: v % n for label, v in colors.items()})

    @property
    def kind(self) -> tuple:
        return ("fox", self.modulus)

    @property
    def key(self) -> dict:
        return _fox_key(self.modulus)

    @property
    def description(self) -> str:
        return _fox_description(self.modulus)

    def reduce(self, v: int) -> int:
        return v % self.modulus

    def rule(self, oriented: bool):
        """(colors, forward, backward): 2*over - under both ways, at any crossing."""
        n = self.modulus
        fox = lambda a, b: (2 * b - a) % n
        return self.colors, fox, fox


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
    """Affine set of Fox colorings of one diagram for one modulus.

    _solve builds the Howell form of every row (pins, then crossings) when
    a read first needs it, and the form then gives the count too.  Without
    pins, a count read before that is _count's: a solve of the diagram's
    unit residual (_unit_residual), so the space never solves its full
    rows for a count alone.  With pins, _count is None and the count is
    the form's.
    """

    diagram: Diagram
    modulus: int
    strands: list[int]
    _col: Mapping[int, int]
    _solve: Callable[[], linalg.ModularAffineSpace]
    _count: Callable[[], int] | None = None

    @cached_property
    def _space(self) -> linalg.ModularAffineSpace:
        return self._solve()

    @cached_property
    def count(self) -> int:
        if self._count is None or "_space" in self.__dict__:
            return self._space.count
        return self._count()

    def colorings(self):
        """Yield every coloring, the coefficient of the last basis generator fastest."""
        for x in self._space.enumerate():
            yield self._expand(x)

    def first_nonconstant(self) -> FoxColoring | None:
        """A nonconstant coloring read off the basis, or None when every coloring is constant.

        The particular solution if it is nonconstant, else the particular
        solution plus the first nonconstant generator.  Nothing is
        enumerated, and generators are built only up to that one.
        """
        space = self._space
        if space.count == 0:
            return None
        particular = space._vector(None)
        if len(set(particular)) >= 2:
            return self._expand(particular)
        for c, _ in space.columns():
            g = space._vector(c)
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
        if self._space.count == 0:
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
    fox = strands, col, _, crossing_rows = _strand_columns(d)
    pins = pins or {}
    for label in pins:
        if label not in col:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
    solve = partial(_pinned_solve, col, pins, crossing_rows, len(strands), modulus)
    count = None if pins else partial(_residual_count, d, fox, modulus)
    return FoxSolutionSpace(d, modulus, list(strands), col, solve, count)


def _pinned_solve(col: Mapping[int, int], pins: Mapping[int, int], rows, n_vars: int, modulus: int):
    """solve_mod on one row per pin (1 at the label's column, its value on the
    right) and then the crossing rows.  Pins go first: each fixes one
    unknown, and eliminating it first adds no fill."""
    rhs = [*pins.values()] + [0] * len(rows)
    return linalg.solve_mod([{col[label]: 1} for label in pins] + list(rows), rhs, n_vars, modulus)


_Units = tuple[tuple[Mapping[int, int], ...], int, tuple[tuple[int, Mapping[int, int]], ...]]


def _unit_residual(d: Diagram, fox: _FoxSystem, t: int = -1) -> _Units:
    """linalg.eliminate_units of d's crossing rows (fox, _strand_columns(d))
    for the affine rule at the integer t (_crossing_rows; Fox is t = -1):
    (residual rows, columns left, pivot record).

    A validated diagram keeps each t's record, immutable, in its instance
    dict under "_units" (t -> record) from the first call on, beside
    "_fox"; an unvalidated one keeps nothing.  At t = -1 the rows are the
    Fox system's, so link_determinant, every unpinned Fox count and every
    dihedral(n) quandle space read one record.
    """
    units = d.__dict__.get("_units", {})
    record = units.get(t)
    if record is None:
        strands, _, triples, rows = fox
        if t != -1:
            rows = _right_to_left(_crossing_rows(triples, d.crossings, t))
        left, n_left, pivots = linalg.eliminate_units(rows, len(strands))
        record = (tuple(map(MappingProxyType, left)), n_left, tuple((c, MappingProxyType(row)) for c, row in pivots))
        if "_valid" in d.__dict__:
            d.__dict__["_units"] = MappingProxyType({**units, t: record})
    return record


def _residual_count(d: Diagram, fox: _FoxSystem, modulus: int) -> int:
    """The number of Fox colorings mod `modulus`, counted on the unit residual:
    each eliminated column is fixed by its unit pivot, so this is exact for
    every modulus."""
    residual, n_left, _ = _unit_residual(d, fox)
    return linalg.solve_mod(residual, [0] * len(residual), n_left, modulus).count


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

    The minor is taken of the unit residual R of A (_unit_residual), not of
    A.  Row operations keep R*1 = 0, since the column dropped with each
    pivot is zero in every remaining row.  If y is the +-1 left null vector
    of A, clearing a pivot's column from the other rows leaves the pivot
    row's coefficient in y*A at 0 (its column is 0 everywhere else), so y
    restricted to R's rows is a +-1 left null vector of R, and all of R's
    first minors agree up to sign.  Unit pivots keep the invariant factors
    (A is equivalent to I (+) R over Z), so |det| is unchanged.  The minor
    is eliminated over Z without fractions, so the cost follows the size of
    the answer.
    """
    if d.boundary:
        raise ColoringError("link determinant is defined for closed diagrams")
    fox = strands, _, _, rows = _strand_columns(d)
    if len(strands) <= 1:
        return 1
    if len(rows) != len(strands):
        return 0
    residual, n_left, _ = _unit_residual(d, fox)
    last = n_left - 1
    # any row may go with the last column: all first minors agree up to sign
    minor = [{c: v for c, v in row.items() if c != last} for row in residual[1:]]
    return linalg.abs_determinant(minor)


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
    if n == 0:
        raise ColoringError("quandle table is empty")
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
class QuandleColoring(_Coloring):
    quandle: Quandle
    colors: dict[int, int]

    @property
    def kind(self) -> tuple:
        return ("quandle", self.quandle)

    @property
    def key(self) -> dict:
        return _quandle_key(self.quandle)

    @property
    def description(self) -> str:
        return _quandle_description(self.quandle)

    @property
    def involutory(self) -> bool:
        return self.quandle.involutory

    def reduce(self, v: int) -> int:
        return v

    def rule(self, oriented: bool):
        """(colors, forward, backward): the table and its inverse; colors range-checked."""
        q, colors = self.quandle, self.colors
        if not oriented and not q.involutory:
            raise ColoringError("orientation required for a non-involutory quandle coloring")
        if min(colors.values(), default=0) < 0 or max(colors.values(), default=0) >= q.size:
            label, v = next((label, v) for label, v in colors.items() if not 0 <= v < q.size)
            raise ColoringError(f"arc {label} has color {v}, outside the quandle")
        table, inverse = q.table, q._inverse
        return colors, (lambda a, b: table[a][b]), (lambda a, b: inverse[a][b])


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

    def forced_equal_pair(self) -> None:
        """None: a quandle search records no clash."""
        return None

    def _expand(self, strand_values) -> QuandleColoring:
        return QuandleColoring(self.quandle, {label: strand_values[c] for label, c in self._col.items()})


def quandle_space(d: Diagram, q: Quandle, pins: dict[int, int] | None = None) -> QuandleSpace:
    """All colorings of d by q with the pinned arcs fixed; clashing pins give the empty space.

    An affine quandle (a * b = t*a + (1-t)*b mod n, dihedral(n) with t = -1)
    is solved over Z/n on the diagram's unit residual at t, one split
    component at a time (_split_solve), which gives count for every n.  For
    prime n the solve also lists (_lexicographic).  Over a composite n a
    Howell basis does not step in lexicographic order, so such a quandle,
    like every non-affine one, is listed by _search.  Each space solves at
    most once, when count or a listing first needs it.

    Non-involutory quandles need an oriented diagram when d has crossings.
    """
    if not q.involutory and d.crossings and not d.oriented:
        raise ColoringError("orientation required for non-involutory quandle colorings")
    pins = pins or {}
    fox = strands, col, triples, _ = _strand_columns(d)
    for label, v in pins.items():
        if label not in col:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
        if not (0 <= v < q.size):
            raise ColoringError(f"pin value {v} outside the quandle")
    pinned = [(col[label], v) for label, v in pins.items()]
    walk = partial(_search, q, triples, d.crossings, len(strands), pinned)
    if q._affine is None:
        return QuandleSpace(q, col, walk, lambda: sum(1 for _ in walk()))
    split = _once(partial(_split_solve, d, fox, q, pinned))
    count = lambda: prod(part[0].count for part in split()[2])  # noqa: E731
    if any(q.size % k == 0 for k in range(2, isqrt(q.size) + 1)):  # composite
        return QuandleSpace(q, col, walk, count)
    basis = _once(partial(_lexicographic, split, q.size))
    return QuandleSpace(q, col, lambda: iter(()) if basis() is None else linalg.odometer(*basis()), count)


def _once(f: Callable[[], object]) -> Callable[[], object]:
    """f, called at most once: every later call returns its first result.
    One is made per space, for less than functools.cache, which copies f's
    metadata."""
    kept = []

    def first():
        if not kept:
            kept.append(f())
        return kept[0]

    return first


# one split component's solve: (solution over its residual columns, its
# name (its smallest strand), its residual columns' strands, whether pinned)
_Part = tuple[linalg.ModularAffineSpace, int, list[int], bool]
_Split = tuple[list[int], tuple[tuple[int, Mapping[int, int]], ...], list[_Part]]


def _split_solve(d: Diagram, fox: _FoxSystem, q: Quandle, pinned) -> _Split:
    """(component, pivots, parts): each strand's split component (strands
    joined by crossings), named by its smallest strand; the pivot record of
    the unit residual at q's t, taken in (-n/2, n/2] so that dihedral(n)
    reads the Fox record; and one part per component, solve_mod of its
    rows of that residual with one row per pin in it first.  The colorings
    by the affine quandle q are the product of the parts' solutions lifted
    to every strand; no row joins two parts, and every part has a residual
    column, since the constant colorings leave no component's rows of full
    rank.

    A pin row is its strand's lift expression over its part's residual
    columns (_pin_rows).  Each eliminated column is fixed by its unit pivot
    mod every n, so the count is exact for composite n too.
    """
    n = q.size
    t = q._affine if 2 * q._affine <= n else q._affine - n
    residual, _, pivots = _unit_residual(d, fox, t)
    component = _split_components(len(fox[0]), fox[2])
    dropped = {c for c, _ in pivots}
    kept = [s for s in range(len(component)) if s not in dropped]
    parts: dict[int, tuple[list, list, list]] = {}  # name -> (residual columns' strands, rows, rhs)
    index = {}  # residual column's strand -> its column in its part
    for s in kept:
        part = parts.setdefault(component[s], ([], [], []))
        index[s] = len(part[0])
        part[0].append(s)
    for (c, v), row in zip(pinned, _pin_rows([c for c, _ in pinned], index, pivots, n)):
        part = parts[component[c]]
        part[1].append(row)
        part[2].append(v)
    pinned_names = {component[c] for c, _ in pinned}
    for row in residual:
        if row:
            part = parts[component[kept[next(iter(row))]]]
            part[1].append({index[kept[j]]: v for j, v in row.items()})
            part[2].append(0)
    solved = [
        (linalg.solve_mod(rows, rhs, len(strands), n), name, strands, name in pinned_names)
        for name, (strands, rows, rhs) in parts.items()
    ]
    return component, pivots, solved


def _split_components(n_strands: int, triples) -> list[int]:
    """Each strand's split component, named by its smallest strand: strands
    that share a crossing share a component.  A union-find whose every link
    points to a smaller strand, so one pass in increasing order resolves it."""
    root = list(range(n_strands))
    for a, b, c in triples:
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        while root[c] != c:
            root[c] = c = root[root[c]]
        m = a if a < b else b
        root[a] = root[b] = root[c] = m if m < c else c
    for s in range(n_strands):
        root[s] = root[root[s]]
    return root


def _pin_rows(columns: list[int], index: Mapping[int, int], pivots, n: int) -> list[dict[int, int]]:
    """Each pinned strand's lift expression mod n over its part's residual
    columns (index: a residual column's strand -> its column in its part).
    A kept strand is its own column; a dropped one is read off its pivot
    row, in one reverse pass over the pivots that the pinned strands reach
    (a pivot row holds only later pivots' columns and kept ones)."""
    expression: dict[int, dict[int, int]] = {}  # dropped strand -> its lift expression
    need = {c for c in columns if c not in index}
    if need:
        for c, row in pivots:
            if c in need:
                need.update(row)
        for c, row in reversed(pivots):
            if c in need:
                e: dict[int, int] = {}
                for k, v in row.items():
                    if k != c:
                        for j, w in (expression[k] if k in expression else {index[k]: 1}).items():
                            e[j] = (e.get(j, 0) - row[c] * v * w) % n
                expression[c] = {j: w for j, w in e.items() if w}
    return [expression[c] if c in expression else {index[c]: 1} for c in columns]


def _lexicographic(split: Callable[[], _Split], p: int):
    """The odometer's arguments (x, orders, vector, p) that list every
    solution mod the prime p, lifted to every strand, in lexicographic
    order, or None when a part has no solution.

    Each part's lifted generators are brought to reduced row echelon form
    in strand order (each is 1 at its pivot strand, 0 at every other pivot
    strand and at every earlier strand), and its lifted particular solution
    is cleared at the pivot strands.  A solution's value at each pivot
    strand is then its coefficient there, and two solutions first differ at
    the pivot strand of their first differing coefficient; so the odometer,
    steps sorted by pivot strand, the first slowest, lists in lexicographic
    order.  An unpinned part with one generator has only the constant
    colorings: its generator is 1 on its component, its pivot strand the
    component's smallest, and it needs no lift; its dense vector is built
    only when the odometer first steps it.  Every other part is lifted and
    reduced here, once per space, at a cost of its size times its number
    of generators.
    """
    component, pivots, parts = split()
    n_vars = len(component)
    x, steps = [0] * n_vars, []  # (pivot strand, sparse generator, or None for a constant one)
    by_part = None  # name -> its part of the pivot record, in pivot order
    for solution, name, kept, pinned in parts:
        if solution.count == 0:
            return None
        columns = solution.columns()
        if not pinned and len(columns) == 1:
            steps.append((name, None))
            continue
        if by_part is None:  # grouped once, when the first part is lifted
            by_part = {}
            for c, row in pivots:
                by_part.setdefault(component[c], []).append((c, row))
        part_pivots = by_part.get(name, ())
        echelon: list[tuple[int, dict[int, int]]] = []
        for c, _ in columns:
            g = linalg.lift_units(part_pivots, dict(zip(kept, solution._vector(c))), p)
            for s, h in echelon:
                g = _clear(g, s, h, p)
            s = min(g)
            inverse = pow(g[s], -1, p)
            g = {k: v * inverse % p for k, v in g.items()}
            echelon = [(r, _clear(h, s, g, p)) for r, h in echelon] + [(s, g)]
        particular = linalg.lift_units(part_pivots, dict(zip(kept, solution._vector(None))), p) if pinned else {}
        for s, g in echelon:
            particular = _clear(particular, s, g, p)
        for s, v in particular.items():
            x[s] = v
        steps += echelon
    steps.sort(key=lambda step: step[0])
    vectors: dict[int, list[int]] = {}  # step -> its dense generator, once stepped

    def vector(i: int) -> list[int]:
        if i not in vectors:
            s, g = steps[i]
            if g is None:
                vectors[i] = [int(name == s) for name in component]
            else:
                vectors[i] = v = [0] * n_vars
                for k, w in g.items():
                    v[k] = w
        return vectors[i]

    return tuple(x), [p] * len(steps), vector, p


def _clear(h: dict[int, int], s: int, g: dict[int, int], p: int) -> dict[int, int]:
    """h minus h[s] times g, mod p, zeros dropped: 0 at s when g is 1 there."""
    f = h.get(s)
    if not f:
        return h
    out = dict(h)
    for k, v in g.items():
        w = (out.get(k, 0) - f * v) % p
        if w:
            out[k] = w
        else:
            del out[k]
    return out


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


def _broken_crossing(d: Diagram, coloring, colors=None):
    """The first crossing of d whose relation the coloring breaks, or None;
    ColoringError when an arc has no color or coloring.rule rejects a value.
    under-out = forward(under-in, over) at a positive or unsigned crossing,
    and under-in = backward(under-out, over); swapped at a negative one.
    colors, when given, is checked by the coloring's rule in place of its
    own colors, which the caller vouches it would accept."""
    values, forward, backward = coloring.rule(d.oriented or not d.crossings)
    if colors is not None:
        values = colors
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
