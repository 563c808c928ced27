"""Fox colorings, finite quandles, and diagram coloring solvers.

A Fox coloring mod N assigns residues to arcs so that at every crossing the
two under-arc colors sum to twice the over-arc color.  The unknowns are
strand classes (the two over-slot labels of a crossing always share a
color), and the crossing relations form a sparse linear system solved
exactly over Z/N for any modulus, composite or prime (see linalg).
Its columns (the strand representatives, each label's column and each
crossing's (under-in, over, under-out) columns) are built once per
validated diagram, on the first solver call, and kept immutable in its
instance dict beside the dart index; quandle_space, fox_solution_space
and link_determinant all read them.

Beside them the diagram keeps unit residuals (_unit_residual), one per
integer t of the affine row rule, each built on first use: the crossing
rows at t, written by one rule (_crossing_rows) for every t, Fox's t = -1
included, and put right to left, reduced once over Z by unit pivots
(linalg.eliminate_units), a few rows over the columns no pivot fixed,
with the pivot record that lifts a solution on those columns to every
strand (linalg.lift_units), immutable.  link_determinant is
abs_determinant of the t = -1 residual's first minor.  Beside each
residual the diagram keeps its split (_split): each strand's split
component (strands joined by crossings), and the residual's rows,
columns and pivots grouped by component.

Quandle colorings generalize Fox colorings: a crossing forces under_out =
under_in * over (or its right inverse at negative crossings).  Dihedral
quandles, a*b = 2b - a, reproduce Fox colorings and are involutory, so
they accept unoriented diagrams.  An affine (Alexander) quandle of order
n, a*b = t*a + (1-t)*b mod n, dihedral(n) among them, colors by the
solutions of a linear system over Z/n (Inoue 2001), and Fox colorings are
its case t = -1 with signs ignored.  So both share one row rule
(_crossing_rows) and one space, AffineSpace (also named
FoxSolutionSpace), which fox_solution_space builds at t = -1 and
quandle_space at the quandle's t, taken in (-n/2, n/2] so that
dihedral(n) reads the Fox residual.  A space solves once, when count or
a listing first needs it: each split part's residual rows with its pins
written as their strands' lift expressions (_pin_rows), over Z/n for
every n, composite or prime, so count is the product of the parts'
counts.  Its first listing lifts each part's generators to every strand
into one Howell form by strand (linalg._Echelon), and one odometer walks
it in lexicographic order of strand values for every n, re-basing each
faster generator at its pivot strand whenever a slower one steps
(AffineSpace._walk).  first_nonconstant is the listing's first
nonconstant coloring, and forced_equal_pair reads the same basis.  A part
that has only the constant colorings needs no lift: its generator is 1
on it.  Every other quandle (a non-affine table, the 1-element one) is
listed by one generator loop over strand indices: a propagation
worklist, an undo trail and an explicit backtracking stack, in the same
lexicographic order (QuandleSpace); only its count runs the search to
its end.  Both spaces have count, colorings(), first_nonconstant() and
forced_equal_pair().

Each coloring class carries one protocol: rule(oriented), its colors and
the crossing rule's two directions; kind and key, a certificate's kind and
its JSON key, which one function per kind (_fox_key, _quandle_key) writes
for the coloring and the certificate search alike; description, how text
output names the kind ("fox mod N" or the quandle's name); involutory,
whether crossing signs may be ignored; and reduce(v), a color as the
colors are kept (a Fox coloring keeps residues mod N).  The one loop that
checks the rule (_broken_crossing) lives here, and moves and persistence
name no coloring class.  A new kind of coloring is one coloring class,
one key function, one space constructor and one entry in the certificate
search's list; a new affine kind (block rows over Z/p, say) is a row
rule that AffineSpace solves and lists.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import repeat
from math import prod
from types import MappingProxyType

from . import linalg
from .diagram import Diagram, _find, _union, strand_classes

__all__ = [
    "AffineSpace",
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
        return f"fox mod {self.modulus}"

    def reduce(self, v: int) -> int:
        return v % self.modulus

    def rule(self, oriented: bool):
        """(colors, forward, backward): 2*over - under both ways, at any crossing."""
        n = self.modulus
        fox = lambda a, b: (2 * b - a) % n
        return self.colors, fox, fox


_FoxSystem = tuple[tuple[int, ...], Mapping[int, int], tuple[tuple[int, int, int], ...]]


def _strand_columns(d: Diagram) -> _FoxSystem:
    """(strands, col, triples): the strand representatives in order, each
    label's column (the index of its strand), and each crossing's (under-in,
    over, under-out) columns.

    A validated diagram keeps them in its instance dict under "_fox" from
    the first call on; an unvalidated one keeps nothing.
    """
    system = d.__dict__.get("_fox")
    if system is None:
        rep = strand_classes(d)
        strands = tuple(sorted(set(rep.values())))
        index = {s: i for i, s in enumerate(strands)}
        col = {label: index[r] for label, r in rep.items()}
        triples = tuple((col[a], col[b], col[c]) for a, b, c, _ in [x.slots for x in d.crossings])
        system = (strands, MappingProxyType(col), triples)
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

    eliminate_units takes its pivots in row order, and a pivot row keeps
    the columns of later pivots, so the order sets how long a chain of
    pivot rows a pin on a dropped strand reads (_pin_rows).  On the
    3,001-crossing N(R(1501) + R(1, 1499)), a sum of two twist regions, the
    smallest arc's pin mod 3 reads 1 pivot row of 2,999 in this order and
    all 2,999 in crossing order (0.3 ms against 7.7-9.2 ms, Python 3.11 on
    a shared 2-CPU host).  The residual's solutions lifted to every strand
    are the rows' solutions, whichever pivots were taken, so no answer
    depends on the order.
    """
    return sorted(rows, key=lambda row: max(row, default=-1), reverse=True)


@dataclass
class AffineSpace:
    """The colorings of one diagram by one affine rule mod n with some arcs
    pinned: Fox colorings mod n (t = -1), or an affine quandle's (t, n).

    The space solves when count or a listing first needs it: the kept
    split of the unit residual at t (_split), one part per split
    component, each with its pin rows (_pin_rows), so count is the product
    of the parts' counts.  The first listing or forced_equal_pair lifts
    each part's generators to every strand (linalg.lift_units) into one
    Howell form over strand columns and keeps it (_basis).  colorings()
    walks it in lexicographic order of strand values for every n
    (_walk), and first_nonconstant is that walk's first nonconstant
    coloring.  FoxSolutionSpace names this class too.
    """

    diagram: Diagram
    modulus: int
    strands: list[int]
    _col: Mapping[int, int]
    _coloring: Callable[[dict[int, int]], object]  # colors -> a FoxColoring or a QuandleColoring
    _fox: _FoxSystem
    _t: int
    _pinned: list[tuple[int, int]]  # (column, value)

    @cached_property
    def _parts(self) -> list[tuple[linalg.ModularAffineSpace, _Part, bool]]:
        """(solution, part, pinned) per part of the split: solve_mod of its
        pin rows, then its residual rows, over its kept strands."""
        n = self.modulus
        component, index, parts, pivots = _split(self.diagram, self._fox, self._t)
        pins: dict[int, tuple[list, list]] = {}  # part name -> (pin rows, values)
        for (c, v), row in zip(self._pinned, _pin_rows([c for c, _ in self._pinned], index, pivots, n)):
            rows, values = pins.setdefault(component[c], ([], []))
            rows.append(row)
            values.append(v)
        out = []
        for name, part in parts.items():
            rows, values = pins.get(name, ((), ()))
            rhs = [*values, *[0] * len(part[2])]
            out.append((linalg.solve_mod([*rows, *part[2]], rhs, len(part[1]), n), part, bool(rows)))
        return out

    @cached_property
    def count(self) -> int:
        return prod(solution.count for solution, _, _ in self._parts)

    @cached_property
    def _basis(self) -> tuple[tuple[int, ...], list[tuple[int, int, object]]] | None:
        """(x, steps), or None when the space is empty: a particular solution
        x and one step (pivot strand s, g, generator) per Howell basis row
        over strand columns, by pivot strand.  Each generator is 0 before s
        and g | n at s, and x[s] < g.  An unpinned part with only the
        constant colorings takes the generator 1 on its component, given as
        its strands, with no lift; every other part's generators are
        lifted, one back-substitution and one lift each."""
        n = self.modulus
        x = [0] * len(self.strands)
        form = linalg._Echelon(n)
        steps: list[tuple[int, int, object]] = []
        for solution, (members, kept, _, pivots), pinned in self._parts:
            if solution.count == 0:
                return None
            columns = solution.columns()
            if not pinned and len(columns) == 1:
                steps.append((members[0], 1, members))
                continue
            for c, _ in columns:
                form.insert(linalg.lift_units(pivots, dict(zip(kept, solution._vector(c))), n))
            if pinned:
                for s, v in linalg.lift_units(pivots, dict(zip(kept, solution._vector(None))), n).items():
                    x[s] = v
        for s, row in form.rows.items():
            g, u = form.units[s]  # u * row is g at s
            steps.append((s, g, {k: w for k, v in row.items() if (w := v * u % n)}))
        steps.sort(key=lambda step: step[0])
        for s, g, h in steps:
            _add(x, h, -(x[s] // g), n)
        return tuple(x), steps

    def _walk(self) -> Iterator[tuple[int, ...]]:
        """Every solution as strand values, in lexicographic order.

        One odometer over the steps, the first slowest.  A step's value at
        its pivot strand s rises by g and stops before it would wrap past
        n; when a step moves, every faster step is re-based, in order, by
        subtracting the multiple of its generator that brings x[s] below g,
        which lists the same coset of that generator's span.  So each
        solution comes once, and two solutions first differ where their
        first differing step's pivot strand is: the order is lexicographic
        for every n.  For prime n every g is 1.
        """
        basis = self._basis
        if basis is None:
            return
        n, (x, steps) = self.modulus, basis
        x = list(x)
        yield tuple(x)
        while True:
            i = len(steps) - 1
            while i >= 0 and x[steps[i][0]] + steps[i][1] >= n:
                i -= 1
            if i < 0:
                return
            _add(x, steps[i][2], 1, n)
            for s, g, h in steps[i + 1:]:
                _add(x, h, -(x[s] // g), n)
            yield tuple(x)

    def colorings(self) -> Iterator:
        """Yield every coloring, in lexicographic order of strand values."""
        for x in self._walk():
            yield self._expand(x)

    def first_nonconstant(self):
        """The first nonconstant coloring of colorings(), or None when every coloring is constant.

        A count no larger than the constant colorings' (n without pins, at
        most one with them) means there is none, and nothing is walked.
        Otherwise one of the first two colorings is nonconstant.  With pins
        at most one is constant.  Without, the first is all 0; were the
        second all 1, no other coloring would be 0 at the first strand, so
        no two would agree there, and the count would be at most n.
        """
        pins = {v % self.modulus for _, v in self._pinned}
        if self.count <= (len(pins) == 1 if pins else self.modulus):
            return None
        return next(self._expand(x) for x in self._walk() if len(set(x)) >= 2)

    def forced_equal_pair(self) -> tuple[int, int] | None:
        """Two distinct strands that receive equal colors in every solution.

        This is the propagation clash behind a failed certificate search:
        the boundary pins force two internal arcs to agree, collapsing every
        coloring to a constant one.  Two strands agree in every solution iff
        they agree in the particular solution and in every generator of
        _basis, and the set of such pairs does not depend on the basis.
        Returns the lexicographically first such pair, or None when the
        space is empty or has no such pair.
        """
        basis = self._basis
        if basis is None:
            return None
        x, steps = basis
        keys = [[v] for v in x]
        for i, (_, _, h) in enumerate(steps):
            for k, v in _entries(h):
                keys[k].append((i, v))
        groups: dict[tuple, list[int]] = {}
        for s, key in enumerate(keys):
            groups.setdefault(tuple(key), []).append(s)
        pairs = [g[:2] for g in groups.values() if len(g) >= 2]
        if not pairs:
            return None
        i, j = min(pairs)
        return (self.strands[i], self.strands[j])

    def _expand(self, strand_values):
        return self._coloring({label: strand_values[c] for label, c in self._col.items()})


FoxSolutionSpace = AffineSpace  # the name it has always had, read by bench/spans.py


def _entries(h) -> Iterator[tuple[int, int]]:
    """A generator's (strand, value) pairs: h is a sparse dict, or the strands of a component, on which it is 1."""
    return h.items() if isinstance(h, dict) else zip(h, repeat(1))


def _add(x: list[int], h, f: int, n: int) -> None:
    """x += f * h mod n, in place; nothing when f is 0."""
    if f:
        for k, v in _entries(h):
            x[k] = (x[k] + f * v) % n


def fox_solution_space(d: Diagram, modulus: int, pins: dict[int, int] | None = None) -> AffineSpace:
    """All Fox colorings of d mod `modulus` with the pinned arcs fixed: the
    affine space at t = -1.

    Inconsistent pins give the empty space (count 0), not an error.
    """
    if modulus < 2:
        raise ColoringError("modulus must be at least 2")
    fox = strands, col, _ = _strand_columns(d)
    return AffineSpace(d, modulus, list(strands), col, partial(FoxColoring, modulus), fox, -1, _pinned(col, pins))


def _pinned(col: Mapping[int, int], pins: dict[int, int] | None, size: int | None = None) -> list[tuple[int, int]]:
    """Each pin as (its strand's column, its value); ColoringError for an arc
    not in the diagram or, when size is given, a value outside range(size)."""
    for label, v in (pins or {}).items():
        if label not in col:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
        if size is not None and not 0 <= v < size:
            raise ColoringError(f"pin value {v} outside the quandle")
    return [(col[label], v) for label, v in (pins or {}).items()]


_Units = tuple[tuple[Mapping[int, int], ...], int, tuple[tuple[int, Mapping[int, int]], ...]]


def _unit_residual(d: Diagram, fox: _FoxSystem, t: int = -1) -> _Units:
    """linalg.eliminate_units of d's crossing rows for the affine rule at the
    integer t (_crossing_rows over fox, _strand_columns(d); Fox is t = -1),
    right to left: (residual rows, columns left, pivot record).

    A validated diagram keeps each t's record, immutable, in its instance
    dict under "_units" (t -> record) from the first call on, beside
    "_fox"; an unvalidated one keeps nothing.  link_determinant, every Fox
    space and every dihedral(n) quandle space read the record at t = -1.
    """
    units = d.__dict__.get("_units", {})
    record = units.get(t)
    if record is None:
        strands, _, triples = fox
        rows = _right_to_left(_crossing_rows(triples, d.crossings, t))
        left, n_left, pivots = linalg.eliminate_units(rows, len(strands))
        record = (tuple(map(MappingProxyType, left)), n_left, tuple((c, MappingProxyType(row)) for c, row in pivots))
        if "_valid" in d.__dict__:
            d.__dict__["_units"] = MappingProxyType({**units, t: record})
    return record


# one split component: (its strands, its kept strands (the residual's columns
# it holds), its residual rows over its kept strands' positions, its part of
# the pivot record), each in strand order
_Part = tuple[tuple[int, ...], tuple[int, ...], tuple[Mapping[int, int], ...], tuple[tuple[int, Mapping[int, int]], ...]]
_Split = tuple[tuple[int, ...], Mapping[int, int], Mapping[int, _Part], tuple[tuple[int, Mapping[int, int]], ...]]


def _split(d: Diagram, fox: _FoxSystem, t: int) -> _Split:
    """(component, index, parts, pivots) of d's unit residual at t: each
    strand's split component (strands joined by crossings), named by its
    smallest strand; each kept strand's position among its part's kept
    strands; one part per component (name -> _Part); and the whole pivot
    record, which _pin_rows reads.  The colorings are the product of the
    parts' solutions lifted to every strand: no residual row joins two
    parts, and every part keeps a strand, since the constant colorings
    leave no component's rows of full rank.  Each eliminated column is
    fixed by its unit pivot mod every n, so the parts count exactly for
    composite n too.

    A validated diagram keeps each t's split, immutable, in its instance
    dict under "_split" (t -> split) beside "_units", so the spaces of one
    diagram and rule, whatever their modulus and pins, add only their pin
    rows; an unvalidated one keeps nothing.
    """
    splits = d.__dict__.get("_split", {})
    record = splits.get(t)
    if record is None:
        residual, _, pivots = _unit_residual(d, fox, t)
        component = _split_components(len(fox[0]), fox[2])
        dropped = {c for c, _ in pivots}
        parts: dict[int, tuple[list, list, list, list]] = {}
        index: dict[int, int] = {}
        kept = []  # the residual's columns' strands
        for s, name in enumerate(component):
            members, part_kept, _, _ = parts.setdefault(name, ([], [], [], []))
            members.append(s)
            if s not in dropped:
                index[s] = len(part_kept)
                part_kept.append(s)
                kept.append(s)
        for row in residual:
            if row:
                local = MappingProxyType({index[kept[j]]: v for j, v in row.items()})
                parts[component[kept[next(iter(row))]]][2].append(local)
        for pivot in pivots:
            parts[component[pivot[0]]][3].append(pivot)
        frozen = MappingProxyType({name: tuple(map(tuple, part)) for name, part in parts.items()})
        record = (tuple(component), MappingProxyType(index), frozen, pivots)
        if "_valid" in d.__dict__:
            d.__dict__["_split"] = MappingProxyType({**splits, t: record})
    return record


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
    fox = strands, _, _ = _strand_columns(d)
    if len(strands) <= 1:
        return 1
    if len(d.crossings) != len(strands):
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
        return self.quandle.name

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
    """One diagram's colorings by a quandle that is not affine, walked lazily
    by _search as strand-value tuples in lexicographic order; a dict is
    built only per coloring taken."""

    quandle: Quandle
    _col: Mapping[int, int]  # label -> its strand's position in the walked tuples
    _walk: Callable[[], Iterator[tuple[int, ...]]]

    @cached_property
    def count(self) -> int:
        """A walk to the end of the search that builds no dicts."""
        return sum(1 for _ in self._walk())

    def colorings(self) -> Iterator[QuandleColoring]:
        """Yield every coloring, in lexicographic order of strand values."""
        for x in self._walk():
            yield self._expand(x)

    def first_nonconstant(self) -> QuandleColoring | None:
        """The lexicographically first nonconstant coloring, or None when every coloring is constant."""
        return next((self._expand(x) for x in self._walk() if len(set(x)) >= 2), None)

    def forced_equal_pair(self) -> None:
        """None: a search over a non-affine table records no clash."""
        return None

    def _expand(self, strand_values) -> QuandleColoring:
        return QuandleColoring(self.quandle, {label: strand_values[c] for label, c in self._col.items()})


def quandle_space(d: Diagram, q: Quandle, pins: dict[int, int] | None = None) -> AffineSpace | QuandleSpace:
    """All colorings of d by q with the pinned arcs fixed; clashing pins give the empty space.

    An affine quandle (a * b = t*a + (1-t)*b mod n) gets the affine space
    of its rule mod n, the one Fox colorings get, with t taken in
    (-n/2, n/2] so that dihedral(n) reads the Fox residual; it solves and
    lists for every n.  Every other quandle (a non-affine table, the
    1-element one) is listed by _search.

    Non-involutory quandles need an oriented diagram when d has crossings.
    """
    if not q.involutory and d.crossings and not d.oriented:
        raise ColoringError("orientation required for non-involutory quandle colorings")
    fox = strands, col, triples = _strand_columns(d)
    pinned = _pinned(col, pins, q.size)
    if q._affine is not None:
        n = q.size
        t = q._affine if 2 * q._affine <= n else q._affine - n
        return AffineSpace(d, n, list(strands), col, partial(QuandleColoring, q), fox, t, pinned)
    return QuandleSpace(q, col, partial(_search, q, triples, d.crossings, len(strands), pinned))


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


def _broken_crossing(d: Diagram, coloring):
    """The first crossing of d whose relation the coloring breaks, or None;
    ColoringError when an arc has no color or coloring.rule rejects a value.
    under-out = forward(under-in, over) at a positive or unsigned crossing,
    and under-in = backward(under-out, over); swapped at a negative one."""
    values, forward, backward = coloring.rule(d.oriented or not d.crossings)
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
