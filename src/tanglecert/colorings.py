"""Fox colorings, finite quandles, and diagram coloring solvers.

A Fox coloring mod N assigns residues to arcs so that at every crossing the
two under-arc colors sum to twice the over-arc color.  The unknowns are
strand classes (the two over-slot labels of a crossing always share a
color), and the crossing relations form a sparse linear system solved
exactly over Z/N for any modulus, composite or prime (see linalg).

Quandle colorings generalize this: a crossing forces under_out = under_in
* over (or its right inverse at negative crossings).  Dihedral quandles,
a*b = 2b - a, reproduce Fox colorings and are involutory, so they accept
unoriented diagrams.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import linalg
from .diagram import Diagram, strand_classes
from .linalg import SolutionCapExceeded  # re-exported for callers

__all__ = [
    "ColoringError",
    "FoxColoring",
    "FoxSolutionSpace",
    "Quandle",
    "QuandleAxiomError",
    "QuandleColoring",
    "QuandleSearch",
    "SolutionCapExceeded",
    "determinant",
    "dihedral",
    "fox_matrix",
    "fox_solution_space",
    "has_nontrivial_fox",
    "link_determinant",
    "parse_quandle",
    "quandle_colorings",
    "validate_quandle",
    "verify_coloring",
    "verify_fox",
]

DEFAULT_CAP = 10 ** 6


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
        """A pair of arcs with distinct colors, smallest labels first."""
        for a, b in combinations(sorted(self.colors), 2):
            if self.colors[a] % self.modulus != self.colors[b] % self.modulus:
                return (a, b)
        return None


def verify_fox(d: Diagram, c: FoxColoring) -> bool:
    """Check every crossing relation and over-strand color agreement mod N."""
    n = c.modulus
    for label in d.arcs():
        if label not in c.colors:
            raise ColoringError(f"no color assigned to arc {label}")
    for x in d.crossings:
        s0, s1, s2, s3 = (c.colors[s] % n for s in x.slots)
        if s1 != s3 or (s0 + s2 - 2 * s1) % n != 0:
            return False
    return True


def fox_matrix(d: Diagram) -> tuple[list[dict[int, int]], list[int]]:
    """Sparse integer crossing matrix (rows: crossings, columns: strand classes).

    Each row is a dict, column -> coefficient: +2 on the over strand and -1
    on each under strand, summed when strands coincide (zeros dropped).
    Returns (rows, ordered strand representatives).
    """
    return _crossing_rows(d, strand_classes(d))


def _crossing_rows(d: Diagram, rep: dict[int, int]) -> tuple[list[dict[int, int]], list[int]]:
    strands = sorted(set(rep.values()))
    col = {s: i for i, s in enumerate(strands)}
    rows = []
    for x in d.crossings:
        row: dict[int, int] = {}
        for slot, coeff in ((1, 2), (0, -1), (2, -1)):
            c = col[rep[x.slots[slot]]]
            row[c] = row.get(c, 0) + coeff
        rows.append({c: v for c, v in row.items() if v})
    return rows, strands


@dataclass
class FoxSolutionSpace:
    """Affine set of Fox colorings of one diagram for one modulus."""

    diagram: Diagram
    modulus: int
    strands: list[int]
    _space: linalg.ModularAffineSpace
    _rep: dict[int, int]

    @property
    def count(self) -> int:
        return self._space.count

    def colorings(self, cap: int = DEFAULT_CAP):
        """Yield every coloring (deterministic order); SolutionCapExceeded if count > cap."""
        for x in self._space.enumerate(cap):
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
        value = dict(zip(self.strands, strand_values))
        colors = {label: value[r] for label, r in self._rep.items()}
        return FoxColoring(self.modulus, colors)


def fox_solution_space(d: Diagram, modulus: int, pins: dict[int, int] | None = None) -> FoxSolutionSpace:
    """All Fox colorings of d mod `modulus` with the pinned arcs fixed.

    Inconsistent pins give the empty space (count 0), not an error.
    """
    if modulus < 2:
        raise ColoringError("modulus must be at least 2")
    rep = strand_classes(d)
    crossing_rows, strands = _crossing_rows(d, rep)
    col = {s: i for i, s in enumerate(strands)}
    rows, rhs = [], []
    for label, value in (pins or {}).items():
        if label not in rep:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
        rows.append({col[rep[label]]: 1})
        rhs.append(value)
    # pins go first: each fixes one unknown, and eliminating it first adds no fill
    rows += crossing_rows
    rhs += [0] * len(crossing_rows)
    space = linalg.solve_mod(rows, rhs, len(strands), modulus)
    return FoxSolutionSpace(d, modulus, strands, space, rep)


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
    rows, strands = fox_matrix(d)
    if len(strands) <= 1:
        return 1
    if len(rows) != len(strands):
        return 0
    last = len(strands) - 1
    minor = [{c: v for c, v in row.items() if c != last} for row in rows[:-1]]
    return linalg.abs_determinant(minor)


# ---------------------------------------------------------------------------
# quandles


@dataclass(frozen=True)
class Quandle:
    """Finite quandle given by its Cayley table: table[a][b] = a * b."""

    table: tuple[tuple[int, ...], ...]
    name: str = ""

    @property
    def size(self) -> int:
        return len(self.table)

    def op(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int, b: int) -> int:
        """The unique c with c * b = a."""
        return self._inverse()[a][b]

    def _inverse(self):
        if not hasattr(self, "_inv_cache"):
            n = self.size
            inv = [[0] * n for _ in range(n)]
            for b in range(n):
                for a in range(n):
                    inv[self.table[a][b]][b] = a
            object.__setattr__(self, "_inv_cache", tuple(tuple(r) for r in inv))
        return self._inv_cache

    @property
    def involutory(self) -> bool:
        n = self.size
        return all(self.table[self.table[a][b]][b] == a for a in range(n) for b in range(n))

    def orbit_representatives(self) -> list[int]:
        """One element per orbit of the right-translation action."""
        n = self.size
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in range(n):
            for b in range(n):
                ra, rb = find(a), find(self.table[a][b])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        return sorted({find(a) for a in range(n)})


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
    if len(tokens) < 2 or tokens[0] != "Q" or not tokens[1].isdigit():
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
    q = Quandle(table, name=name)
    validate_quandle(q)
    return q


@dataclass(frozen=True)
class QuandleColoring:
    quandle: Quandle
    colors: dict[int, int]

    @property
    def nontrivial(self) -> bool:
        return len(set(self.colors.values())) >= 2

    def witness(self) -> tuple[int, int] | None:
        for a, b in combinations(sorted(self.colors), 2):
            if self.colors[a] != self.colors[b]:
                return (a, b)
        return None


@dataclass
class QuandleSearch:
    """Result of a quandle coloring enumeration: colorings plus a completeness flag."""

    colorings: list[QuandleColoring]
    complete: bool

    def __iter__(self):
        return iter(self.colorings)

    def __len__(self):
        return len(self.colorings)


def quandle_colorings(
    d: Diagram,
    q: Quandle,
    pins: dict[int, int] | None = None,
    cap: int = DEFAULT_CAP,
) -> QuandleSearch:
    """Enumerate colorings of d by q via backtracking with strand propagation.

    Non-involutory quandles need an oriented diagram; dihedral (and any
    involutory) quandles accept unoriented input.
    """
    validate_quandle(q)
    involutory = q.involutory
    if not involutory and not d.oriented:
        raise ColoringError("orientation required for non-involutory quandle colorings")
    rep = strand_classes(d)
    strands = sorted(set(rep.values()))
    # crossing constraints in strand variables: (under_in, over, under_out, positive)
    constraints = []
    for x in d.crossings:
        positive = x.sign >= 0
        constraints.append((rep[x.slots[0]], rep[x.slots[1]], rep[x.slots[2]], positive))
    by_strand: dict[int, list[int]] = {s: [] for s in strands}
    for i, (u_in, over, u_out, _) in enumerate(constraints):
        for s in (u_in, over, u_out):
            by_strand[s].append(i)
    assignment: dict[int, int] = {}
    for label, value in (pins or {}).items():
        if label not in rep:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
        r = rep[label]
        if not (0 <= value < q.size):
            raise ColoringError(f"pin value {value} outside the quandle")
        if assignment.get(r, value) != value:
            return QuandleSearch([], True)
        assignment[r] = value

    found: list[QuandleColoring] = []
    truncated = False

    def consistent(i) -> bool | None:
        """True/False when decidable; None while the over strand is unknown."""
        u_in, over, u_out, positive = constraints[i]
        b = assignment.get(over)
        if b is None:
            return None
        a = assignment.get(u_in)
        c = assignment.get(u_out)
        if a is not None:
            want = q.op(a, b) if positive else q.inv(a, b)
            if c is None:
                assignment[u_out] = want
                return propagate_from(u_out)
            return c == want
        if c is not None:
            want = q.inv(c, b) if positive else q.op(c, b)
            assignment[u_in] = want
            return propagate_from(u_in)
        return None

    def propagate_from(s) -> bool:
        for i in by_strand[s]:
            if consistent(i) is False:
                return False
        return True

    def solve():
        nonlocal truncated
        pending = [s for s in strands if s not in assignment]
        if not pending:
            if len(found) >= cap:
                truncated = True
                return
            value = dict(assignment)
            found.append(QuandleColoring(q, {label: value[r] for label, r in rep.items()}))
            return
        s = pending[0]
        for v in range(q.size):
            saved = dict(assignment)
            assignment[s] = v
            if propagate_from(s):
                solve()
            assignment.clear()
            assignment.update(saved)
            if truncated:
                return

    if all(propagate_from(s) for s in list(assignment)):
        solve()
    return QuandleSearch(found, not truncated)


def verify_coloring(d: Diagram, coloring) -> bool:
    """Check a Fox or quandle coloring against every crossing of d."""
    if isinstance(coloring, FoxColoring):
        return verify_fox(d, coloring)
    q = coloring.quandle
    involutory = q.involutory
    if not involutory and not d.oriented:
        raise ColoringError("orientation required to verify this quandle coloring")
    colors = coloring.colors
    for label in d.arcs():
        if label not in colors:
            raise ColoringError(f"no color assigned to arc {label}")
    for x in d.crossings:
        a, b, c, b2 = (colors[s] for s in x.slots)
        if b != b2:
            return False
        expect = q.op(a, b) if x.sign >= 0 else q.inv(a, b)
        if c != expect:
            return False
    return True
