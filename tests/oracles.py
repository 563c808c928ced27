"""Independent brute-force oracles the library results are checked against.

Nothing here calls into the solver paths under test: strand merging is a
separate union-find, counting is exhaustive backtracking over strand
assignments, determinants use recursive cofactor expansion or Gaussian
elimination over the stdlib Fraction type, which fractions use as well,
and the dense integer diagonalization below is the unimodular elimination
over Z that the sparse modular solver replaced.
reference_fox_solution_space is the Fox solve as it was before Fox spaces
solved the unit residual one split component at a time: strand columns
built afresh on every call, pins first, then the full crossing rows in
crossing order, into the library's solve_mod, whose counts the oracles
above check.  Its forced_equal_pair groups strands by the particular
solution and every generator of that solve, as the Fox space did before
it read its lifted basis; its solutions() lists every coloring from that
basis (modular_solutions, which walks any solve_mod space), sorted.
reference_first_nonconstant reads the lexicographically first nonconstant
Fox coloring off those full-row solves, one strand at a time: each strand
takes the least value the solve with every earlier strand pinned allows
(its particular value mod the gcd of its generators' entries and N).
The quandle coloring reference is the recursive backtracking search that
the one-loop search replaced.
The diagram validator is the tuple-keyed occurrence scan that the
integer-dart validator replaced; it shares only the exception types.
reference_far_ends and reference_r3_triangles scan every face orbit, as
the library did before it read the face ids that validate keeps.  The
structure references at the end are the versions that the strand walk and
the face-orbit reads replaced: components by a dict union-find, orient by
its own strand walk, co-faciality and the transport's face path from the
Face list of faces().  These read the library's dart pairing, faces() and
R2 move, which the validator and move tests check against references of
their own.  reference_recolor_after_move is the re-solve that local
recoloring replaced: every untouched arc pinned, and exactly one solution
required of the library's solvers, which the counting oracles above check.
reference_verify_certificate is the host loop that composing each
closure's answer from end pairings replaced: it builds every drawn host
(drawn_hosts, the verifier's draws), glues, counts and checks every
closure, repeats included.  drawn_closures glues each distinct drawn pair
once, for the tests that keep the glue covered now that verification
builds no closure; east_cap is the 1-tangle hosts' cap.
canonical_form, a relabeling-invariant rendering that only tests compare,
reads the library's dart pairing.
reference_verify_coloring is the coloring check as it was before the
crossing rule lived in one place: the Fox relation written out mod N, and
a quandle coloring read off its table, with no inverse table.
reference_closure_evidence is the report's closure evidence as it was
before one determinant answered every modulus: a Fox solve per modulus,
counted against the constant colorings.
The gluing references are tangle sums, closures and the east cap as they
were before every glue spliced its result's dart index: the ends merged by
reference_apply_joins, a label chase that rewrites every crossing of both
parts (tangle._glue now merges them in the diagram module's union-find and
rewrites only the first part's end darts, in one diagram._edit), then a
full validate of the result.  The chase keeps the raise for a self-join of
an arc with crossing occurrences, which no validated pair of tangles
reaches: a cycle of joins passes only through crossing-free labels.
reference_insert_into_host composes them: the sum, then its closure.
reference_cut_choice is the transport cut's choice as it was before the
candidates were scored on the uncut knot's strand walk: every candidate
cut built, oriented and its linking summed, one tangle kept.
reference_connectivity and reference_linking_sum are the tangle's endpoint
pairing and linking sum as they were before they read the strand walk:
from a label -> component dict built off components().
reference_non_cofacial_pairs is the co-facial filter that
find_same_colored_pairs ran before its callers asked co_facial instead:
the co-facial pairs collected face by face from faces().
same_colored_arc_pairs is find_same_colored_pairs as it was before it kept
only pairs on distinct strands: every equal-colored pair, by a double loop.
reference_find_certificate_report is the certificate search as it was
before each coloring kind carried its own rule and key: one loop over the
Fox moduli, then one over the quandles and their orbit representatives.
It calls the library's solvers and issuer, which the tests above check,
and, as the one loop does, records the clash of a quandle's last pinned
space, which an affine quandle's space reports.
"""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

from tanglecert.colorings import (
    ColoringError,
    FoxColoring,
    QuandleColoring,
    fox_solution_space,
    link_determinant,
    quandle_space,
    validate_quandle,
    verify_coloring,
)
from tanglecert.diagram import (
    ArcOccurrenceError,
    Crossing,
    Diagram,
    DiagramError,
    OrientationError,
    PlanarityError,
    _darts,
    components,
    faces,
    max_label,
    orient,
    serialize,
    validate,
)
from tanglecert.linalg import solve_mod
from tanglecert.moves import MoveError, apply_r2_over
from tanglecert.persistence import (
    CertificateError,
    CertificateSearchReport,
    ClosureEvidence,
    VerificationReport,
    _check_certificate,
    _cut,
    _default_moduli,
    _issue,
    _random_twists,
)
from tanglecert.tangle import (
    _ARC_HOST,
    _INFINITY_HOST,
    _ZERO_HOST,
    TangleError,
    _glue,
    insert_into_host,
    rational_tangle,
)

INF = "inf"


def strand_partition(d):
    """Label -> representative, merging the two over-slot labels per crossing."""
    labels = set()
    for c in d.crossings:
        labels.update(c.slots)
    labels.update(d.circles)
    labels.update(d.boundary)
    parent = {a: a for a in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in d.crossings:
        a, b = find(c.slots[1]), find(c.slots[3])
        if a != b:
            parent[max(a, b)] = min(a, b)
    return {a: find(a) for a in labels}


def brute_fox_count(d, modulus, pins=None):
    """Exhaustive count of Fox colorings by backtracking over strand values."""
    rep = strand_partition(d)
    strands = sorted(set(rep.values()))
    index = {s: i for i, s in enumerate(strands)}
    crossings = [
        (index[rep[c.slots[0]]], index[rep[c.slots[1]]], index[rep[c.slots[2]]])
        for c in d.crossings
    ]
    by_var = [[] for _ in strands]
    for k, triple in enumerate(crossings):
        for v in triple:
            by_var[v].append(k)
    pinned = {}
    for label, value in (pins or {}).items():
        i = index[rep[label]]
        if pinned.get(i, value % modulus) != value % modulus:
            return 0
        pinned[i] = value % modulus
    values = [None] * len(strands)

    def ok(k):
        a, b, c = crossings[k]
        if values[a] is None or values[b] is None or values[c] is None:
            return True
        return (values[a] + values[c] - 2 * values[b]) % modulus == 0

    def walk(i):
        if i == len(strands):
            return 1
        choices = [pinned[i]] if i in pinned else range(modulus)
        total = 0
        for v in choices:
            values[i] = v
            if all(ok(k) for k in by_var[i]):
                total += walk(i + 1)
            values[i] = None
        return total

    return walk(0)


def reference_quandle_colorings(d, q, pins=None):
    """Every quandle coloring, listed by recursive backtracking with strand
    propagation: strands in sorted order, values 0..n-1."""
    validate_quandle(q)
    if not q.involutory and d.crossings and not d.oriented:
        raise ColoringError("orientation required for non-involutory quandle colorings")
    rep = strand_partition(d)
    strands = sorted(set(rep.values()))
    # crossing constraints in strand variables: (under_in, over, under_out, positive)
    constraints = []
    for x in d.crossings:
        positive = x.sign >= 0
        constraints.append((rep[x.slots[0]], rep[x.slots[1]], rep[x.slots[2]], positive))
    by_strand = {s: [] for s in strands}
    for i, (u_in, over, u_out, _) in enumerate(constraints):
        for s in (u_in, over, u_out):
            by_strand[s].append(i)
    assignment = {}
    for label, value in (pins or {}).items():
        if label not in rep:
            raise ColoringError(f"pinned arc {label} is not in the diagram")
        r = rep[label]
        if not (0 <= value < q.size):
            raise ColoringError(f"pin value {value} outside the quandle")
        if assignment.get(r, value) != value:
            return []
        assignment[r] = value

    found = []

    def consistent(i):
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

    def propagate_from(s):
        for i in by_strand[s]:
            if consistent(i) is False:
                return False
        return True

    def solve():
        pending = [s for s in strands if s not in assignment]
        if not pending:
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

    if all(propagate_from(s) for s in list(assignment)):
        solve()
    return found


def reference_witness(coloring):
    """witness() by the pairwise scan it replaced: the first pair of
    combinations(sorted(labels), 2) whose colors differ, mod N for Fox."""
    colors = coloring.colors
    if isinstance(coloring, FoxColoring):
        colors = {label: v % coloring.modulus for label, v in colors.items()}
    for a, b in combinations(sorted(colors), 2):
        if colors[a] != colors[b]:
            return (a, b)
    return None


def crossing_matrix(d):
    """Rows one per crossing over strand columns: +2 over, -1 each under."""
    rep = strand_partition(d)
    strands = sorted(set(rep.values()))
    col = {s: i for i, s in enumerate(strands)}
    rows = []
    for c in d.crossings:
        row = [0] * len(strands)
        row[col[rep[c.slots[1]]]] += 2
        row[col[rep[c.slots[0]]]] -= 1
        row[col[rep[c.slots[2]]]] -= 1
        rows.append(row)
    return rows


def cofactor_det(m):
    """Determinant by recursive cofactor expansion (exact, exponential)."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def lucas(m):
    """The Lucas number L_m (L_0 = 2, L_1 = 1): the closure of (s1 s2^-1)^n on
    3 strands, a Turk's head knot or, when 3 divides n, a 3-component link,
    has link determinant L_2n - 2."""
    a, b = 2, 1
    for _ in range(m):
        a, b = b, a + b
    return a


def minor_determinant(d):
    """|first minor| of a square crossing matrix, dropping the last row and
    column, by Gaussian elimination over the rationals."""
    rows = crossing_matrix(d)
    if not rows:
        return 1
    m = [[Fraction(v) for v in row[:-1]] for row in rows[:-1]]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k]), None)
        if pivot is None:
            return 0
        m[k], m[pivot] = m[pivot], m[k]
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            if m[i][k]:
                f = m[i][k] / m[k][k]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return abs(int(det))


class ReferenceFoxSpace:
    """The Fox colorings of one diagram mod N read off one full-row solve."""

    def __init__(self, strands, modulus, space):
        self.strands, self.modulus, self.space = strands, modulus, space
        self.count = space.count

    def basis(self):
        """(particular solution, [generator, ...]) as strand-value tuples; the space must not be empty."""
        space = self.space
        return space._vector(None), [space._vector(c) for c, _ in space.columns()]

    def forced_equal_pair(self):
        """The first pair of strands equal in the particular solution and every generator."""
        if self.count == 0:
            return None
        particular, generators = self.basis()
        groups = {}
        for i in range(len(self.strands)):
            groups.setdefault((particular[i], *(g[i] for g in generators)), []).append(i)
        pairs = [g[:2] for g in groups.values() if len(g) >= 2]
        if not pairs:
            return None
        i, j = min(pairs)
        return (self.strands[i], self.strands[j])

    def solutions(self):
        """Every solution as strand values, sorted."""
        return sorted(modular_solutions(self.space))


def modular_solutions(space):
    """Every solution of a solve_mod space, each once: its particular
    solution plus each combination of its generators, each taken up to its
    order, the last generator's coefficient fastest."""
    if space.count == 0:
        return
    n, columns = space.modulus, space.columns()
    vectors = [space._vector(c) for c, _ in columns]

    def walk(i, x):
        if i == len(vectors):
            yield x
            return
        for k in range(columns[i][1]):
            yield from walk(i + 1, tuple((a + k * b) % n for a, b in zip(x, vectors[i])))

    yield from walk(0, space._vector(None))


def reference_fox_solution_space(d, modulus, pins=None):
    """Fox colorings of d mod modulus with pinned arcs: fresh strand columns,
    pin rows first, then one row per crossing in crossing order."""
    rep = strand_partition(d)
    strands = sorted(set(rep.values()))
    index = {s: i for i, s in enumerate(strands)}
    col = {label: index[r] for label, r in rep.items()}
    rows = [{col[label]: 1} for label in (pins or {})]
    rhs = list((pins or {}).values())
    for c in d.crossings:
        u_in, over, u_out, _ = (col[label] for label in c.slots)
        row = {over: 2}
        row[u_in] = row.get(u_in, 0) - 1
        row[u_out] = row.get(u_out, 0) - 1
        rows.append({k: v for k, v in row.items() if v})
        rhs.append(0)
    return ReferenceFoxSpace(strands, modulus, solve_mod(rows, rhs, len(strands), modulus))


def reference_first_nonconstant(d, modulus, pins=None):
    """The lexicographically first nonconstant Fox coloring of d mod modulus
    with the pins, as strand values, or None.

    The least coloring takes, strand by strand, the least value the full
    rows allow with every earlier strand pinned.  If it is constant, the
    next coloring in lexicographic order raises the last strand that can
    rise with the strands before it kept, by the gcd its solve gives, and
    completes the rest least; a constant coloring's successor is
    nonconstant whenever any coloring is, since each value of the first
    strand carries at most one constant coloring."""
    pins = dict(pins or {})
    strands = reference_fox_solution_space(d, modulus, pins).strands

    def step(fixed, i):
        """(value, gcd) that strand i takes least with fixed pinned, or None when nothing solves."""
        space = reference_fox_solution_space(d, modulus, fixed)
        if space.count == 0:
            return None
        particular, generators = space.basis()
        g = gcd(modulus, *(h[i] for h in generators))
        return particular[i] % g, g

    def least(fixed, start):
        fixed = dict(fixed)
        for i in range(start, len(strands)):
            found = step(fixed, i)
            if found is None:
                return None
            fixed[strands[i]] = found[0]
        return tuple(fixed[s] for s in strands)

    first = least(pins, 0)
    if first is None or len(set(first)) >= 2:
        return first
    for i in reversed(range(len(strands))):
        fixed = {**pins, **dict(zip(strands[:i], first))}
        _, g = step(fixed, i)
        if first[i] + g < modulus:
            following = least({**fixed, strands[i]: first[i] + g}, i + 1)
            return following if len(set(following)) >= 2 else None
    return None


def cf_value(twists):
    """Continued fraction a_n + 1/(a_{n-1} + ... + 1/a_1) over Fraction/inf."""
    value = None
    for a in twists:
        if value is None:
            value = Fraction(a)
        elif value == 0:
            value = INF
        elif value == INF:
            value = Fraction(a)
        else:
            value = a + 1 / value
    return value


def diagonalize(matrix, modulus=None):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, U, V) with U*matrix*V diagonal; diag is the list of its
    nonzero diagonal entries (the rank is len(diag)).  The divisibility
    chain of Smith normal form is not enforced; any diagonalization gives
    the same solution counts and the same invariant-factor product.

    Over Z (no modulus) the entries of U, V and the matrix itself can grow
    to thousands of bits on closures of about a hundred crossings, so keep
    those inputs small.  With a modulus every entry is reduced after each
    operation, and the result diagonalizes the matrix over Z/modulus.
    """
    a = [list(row) for row in matrix]
    if modulus is not None:
        a = [[x % modulus for x in row] for row in a]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def reduce(x):
        return x if modulus is None else x % modulus

    def add_row(dst, src, q):  # row[dst] -= q * row[src]
        a[dst] = [reduce(x - q * y) for x, y in zip(a[dst], a[src])]
        u[dst] = [reduce(x - q * y) for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in a:
            row[dst] = reduce(row[dst] - q * row[src])
        for row in v:
            row[dst] = reduce(row[dst] - q * row[src])

    k = 0
    while k < m and k < n:
        # smallest nonzero entry of the trailing submatrix as pivot
        pivot = None
        for i in range(k, m):
            for j in range(k, n):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        while True:
            done = True
            for i in range(k + 1, m):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    add_row(i, k, q)
                    if a[i][k] != 0:  # remainder smaller than pivot: promote it
                        swap_rows(i, k)
                        done = False
            for j in range(k + 1, n):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    add_col(j, k, q)
                    if a[k][j] != 0:
                        swap_cols(j, k)
                        done = False
            if done:
                break
        k += 1

    diag = [a[i][i] for i in range(k)]
    return diag, u, v


def invariant_product(matrix):
    """Return (rank, |product of nonzero diagonal invariants|)."""
    diag, _, _ = diagonalize(matrix)
    product = 1
    for d in diag:
        product *= abs(d)
    return len(diag), product


def diagonal_count(matrix, rhs, n_vars, modulus):
    """Solutions of matrix * x = rhs (mod modulus), counted from U*A*V = D over Z/modulus."""
    if not matrix:
        return modulus ** n_vars
    diag, u, _ = diagonalize(matrix, modulus)
    c = [sum(x * b for x, b in zip(row, rhs)) % modulus for row in u]
    if any(c[i] for i in range(len(diag), len(matrix))):
        return 0
    count = modulus ** (n_vars - len(diag))
    for d, ci in zip(diag, c):
        g = gcd(d, modulus)
        if ci % g:
            return 0
        count *= g
    return count


def link_invariant(d):
    """The link determinant from the diagonalization: the invariant product at corank 1, else 0."""
    rows = crossing_matrix(d)
    n_strands = len(set(strand_partition(d).values()))
    if not n_strands:
        return 1
    rank, product = invariant_product(rows) if rows else (0, 1)
    return product if rank == n_strands - 1 else 0


# ---------------------------------------------------------------------------
# diagram validation over (vertex, slot) occurrences

_CAP = -1  # virtual vertex index for the capped tangle boundary


def _occurrences(d):
    """Map each arc label to its (vertex, slot) occurrences; cap vertex is -1."""
    occ = {}
    for ci, c in enumerate(d.crossings):
        for si, label in enumerate(c.slots):
            occ.setdefault(label, []).append((ci, si))
    for bi, label in enumerate(d.boundary):
        occ.setdefault(label, []).append((_CAP, bi))
    return occ


def reference_validate(d):
    """Check occurrence counts, orientation consistency, and planarity."""
    if d.boundary and len(d.boundary) not in (2, 4):
        raise ArcOccurrenceError("boundary must list 2 or 4 endpoints")
    crossing_count = {}
    for c in d.crossings:
        if c.sign not in (-1, 0, 1):
            raise DiagramError(f"bad crossing sign {c.sign}")
        for label in c.slots:
            if label <= 0:
                raise ArcOccurrenceError(f"arc labels must be positive, got {label}")
            crossing_count[label] = crossing_count.get(label, 0) + 1
    boundary_count = {}
    for label in d.boundary:
        boundary_count[label] = boundary_count.get(label, 0) + 1
    for k in d.circles:
        if k in crossing_count or k in boundary_count or d.circles.count(k) > 1:
            raise ArcOccurrenceError(f"circle label {k} reused elsewhere")
    for label, n in crossing_count.items():
        expected = 2 - boundary_count.get(label, 0)
        if n != expected:
            raise ArcOccurrenceError(
                f"arc {label} occurs {n} times in crossings, expected {expected}"
            )
    for label, n in boundary_count.items():
        if n == 2 and label in crossing_count:
            raise ArcOccurrenceError(
                f"strand {label} listed twice in boundary but also crosses"
            )
        if n > 2:
            raise ArcOccurrenceError(f"endpoint {label} repeated in boundary")
        if n == 1 and label not in crossing_count:
            raise ArcOccurrenceError(f"endpoint {label} dangles (no crossing occurrence)")
    signs = {c.sign for c in d.crossings}
    if 0 in signs and len(signs) > 1:
        raise OrientationError("diagram mixes signed and unsigned crossings")
    _check_euler(d)
    if d.crossings and all(c.sign != 0 for c in d.crossings):
        _edge_directions(d)  # raises on inconsistent orientation


def _vertex_rotations(d):
    rot = {ci: c.slots for ci, c in enumerate(d.crossings)}
    if d.boundary:
        rot[_CAP] = d.boundary
    return rot


def reference_face_orbits(d):
    """Orbits of the next-corner permutation over all (vertex, slot) darts."""
    rot = _vertex_rotations(d)
    occ = _occurrences(d)
    other = {}
    for label, places in occ.items():
        if len(places) != 2:
            raise ArcOccurrenceError(f"arc {label} has {len(places)} occurrences")
        a, b = places
        other[a] = b
        other[b] = a
    orbits = []
    seen = set()
    darts = [(v, s) for v in sorted(rot, key=lambda x: (x == _CAP, x)) for s in range(len(rot[v]))]
    for start in darts:
        if start in seen:
            continue
        orbit = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            orbit.append(cur)
            v, s = other[cur]
            cur = (v, (s + 1) % len(rot[v]))
        orbits.append(orbit)
    return orbits


def reference_far_ends(d, arcs):
    """Per arc, the place at its far end from the first face orbit, in order
    of smallest dart, with a crossing corner and every arc of `arcs`; None
    if there is none.  Each arc's first place in the orbit's walk counts."""
    rot = _vertex_rotations(d)
    occ = _occurrences(d)
    for orbit in reference_face_orbits(d):
        at = [rot[v][s] for v, s in orbit]
        if any(v != _CAP for v, _ in orbit) and set(arcs) <= set(at):
            near = [orbit[at.index(a)] for a in arcs]
            return [next(p for p in occ[a] if p != q) for a, q in zip(arcs, near)]
    return None


def reference_r3_triangles(d):
    """find_r3_triangles as a filter over every face orbit of three darts,
    none on the boundary cap."""
    out = []
    for index, orbit in enumerate(reference_face_orbits(d)):
        if len(orbit) != 3 or any(v == _CAP for v, _ in orbit):
            continue
        (P, p), (Q, q), (R, r) = orbit
        if len({P, Q, R}) != 3:
            continue
        x = d.crossings[P].slots[p]
        y = d.crossings[Q].slots[q]
        z = d.crossings[R].slots[r]
        if len({x, y, z}) != 3:
            continue
        over_x = (p % 2 == 1) + (q % 2 == 0)
        over_y = (q % 2 == 1) + (r % 2 == 0)
        over_z = (r % 2 == 1) + (p % 2 == 0)
        if 2 in (over_x, over_y, over_z):
            out.append(index)
    return out


def _check_euler(d):
    if not d.crossings and not d.boundary:
        return
    rot = _vertex_rotations(d)
    occ = _occurrences(d)
    # vertex components through shared edges
    parent = {v: v for v in rot}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for places in occ.values():
        if len(places) == 2:
            a, b = find(places[0][0]), find(places[1][0])
            if a != b:
                parent[a] = b
    orbits = reference_face_orbits(d)
    comp_faces = {}
    for orbit in orbits:
        comp_faces[find(orbit[0][0])] = comp_faces.get(find(orbit[0][0]), 0) + 1
    comp_v = {}
    for v in rot:
        comp_v[find(v)] = comp_v.get(find(v), 0) + 1
    comp_e = {}
    for places in occ.values():
        comp_e[find(places[0][0])] = comp_e.get(find(places[0][0]), 0) + 1
    for comp, nv in comp_v.items():
        ne = comp_e.get(comp, 0)
        nf = comp_faces.get(comp, 0)
        if nv - ne + nf != 2:
            raise PlanarityError(
                f"rotation system is not planar: V-E+F = {nv}-{ne}+{nf} != 2"
            )


def _edge_directions(d):
    """Tail/head occurrence of every arc under the declared crossing signs."""
    heads = {}  # occurrence -> flows into vertex?
    for ci, c in enumerate(d.crossings):
        into = {0: True, 2: False}
        into[3 if c.sign >= 0 else 1] = True
        into[1 if c.sign >= 0 else 3] = False
        for s in range(4):
            heads[(ci, s)] = into[s]
    occ = _occurrences(d)
    directions = {}
    for label, places in occ.items():
        ins = [p for p in places if heads.get(p, None) is True]
        outs = [p for p in places if heads.get(p, None) is False]
        caps = [p for p in places if p[0] == _CAP]
        if len(ins) + len(caps) < 1 or len(outs) + len(caps) < 1 or len(ins) > 1 or len(outs) > 1:
            raise OrientationError(f"arc {label} has inconsistent flow")
        tail = outs[0] if outs else caps[0]
        head = ins[0] if ins else caps[-1]
        directions[label] = (tail, head)
    return directions


# ---------------------------------------------------------------------------
# strands, components and face paths


def reference_components(d):
    """Link components / open strands: union-find over the under and over pairs."""
    parent = {a: a for a in d.arcs()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in d.crossings:
        for a, b in ((c.slots[0], c.slots[2]), (c.slots[1], c.slots[3])):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups = {}
    for label in parent:
        groups.setdefault(find(label), set()).add(label)
    return [frozenset(g) for _, g in sorted(groups.items())]


def reference_orient(d):
    """orient() by a walk per strand: boundary strands first, then closed ones
    from their first unvisited crossing dart."""
    if d.oriented:
        return d
    _, other = _darts(d)[:2]
    c4 = 4 * len(d.crossings)
    flow_in = [None] * c4  # crossing dart -> arc flows in

    def walk(tail):
        while True:
            head = other[tail]
            if tail < c4:
                flow_in[tail] = False
            if head >= c4:
                return
            flow_in[head] = True
            tail = head ^ 2
            if flow_in[tail] is not None:
                return

    for start in range(c4, len(other)):
        if other[start] < c4 and flow_in[other[start]] is None:
            walk(start)
    for j in range(c4):
        if flow_in[j] is None:
            walk(j)
    crossings = []
    for ci, c in enumerate(d.crossings):
        slots, base = (c.slots, 0) if flow_in[4 * ci] else (c.slots[2:] + c.slots[:2], 2)
        crossings.append(Crossing(slots, 1 if flow_in[4 * ci + (base + 3) % 4] else -1))
    return Diagram(tuple(crossings), d.circles, d.boundary)


def reference_co_facial(d, a1, a2):
    """True iff some face of faces(d) holds both arcs."""
    if a1 == a2:
        raise DiagramError("co_facial needs two distinct arcs")
    for a in (a1, a2):
        if a not in d.arcs():
            raise DiagramError(f"unknown arc label {a}")
    return any(a1 in f.arcs and a2 in f.arcs for f in faces(d))


def reference_non_cofacial_pairs(d, pairs):
    """The arc pairs no face of faces(d) holds together, the co-facial pairs
    collected face by face: a crossing-free circle's faces hold only its own
    label, so pairs with a circle are never dropped."""
    cofacial = {(a, b) for f in faces(d) for a in f.arcs for b in f.arcs}
    return [p for p in pairs if p not in cofacial]


def _component_classes(d):
    return {label: i for i, grp in enumerate(components(d)) for label in grp}


def reference_connectivity(d):
    """'H', 'V' or 'X' from the component of each endpoint."""
    if len(d.boundary) != 4:
        raise TangleError("operation needs a 4-endpoint tangle")
    cls = _component_classes(d)
    nw, ne, se, sw = d.boundary
    if cls[nw] == cls[ne]:
        return "H"
    if cls[nw] == cls[sw]:
        return "V"
    if cls[nw] == cls[se]:
        return "X"
    raise TangleError("endpoints do not pair into two strands")


def reference_linking_sum(t):
    """The signs of the crossings whose under and over arcs lie in the two
    components that hold the endpoints, summed."""
    if len(t.boundary) != 4:
        raise TangleError("operation needs a 4-endpoint tangle")
    if not t.oriented:
        if t.crossings:
            raise TangleError("linking_sum needs an oriented tangle")
        return 0
    cls = _component_classes(t)
    open_classes = {cls[e] for e in t.boundary}
    if len(open_classes) != 2:
        raise TangleError("tangle does not have two open strands")
    total = 0
    for c in t.crossings:
        under, over = cls[c.slots[0]], cls[c.slots[1]]
        if under != over and {under, over} == open_classes:
            total += c.sign
    return total


def reference_first_step_arc(d, mover, dest):
    """BFS over the Face list; the arc to cross first, or raise."""
    fs = faces(d)
    arc_to_faces = {}
    for f in fs:
        for a in f.arcs:
            arc_to_faces.setdefault(a, []).append(f.index)
    sources = sorted(f.index for f in fs if mover in f.arcs)
    targets = {f.index for f in fs if dest in f.arcs}
    prev = {f: None for f in sources}
    queue = list(sources)
    goal = None
    while queue:
        fi = queue.pop(0)
        if fi in targets:
            goal = fi
            break
        for a in sorted(a for a in fs[fi].arcs if a != mover):
            for nf in sorted(arc_to_faces[a]):
                if nf not in prev:
                    prev[nf] = (fi, a)
                    queue.append(nf)
    if goal is None:
        raise MoveError(f"no face path from arc {mover} to arc {dest}")
    step = None
    fi = goal
    while prev[fi] is not None:
        fi, step = prev[fi]
    if step is None:
        raise MoveError("arcs are already co-facial")
    return step


def reference_r2_transport(d, coloring, source, dest):
    """(diagram, coloring, segment, records): r2_transport asking co-faciality
    of the Face list before every step."""
    records = []
    mover = source
    while not reference_co_facial(d, mover, dest):
        target = reference_first_step_arc(d, mover, dest)
        d, rec = apply_r2_over(d, mover, target)
        coloring = reference_recolor_after_move(coloring, rec, d)
        records.append(rec)
        mover = rec.fresh[0]
    return d, coloring, mover, records


def reference_recolor_after_move(coloring, rec, after):
    """recolor_after_move by re-solving: every untouched arc is pinned and the
    solver must find exactly one coloring of `after`."""
    changed = rec.changed_labels()
    surviving = after.arcs()
    pins = {
        label: value
        for label, value in coloring.colors.items()
        if label in surviving and label not in changed
    }
    if isinstance(coloring, FoxColoring):
        space = fox_solution_space(after, coloring.modulus, pins)
    elif isinstance(coloring, QuandleColoring):
        space = quandle_space(after, coloring.quandle, pins)
    else:
        raise MoveError(f"cannot recolor a {type(coloring).__name__}")
    if space.count != 1:
        raise MoveError(f"recoloring is not unique ({space.count} extensions)")
    return next(space.colorings())


# ---------------------------------------------------------------------------
# tangle gluing: merge the glued ends, then validate the result afresh


def reference_apply_joins(crossings, circles, joins, carry, shifted=Diagram(), shift=0):
    """The glue's label merge by a chase through a dict of dropped labels: joins
    in order, the smaller label kept, a self-join appended as a circle (an
    error when the arc has crossing occurrences), every crossing rewritten."""
    merged = {}  # dropped label -> the label it merged into

    def current(x):
        while x in merged:
            x = merged[x]
        return x

    parts = ((crossings, 0), (shifted.crossings, shift))
    circles = [*circles, *(k + shift for k in shifted.circles)]
    for x, y in joins:
        x, y = current(x), current(y)
        if x == y:
            if any(current(s + k) == x for part, k in parts for c in part for s in c.slots):
                raise TangleError(f"self-join of arc {x} with crossing occurrences")
            circles.append(x)
        else:
            merged[max(x, y)] = min(x, y)
    crossings = [
        Crossing(tuple(current(s + k) for s in c.slots), c.sign) for part, k in parts for c in part
    ]
    return crossings, circles, [current(v) for v in carry]


def _reference_glue(t, joins, carry=(), shifted=Diagram(), shift=0):
    crossings, circles, carry = reference_apply_joins(
        t.crossings, t.circles, joins, list(carry), shifted, shift
    )
    out = Diagram(tuple(crossings), tuple(circles), tuple(carry))
    validate(out)
    return out


def reference_numerator_closure(t):
    nw, ne, se, sw = t.boundary
    return _reference_glue(t, [(nw, ne), (sw, se)])


def reference_denominator_closure(t):
    nw, ne, se, sw = t.boundary
    return _reference_glue(t, [(nw, sw), (ne, se)])


def reference_close_one_tangle(t):
    return _reference_glue(t, [tuple(t.boundary)])


def reference_tangle_add(t1, t2):
    shift = max_label(t1)
    nw, ne, se, sw = t1.boundary
    hnw, hne, hse, hsw = (e + shift for e in t2.boundary)
    return _reference_glue(t1, [(ne, hnw), (se, hsw)], [nw, hne, hse, sw], t2, shift)


def reference_east_cap(t):
    nw, ne, se, sw = t.boundary
    return _reference_glue(t, [(ne, se)], [nw, sw])


def reference_insert_into_host(t, host, closure="N"):
    """The sum of t and host, then its N or D closure; 1-tangles meet end to end."""
    if len(t.boundary) == 2:
        shift = max_label(t)
        (a, b), (c, d) = t.boundary, (e + shift for e in host.boundary)
        return _reference_glue(t, [(a, c), (b, d)], (), host, shift)
    s = reference_tangle_add(t, host)
    return reference_numerator_closure(s) if closure == "N" else reference_denominator_closure(s)


def east_cap(t):
    """Close a 2-tangle's east side, leaving a 1-tangle with NW/SW endpoints:
    the library's glue, as verification once capped its 1-tangle hosts."""
    return _glue(t, _ARC_HOST, [(1, 4), (2, 5)], (0, 3))


def drawn_hosts(t, trials=100, seed=0):
    """(name, host) for each host verify_certificate draws for t, repeats
    included, each built: the library's validated trivial hosts, then
    `trials` rational tangles drawn by _random_twists, east-capped for a
    1-tangle, where a cap that closes a loop is drawn again."""
    rng = random.Random(seed)
    one_tangle = len(t.boundary) == 2
    if one_tangle:
        hosts = [("trivial", _ARC_HOST)]
    else:
        hosts = [("zero", _ZERO_HOST), ("infinity", _INFINITY_HOST)]
    wanted = len(hosts) + trials
    while len(hosts) < wanted:
        w = _random_twists(rng)
        if not one_tangle:
            hosts.append((f"rational{w}", rational_tangle(w)))
            continue
        host = east_cap(rational_tangle(w))
        if not host.circles and len(components(host)) == 1:
            hosts.append((f"rational{w}-capped", host))
    return hosts


def drawn_closures(t, trials=100, seed=0):
    """(host name, closure, closed diagram) for each distinct drawn pair, in
    first-draw order, each glued once by insert_into_host."""
    closures = ("N",) if len(t.boundary) == 2 else ("N", "D")
    out = {}
    for name, host in drawn_hosts(t, trials, seed):
        for closure in closures:
            if (name, closure) not in out:
                out[name, closure] = insert_into_host(t, host, closure)
    return [(name, closure, dgm) for (name, closure), dgm in out.items()]


def reference_verify_certificate(t, cert, trials=100, seed=0):
    """verify_certificate building every drawn host and every closure afresh,
    and checking the extended coloring on each 1-component closure."""
    _check_certificate(t, cert)
    report = VerificationReport()
    closures = ("N",) if len(t.boundary) == 2 else ("N", "D")
    for name, host in drawn_hosts(t, trials, seed):
        for closure in closures:
            dgm = insert_into_host(t, host, closure)
            n_comp = len(components(dgm))
            entry = {"host": name, "closure": closure, "components": n_comp}
            if n_comp != 1:
                entry["result"] = "skipped"
                report.skipped += 1
                report.entries.append(entry)
                continue
            colors = {a: cert.coloring.colors.get(a, cert.boundary_color) for a in dgm.arcs()}
            ext = replace(cert.coloring, colors=colors)
            wa, wb = cert.witness
            if not (verify_coloring(dgm, ext) and colors[wa] != colors[wb]):
                raise CertificateError(
                    f"certificate fails on host {name} ({closure} closure):\n" + serialize(dgm)
                )
            entry["result"] = "pass"
            report.passes += 1
            report.entries.append(entry)
    return report


def same_colored_arc_pairs(d, coloring):
    """Every pair of arcs with equal colors, smallest labels first, the labels
    of one strand included: the list find_same_colored_pairs returned before
    it kept only pairs on distinct strands.  cut_two_arcs cuts any such pair,
    so the cut tests draw their pairs from it."""
    colors = coloring.colors
    arcs = sorted(d.arcs())
    return [(a, b) for i, a in enumerate(arcs) for b in arcs[i + 1:] if colors[a] == colors[b]]


def reference_verify_coloring(d, coloring):
    """Every arc colored (else ColoringError), a non-involutory quandle only on
    an oriented diagram or one without crossings (else ColoringError), then
    every crossing: the over colors agree, and under-out = under-in * over at
    a positive or unsigned crossing, under-out * over = under-in at a
    negative one."""
    colors = coloring.colors
    for label in d.arcs():
        if label not in colors:
            raise ColoringError(f"no color assigned to arc {label}")
    if isinstance(coloring, FoxColoring):
        n = coloring.modulus
        for x in d.crossings:
            s0, s1, s2, s3 = (colors[s] % n for s in x.slots)
            if s1 != s3 or (s0 + s2 - 2 * s1) % n != 0:
                return False
        return True
    table = coloring.quandle.table
    if d.crossings and not d.oriented and not coloring.quandle.involutory:
        raise ColoringError("orientation required for a non-involutory quandle coloring")
    if any(not 0 <= v < len(table) for v in colors.values()):
        raise ColoringError("a color lies outside the quandle")
    for x in d.crossings:
        a, b, c, e = (colors[s] for s in x.slots)
        if b != e or (table[a][b] != c if x.sign >= 0 else table[c][b] != a):
            return False
    return True


def reference_closure_evidence(dgm, moduli):
    """The closure's component count, determinant and the moduli with a
    nontrivial Fox coloring, each found by its own solve."""
    nontrivial = [n for n in moduli if fox_solution_space(dgm, n).count > n]
    return ClosureEvidence(len(components(dgm)), link_determinant(dgm), nontrivial)


def reference_cut_choice(d, mover, candidates):
    """({label: score}, tangle): each candidate's cut with mover built and
    oriented in full, scored by |reference_linking_sum|, and the cut of the smallest
    label with the largest score, as cut_two_arcs chose before it scored the
    candidates on the uncut knot."""
    f1 = max_label(d) + 1
    f2 = f1 + 1
    scores, best = {}, None
    for lbl in sorted(candidates):
        t = _cut(d, [mover, lbl], [f1, f2], (f1, mover, f2, lbl))
        scores[lbl] = abs(reference_linking_sum(orient(t)))
        if best is None or scores[lbl] > best[0]:
            best = (scores[lbl], t)
    return scores, best[1]


def reference_find_certificate_report(t, moduli=None, quandles=()):
    """The search with one loop for Fox moduli (endpoints pinned to 0, a
    propagation clash recorded on a miss) and another for quandles (each
    orbit representative pinned in turn); a Fox hit's entry has no pin."""
    if len(t.boundary) not in (2, 4):
        raise DiagramError("certificates are for 1- and 2-tangles")
    report = CertificateSearchReport()
    if moduli is None:
        moduli, report.cannot_exist = _default_moduli(t)
    for n in sorted(moduli):
        space = fox_solution_space(t, n, pins={e: 0 for e in t.boundary})
        hit = space.first_nonconstant()
        if hit is not None:
            report.certificate = _issue(t, hit, 0)
            report.entries.append({"fox": n, "found": True})
            return report
        clash = space.forced_equal_pair()
        entry = {"fox": n, "found": False}
        if clash:
            entry["clash"] = list(clash)
        report.entries.append(entry)
    for q in quandles:
        clash = None
        for v in q.orbit_representatives():
            space = quandle_space(t, q, pins={e: v for e in t.boundary})
            hit = space.first_nonconstant()
            if hit is not None:
                report.certificate = _issue(t, hit, v)
                report.entries.append({"quandle": q.name or "table", "pin": v, "found": True})
                return report
            clash = space.forced_equal_pair()
        entry = {"quandle": q.name or "table", "found": False}
        if clash:
            entry["clash"] = list(clash)
        report.entries.append(entry)
    return report


def canonical_form(d):
    """A relabeling-invariant rendering, for isomorphism-up-to-relabel checks:
    the least text over breadth-first renamings from every crossing slot."""
    if not d.crossings:
        circles = sorted(range(1, len(d.circles) + 1))
        base = "".join(f"O {k}\n" for k in circles)
        if d.boundary:
            seen = {}
            names = [seen.setdefault(e, len(seen) + 1) for e in d.boundary]
            base += "B " + " ".join(map(str, names)) + "\n"
        return base
    best = None
    _, other = _darts(d)[:2]
    c4 = 4 * len(d.crossings)
    for start_ci in range(len(d.crossings)):
        for offset in range(4):
            names = {}
            order = []
            queue = [(start_ci, offset)]
            visited = set()
            while queue or len(visited) < len(d.crossings):
                if not queue:
                    rest = [ci for ci in range(len(d.crossings)) if ci not in visited]
                    queue.append((rest[0], 0))
                ci, off = queue.pop(0)
                if ci in visited:
                    continue
                visited.add(ci)
                order.append((ci, off))
                for k in range(4):
                    slot = (off + k) % 4
                    label = d.crossings[ci].slots[slot]
                    if label not in names:
                        names[label] = len(names) + 1
                        # scan the neighbor from the slot this label enters at
                        k = other[4 * ci + slot]
                        if k < c4 and k >> 2 not in visited:
                            queue.append((k >> 2, k & 3))
            rows = []
            for ci, off in order:
                c = d.crossings[ci]
                even = off - (off % 2)  # keep the under pair at positions 0/2
                slots = tuple(names[c.slots[(even + k) % 4]] for k in range(4))
                if c.sign == 0:
                    alt = (slots[2], slots[3], slots[0], slots[1])
                    slots = min(slots, alt)
                rows.append((slots, c.sign))
            rows.sort()
            text = "".join(f"{sign}:{slots}\n" for slots, sign in rows)
            for k in d.circles:
                text += "O\n"
            if d.boundary:
                text += "B " + " ".join(str(names.get(e, 0)) for e in d.boundary) + "\n"
            if best is None or text < best:
                best = text
    return best
