"""The benchmark's workloads: seeded inputs, the timed call, and answer checks.

Every input is built from the seed alone through tanglecert's public
constructors and reaches the timed call as PD text, the way the CLI reads a
file. solve() is the timed path; it returns the outputs to check and the
payload the CLI would print as JSON. check() recomputes what it can
without the timed code path and raises Mismatch on any disagreement.

Inputs are laid out in periods: each period holds every rung of the
workload in fixed proportion, in a seeded order, so that any run that
covers a few periods sees the same mix whatever the seed. No timed input
is expected to fail. Inputs that show a known defect (a failure) are
probes: they run outside the timed loop, in the traced run only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class Mismatch(Exception):
    """A program output disagrees with an independent check."""


def need(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


@dataclass
class Item:
    name: str
    text: str  # PD text handed to the timed call
    diagram: object  # the Diagram the constructors built, for checks
    params: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    periods: int  # periods in the input pool; runs cycle through it
    build_period: object  # (tc, rng, period index) -> list[Item]
    solve: object  # (tc, Item) -> (outputs, payload thunk)
    check: object  # (tc, Item, outputs) -> None, raises Mismatch
    build_probes: object = None  # (tc, rng) -> list[Item] that show a known defect

    def build(self, tc, seed: int) -> list[Item]:
        rng = random.Random(f"{self.name}:{seed}")
        pool = []
        for index in range(self.periods):
            period = self.build_period(tc, rng, index)
            rng.shuffle(period)
            pool.extend(period)
        return pool

    def probes(self, tc, seed: int) -> list[Item]:
        if self.build_probes is None:
            return []
        return self.build_probes(tc, random.Random(f"{self.name}:probes:{seed}"))


# ---------------------------------------------------------------------------
# independent checks


def _classes(d, pairs) -> dict[int, int]:
    """Union-find over the diagram's arc labels; returns label -> representative."""
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        a, b = find(a), find(b)
        if a != b:
            parent[a] = b
    return {label: find(label) for label in d.arcs()}


def _fox_rows(d) -> tuple[list[list[int]], dict[int, int]]:
    """Crossing matrix from the PD code alone: rows are crossings, columns over-strands.

    Returns the rows and each arc label's column.
    """
    rep = _classes(d, [(c.slots[1], c.slots[3]) for c in d.crossings])
    index = {r: i for i, r in enumerate(sorted(set(rep.values())))}
    col = {label: index[r] for label, r in rep.items()}
    rows = []
    for c in d.crossings:
        row = [0] * len(index)
        row[col[c.slots[1]]] += 2
        row[col[c.slots[0]]] -= 1
        row[col[c.slots[2]]] -= 1
        rows.append(row)
    return rows, col


def _first_minor(d) -> list[list[int]] | None:
    """First minor of the crossing matrix, or None when the matrix is not square."""
    rows, col = _fox_rows(d)
    if not rows or len(set(col.values())) != len(rows):
        return None
    return [r[:-1] for r in rows[:-1]]


def _minor_det(tc, d) -> int | None:
    """|det| of the first minor by the program's linalg.bareiss_determinant."""
    minor = _first_minor(d)
    return None if minor is None else abs(tc.linalg.bareiss_determinant(minor))


def _bareiss(m: list[list[int]]) -> int:
    """Determinant by fraction-free elimination, independent of the program."""
    m = [row[:] for row in m]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _nonconstant_coloring(d, p: int) -> dict[int, int] | None:
    """A nonconstant Fox coloring mod prime p, from a reduced echelon form.

    The basis vector of the first free column that is not constant is
    returned, so the choice depends on the diagram alone.
    """
    rows, col = _fox_rows(d)
    ncols = len(set(col.values()))
    rows = [[x % p for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        k = len(pivots)
        rows[k], rows[r] = rows[r], rows[k]
        inv = pow(rows[k][c], -1, p)
        rows[k] = [x * inv % p for x in rows[k]]
        for i in range(len(rows)):
            if i != k and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[k])]
        pivots.append(c)
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for k, c in enumerate(pivots):
            v[c] = -rows[k][free] % p
        if len(set(v)) > 1:
            return {label: v[c] for label, c in col.items()}
    return None


def _faces(d) -> list[frozenset[int]]:
    """Arc labels around each face of a closed diagram, from its PD code alone.

    A face is an orbit of darts (crossing, slot): leave along the slot's arc,
    and turn to the next slot counterclockwise at the crossing it reaches.
    """
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, c in enumerate(d.crossings):
        for si, label in enumerate(c.slots):
            ends.setdefault(label, []).append((ci, si))
    other = {}
    for a, b in ends.values():
        other[a], other[b] = b, a
    faces, seen = [], set()
    for start in sorted(other):
        labels, cur = set(), start
        while cur not in seen:
            seen.add(cur)
            labels.add(d.crossings[cur[0]].slots[cur[1]])
            ci, si = other[cur]
            cur = (ci, (si + 1) % 4)
        if labels:
            faces.append(frozenset(labels))
    return faces


def _colors_ok(d, colors: dict, n: int) -> bool:
    """Every arc colored and every crossing relation holding mod n.

    Fox colorings mod n and dihedral-quandle colorings of order n obey the
    same rule: equal colors on the over strand, under colors summing to
    twice the over color.
    """
    if any(label not in colors for label in d.arcs()):
        return False
    for c in d.crossings:
        s0, s1, s2, s3 = (colors[s] % n for s in c.slots)
        if s1 != s3 or (s0 + s2 - 2 * s1) % n:
            return False
    return True


def _coloring_ok(tc, d, coloring, n: int) -> bool:
    """The program's verify_coloring and the benchmark's own rule both accept it."""
    return tc.verify_coloring(d, coloring) and _colors_ok(d, coloring.colors, n)


def _check_certificate(tc, t, cert, n: int) -> None:
    colors = cert.coloring.colors
    need(_coloring_ok(tc, t, cert.coloring, n), "certificate coloring breaks a crossing relation")
    need(
        {colors[e] % n for e in t.boundary} == {cert.boundary_color % n},
        "certificate boundary is not monochromatic",
    )
    a, b = cert.witness
    need(a != b and a in t.arcs() and b in t.arcs(), "certificate witness is not a pair of tangle arcs")
    need(colors[a] % n != colors[b] % n, "certificate witness arcs share a color")


def _is_power(count: int, p: int) -> bool:
    while count % p == 0 and count > 1:
        count //= p
    return count == 1


def _braid(tc, rng, strands: int, crossings: int):
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(crossings)]
    return tc.braid_closure(word, strands)


def _item(tc, name, diagram, **params) -> Item:
    return Item(name, tc.serialize(diagram), diagram, params)


# ---------------------------------------------------------------------------
# algebra-ladder: braid closures from tens to hundreds of crossings


MODULI = (3, 5, 15, 97)
# (strands, crossings, inputs per period). The 3-strand 50 rung holds the
# middle of each period and the 150 rung its top fifth, so input_p50_ms and
# input_p90_ms fall inside a rung rather than between two. None of these
# rungs blew up in a few hundred draws: 3x150 takes at most about 0.6 s.
LADDER = ((3, 25, 5), (3, 50, 8), (4, 40, 1), (3, 100, 3), (3, 150, 5))
# probes: diagonalize's entries blow up to thousands of bits on about a
# third to a half of these draws, which then take seconds
BLOWUP_PROBES = ((4, 100), (4, 100), (5, 60), (5, 60))
# probe, quandle search only: the recursive search exceeds Python's stack here
RECURSION_PROBE = (3, 1500)


def _algebra_period(tc, rng, index: int) -> list[Item]:
    rungs = [(s, n) for s, n, k in LADDER for _ in range(k)]
    return [_item(tc, f"braid{s}x{n}", _braid(tc, rng, s, n), quandle_only=False) for s, n in rungs]


def _algebra_probes(tc, rng) -> list[Item]:
    probes = [_item(tc, f"braid{s}x{n}", _braid(tc, rng, s, n), quandle_only=False) for s, n in BLOWUP_PROBES]
    s, n = RECURSION_PROBE
    probes.append(_item(tc, f"braid{s}x{n}", _braid(tc, rng, s, n), quandle_only=True))
    return probes


def _algebra_solve(tc, item):
    d = tc.parse_diagram(item.text)
    search = tc.quandle_colorings(d, tc.dihedral(3))
    det = counts = None
    if not item.params["quandle_only"]:
        det = tc.link_determinant(d)
        counts = {n: tc.fox_solution_space(d, n).count for n in MODULI}

    def payload():
        return {"schema": 1, "determinant": det, "counts": counts, "quandle_colorings": len(search)}

    return (d, search, det, counts), payload


def _algebra_check(tc, item, out):
    d, search, det, counts = out
    need(d == item.diagram, f"{item.name}: parse_diagram changed the diagram")
    need(search.complete, f"{item.name}: quandle search truncated")
    for qc in search:
        need(_coloring_ok(tc, d, qc, 3), f"{item.name}: dihedral-3 coloring breaks a crossing")
    need(
        sum(1 for qc in search if not qc.nontrivial) == 3,
        f"{item.name}: expected exactly the 3 constant colorings",
    )
    if det is None:
        return
    need(len(search) == counts[3], f"{item.name}: dihedral-3 colorings != Fox count mod 3")
    need(counts[15] == counts[3] * counts[5], f"{item.name}: count(15) != count(3) * count(5)")
    for p in (3, 5, 97):
        need(_is_power(counts[p], p), f"{item.name}: count({p}) = {counts[p]} is not a power of {p}")
        need((counts[p] > p) == (det % p == 0), f"{item.name}: count({p}) > {p} disagrees with det {det}")
    if len(d.crossings) <= 60:
        minor = _minor_det(tc, d)
        need(minor is None or minor == det, f"{item.name}: det {det} != first minor {minor}")


ALGEBRA = Workload("algebra-ladder", 12, _algebra_period, _algebra_solve, _algebra_check, _algebra_probes)


# ---------------------------------------------------------------------------
# certify-hosts: T+T* tangles and the corpus tangles, verified over hosts


HOST_TRIALS = 100
# corpus tangle -> expected search outcome; the closure determinants of
# fig9-tangle have gcd 1, so its clash shows only on an explicit sweep
CLASH_SWEEP = [3, 5, 7]
CORPUS_TANGLES = {
    "fig1-krebes.pd": "found",
    "fig2-p3.pd": "found",
    "fig2-p5.pd": "found",
    "fig2-p7.pd": "found",
    "fig3-1tangle.pd": "found",
    "fig4-tangle.pd": "found",
    "fig5-t-plus-tstar.pd": "found",
    "fig8-tangle.pd": "cannot-exist",  # closure determinants 5 and 3
    "fig9-tangle.pd": "clash",  # pinning forces two arcs equal on CLASH_SWEEP
}
# mod-2 certificate whose every host closure has two components
FIXED_TWISTS = (3, 1, 2)
# Random twist vectors per period: three of each length 1..4. Within one
# length, each position takes the sizes 1, 2 and 3 once across the three,
# so a period's crossing count is fixed, and of the length-2 vectors
# exactly one has denominator 1 (first twist of size 1), a cheap
# cannot-exist case. The pairing and the signs are random. This keeps the
# cost of a period steady across seeds.
TWIST_SIZES = (1, 2, 3)


def _fraction(twists) -> Fraction | None:
    """an + 1/(a_{n-1} + ... + 1/a1), or None at infinity."""
    value = Fraction(twists[0])
    for a in twists[1:]:
        if value == 0:
            return None
        value = a + 1 / value
    return value


def _t_plus_tstar(tc, twists) -> Item:
    t = tc.rational_tangle(list(twists))
    s = tc.tangle_add(t, tc.mirror(t))
    q = _fraction(twists).denominator
    # the closure determinants are 0 and q^2, so a certificate exists iff q > 1
    expect = "found" if q > 1 else "cannot-exist"
    return _item(tc, f"T+T*{list(twists)}", s, expect=expect, q=q, moduli=None)


def _certify_period(tc, rng, index: int) -> list[Item]:
    period = []
    for name, expect in CORPUS_TANGLES.items():
        t = tc.parse_diagram((CORPUS / name).read_text())
        moduli = CLASH_SWEEP if expect == "clash" else None
        period.append(_item(tc, name, t, expect=expect, q=None, moduli=moduli))
    period.append(_t_plus_tstar(tc, FIXED_TWISTS))
    for length in range(1, 5):
        columns = [rng.sample(TWIST_SIZES, len(TWIST_SIZES)) for _ in range(length)]
        for sizes in zip(*columns):
            while True:
                twists = [rng.choice((-1, 1)) * a for a in sizes]
                f = _fraction(twists)
                if f is not None and f != 0:  # else T+T* is not a tangle sum to certify
                    break
            period.append(_t_plus_tstar(tc, twists))
    for item in period:
        item.params["host_seed"] = rng.randrange(2**31)
    return period


def _certify_solve(tc, item):
    t = tc.parse_diagram(item.text)
    report = tc.find_certificate_report(t, item.params["moduli"], quandles=(tc.dihedral(3),))
    cert = report.certificate
    vrep = None
    if cert is not None:
        vrep = tc.verify_certificate(t, cert, trials=HOST_TRIALS, seed=item.params["host_seed"])

    def payload():
        if cert is None:
            return report.to_json()
        out = cert.to_json(item.name)
        out["verification"] = vrep.to_json()
        return out

    return (t, report, vrep), payload


def _certify_check(tc, item, out):
    t, report, vrep = out
    expect = item.params["expect"]
    need(t == item.diagram, f"{item.name}: parse_diagram changed the diagram")
    cert = report.certificate
    found = cert is not None
    need(found == (expect == "found"), f"{item.name}: expected {expect}, found={found}")
    need(
        report.cannot_exist == (expect == "cannot-exist"),
        f"{item.name}: expected {expect}, cannot_exist={report.cannot_exist}",
    )
    if expect == "clash":
        need(any(e.get("clash") for e in report.entries), f"{item.name}: no propagation clash reported")
    if cert is None:
        return
    kind, n = cert.kind
    need(kind == "fox", f"{item.name}: expected a Fox certificate, got {kind}")
    if item.params["q"] is not None:
        need(item.params["q"] % n == 0, f"{item.name}: modulus {n} does not divide q = {item.params['q']}")
    _check_certificate(tc, t, cert, n)
    closures = 2 if len(t.boundary) == 4 else 1
    need(
        len(vrep.entries) == closures * (HOST_TRIALS + closures) == vrep.passes + vrep.skipped,
        f"{item.name}: verification report does not cover every host closure",
    )
    need(
        all((e["result"] == "pass") == (e["components"] == 1) for e in vrep.entries),
        f"{item.name}: a knot closure was skipped or a link closure passed",
    )


CERTIFY = Workload("certify-hosts", 18, _certify_period, _certify_solve, _certify_check)


# ---------------------------------------------------------------------------
# transport-cut: two far-apart same-colored arcs transported and cut


# (crossings, knots per period): the 24 rung holds the middle of each
# period and the 30 rung its top fifth, where input_p90_ms falls. No draw
# of 30 crossings blew up in 500; about one 36-crossing draw in 180 blows
# up in the re-solve and takes ~1.5 s, so whether a seed drew one would
# move its inputs_per_s. The blow-up itself is measured by algebra-ladder's
# probes. The pool's 40 periods hold 80 knots of the 30 rung, so
# input_p90_ms rests on many draws and moves little from seed to seed.
TRANSPORT_SIZES = ((16, 2), (24, 5), (30, 2))
EXTRA_PASSES = 2


def _farthest_pair(faces: list[frozenset[int]], colors: dict) -> tuple[int, int, int]:
    """(distance, a, b) for the same-colored arcs a < b farthest apart.

    The distance is the fewest arcs crossed to get from a face of a to a
    face of b; 0 means the two arcs share a face.
    """
    by_arc: dict[int, list[int]] = {}
    for i, f in enumerate(faces):
        for x in f:
            by_arc.setdefault(x, []).append(i)
    best = (0, 0, 0)
    for a in sorted(by_arc):
        frontier, seen, level = set(by_arc[a]), set(by_arc[a]), 0
        while frontier:
            for i in frontier:
                for b in faces[i]:
                    if b > a and colors[b] == colors[a]:
                        best = max(best, (level, a, b))
            frontier = {j for i in frontier for x in faces[i] if x != a for j in by_arc[x]} - seen
            seen |= frontier
            level += 1
    return best


def _is_knot(d) -> bool:
    strands = [(c.slots[0], c.slots[2]) for c in d.crossings] + [(c.slots[1], c.slots[3]) for c in d.crossings]
    return len(set(_classes(d, strands).values())) == 1


def _smallest_prime_factor(n: int) -> int | None:
    return next((p for p in range(3, 98, 2) if n % p == 0), None)


def _transport_item(tc, rng, crossings: int) -> Item:
    """A knot with its modulus and arc pair, chosen without calling the program."""
    while True:
        d = _braid(tc, rng, 3, crossings)
        if not _is_knot(d):
            continue
        det = abs(_bareiss(_first_minor(d)))
        p = _smallest_prime_factor(det)
        if p is None:
            continue
        distance, a, b = _farthest_pair(_faces(d), _nonconstant_coloring(d, p))
        if distance >= 1:
            return _item(tc, f"knot{crossings}", d, modulus=p, arcs=(a, b), det=det)


def _transport_period(tc, rng, index: int) -> list[Item]:
    return [_transport_item(tc, rng, n) for n, k in TRANSPORT_SIZES for _ in range(k)]


def _transport_solve(tc, item):
    d = tc.parse_diagram(item.text)
    a, b = item.params["arcs"]
    coloring = tc.fox_solution_space(d, item.params["modulus"], pins={a: 0, b: 0}).first_nonconstant()
    t, cert, records = tc.cut_two_arcs(d, coloring, a, b, extra_passes=EXTRA_PASSES)

    def payload():
        out = cert.to_json(item.name)
        out["moves"] = tc.records_to_json(records)
        return out

    return (d, coloring, t, cert, records), payload


def _transport_check(tc, item, out):
    d, coloring, t, cert, records = out
    p = item.params["modulus"]
    a, b = item.params["arcs"]
    need(d == item.diagram, f"{item.name}: parse_diagram changed the diagram")
    need(_coloring_ok(tc, d, coloring, p), f"{item.name}: pinned coloring breaks a crossing")
    need(
        coloring.nontrivial and coloring.colors[a] == coloring.colors[b] == 0,
        f"{item.name}: pinned coloring is trivial or moved a pin",
    )
    need(len(t.boundary) == 4, f"{item.name}: cut did not produce a 2-tangle")
    need(len(t.crossings) == len(d.crossings) + 2 * len(records), f"{item.name}: crossings != 2 per R2 move")
    need(len(records) >= 1 + EXTRA_PASSES, f"{item.name}: arcs were not transported")
    _check_certificate(tc, t, cert, p)
    # the numerator closure re-glues both cuts, so it is the input knot again
    minor = _minor_det(tc, tc.numerator_closure(t))
    need(minor == item.params["det"], f"{item.name}: re-glued knot has first minor {minor}")


TRANSPORT = Workload("transport-cut", 40, _transport_period, _transport_solve, _transport_check)


WORKLOADS = {w.name: w for w in (ALGEBRA, CERTIFY, TRANSPORT)}
