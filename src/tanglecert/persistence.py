"""Cut constructions, boundary-monochromatic certificates, and verification.

A certificate for a tangle is a nontrivial coloring that gives every
boundary endpoint the same color.  Whatever diagram the tangle appears in,
the rest of that diagram can be colored by that one constant, producing a
nontrivial coloring of the whole knot; the knot is therefore nontrivial.
One exact check, _check_certificate, holds every certificate to this: the
endpoints carry the boundary color, the witness arcs differ, and every
crossing relation holds (colorings' one loop).  Every certificate is made
by one constructor, _issue, which takes the witness from the coloring and
runs that check; the cuts and the search all call it.  A certificate's
kind, JSON key and crossing rule are its coloring's own, so nothing here
names a coloring class.  verify_certificate runs the check on the tangle
and composes each sampled closure's answer from end pairings, building no
host and no closure.

The cut constructions manufacture certified tangles from nontrivially
colored knot diagrams: cutting one arc twice, or two same-colored arcs once
each (transporting one next to the other by R2 moves when they do not
share a face).  All of them cut through _cut.  Extra transport passes
spiral the mover around the destination strand, inflating the linking
between the tangle's open strands while keeping the boundary monochromatic.
The spiral leaves several same-colored segments to cut; each is scored by
the |linking| its cut would have, read off the uncut knot's one strand walk
(_cut_linkings), ties go to the smallest label, and only the winning cut is
built.

The certificate search is one loop over Fox moduli, then quandles.  By
default it sweeps the primes up to 97 that divide the gcd obstruction g,
then what remains of g as one modulus, so nothing is factored.  Reports
read every closure fact from one determinant per closure: a nontrivial Fox
coloring mod n exists exactly when n shares a factor with it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from itertools import combinations, product

from .colorings import (
    ColoringError,
    Quandle,
    _broken_crossing,
    _fox_key,
    _quandle_key,
    fox_solution_space,
    link_determinant,
    quandle_space,
    verify_coloring,
)
from .diagram import (
    Diagram,
    DiagramError,
    _edit,
    _far_ends,
    _flow,
    _has_arc,
    _strands,
    co_facial,
    components,
    faces,
    max_label,
    strand_classes,
)
from .moves import (
    MoveRecord,
    apply_r2_over,
    r2_transport,
    recolor_after_move,
    records_to_json,
)
from .tangle import (
    TangleFraction,
    _closure_cycles,
    _require_tangle,
    close_one_tangle,
    connectivity,
    denominator_closure,
    mirror,
    numerator_closure,
    rational_tangle,
    tangle_add,
    tangle_fraction,
)

__all__ = [
    "CertificateError",
    "CertificateNotFound",
    "CertificateSearchReport",
    "IrreducibilityReport",
    "PersistenceCertificate",
    "VerificationReport",
    "build_T_plus_Tstar",
    "cut_arc_once",
    "cut_arc_twice",
    "cut_two_arcs",
    "ensure_same_colored_pair",
    "find_certificate",
    "find_certificate_report",
    "find_same_colored_pairs",
    "irreducibility_report",
    "krebes_gcd",
    "verify_certificate",
]

_PRIMES_TO_97 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]


class CertificateError(DiagramError):
    pass


class CertificateNotFound(CertificateError):
    def __init__(self, message: str, report=None, cannot_exist: bool = False):
        super().__init__(message)
        self.report = report
        self.cannot_exist = cannot_exist


@dataclass
class PersistenceCertificate:
    """A boundary-monochromatic nontrivial coloring of a tangle."""

    coloring: object  # over the tangle's arcs, any kind: its kind, key and rule are its own
    boundary_color: int
    witness: tuple[int, int]
    moves: list[MoveRecord] = field(default_factory=list)

    @property
    def kind(self) -> tuple:
        """('fox', N) or ('quandle', Quandle), the coloring's."""
        return self.coloring.kind

    def to_json(self, tangle_name: str = "") -> dict:
        return {
            "schema": 1,
            "tangle": tangle_name,
            "kind": self.coloring.key,
            "boundary_color": self.boundary_color,
            "colors": {str(k): v for k, v in sorted(self.coloring.colors.items())},
            "witness": list(self.witness),
            "moves": records_to_json(self.moves),
        }


def _check_certificate(t: Diagram, cert: PersistenceCertificate, colors=None) -> None:
    """Every endpoint has the boundary color, the witness arcs of t differ and
    every crossing relation holds, comparing colors as the coloring keeps
    them (Fox ones mod N); else CertificateError naming the fault.  colors,
    when given, stands in for cert.coloring.colors: kept as the coloring
    keeps them, and colors the coloring accepts."""
    values = cert.coloring.colors if colors is None else colors
    if not (isinstance(cert.witness, (tuple, list)) and len(cert.witness) == 2):
        raise CertificateError(f"witness must be a pair of arcs, got {cert.witness!r}")
    for label in (*t.boundary, *cert.witness):
        if label not in values or not _has_arc(t, label):
            raise CertificateError(f"endpoint or witness arc {label} has no color on t")
    try:
        broken = _broken_crossing(t, cert.coloring, values)
    except ColoringError as exc:
        raise CertificateError(f"cannot check the certificate on the tangle: {exc}") from None
    fill = cert.coloring.reduce(cert.boundary_color)
    for e in t.boundary:
        if values[e] != fill:
            raise CertificateError(f"endpoint {e} is not boundary-colored")
    a, b = cert.witness
    if values[a] == values[b]:
        raise CertificateError("witness arcs carry equal colors")
    if broken is not None:
        raise CertificateError(
            f"certificate coloring breaks a crossing relation of the tangle at {broken.slots}"
        )


def _issue(t: Diagram, coloring, boundary_color: int, moves=()) -> PersistenceCertificate:
    """The certificate of a coloring of t, witnessed by coloring.witness();
    every certificate is made here, and only after _check_certificate passes it."""
    cert = PersistenceCertificate(coloring, boundary_color, coloring.witness(), list(moves))
    _check_certificate(t, cert)
    return cert


# ---------------------------------------------------------------------------
# cutting constructions


def _require_cuttable(d: Diagram, coloring=None) -> None:
    """What every cut needs: a closed 1-component diagram and, when a
    coloring comes with it, one that is nontrivial and valid on d."""
    if d.boundary:
        raise DiagramError("cut operations need a closed diagram")
    if len(components(d)) != 1:
        raise DiagramError("cut operations need a 1-component diagram")
    if coloring is not None:
        if not coloring.nontrivial:
            raise CertificateError("a trivial coloring certifies nothing")
        if not verify_coloring(d, coloring):
            raise CertificateError("coloring is not valid on the diagram")


def _cut(d: Diagram, arcs: list[int], fresh: list[int], boundary: tuple[int, ...]) -> Diagram:
    """Cut each of `arcs` at its far end from a face they all border, where
    it takes its `fresh` label; the result, with this boundary, validated.

    Cutting there keeps each arc's label on the face side of the cut.
    """
    places = _far_ends(d, arcs)
    if places is None:
        raise DiagramError(f"no face contains all of {sorted(arcs)}")
    return _edit(d, [(*place, a, f) for place, a, f in zip(places, arcs, fresh)], boundary=boundary)


def cut_arc_once(d: Diagram, arc: int) -> Diagram:
    """Disconnect one arc of a closed 1-component diagram: a 1-tangle."""
    _require_cuttable(d)
    if arc in d.circles:
        return _edit(d, circles=[k for k in d.circles if k != arc], boundary=(arc, arc))
    if not _has_arc(d, arc):
        raise DiagramError(f"unknown arc {arc}")
    fresh = max_label(d) + 1
    return _cut(d, [arc], [fresh], (arc, fresh))


def cut_arc_twice(d: Diagram, coloring, arc: int):
    """Disconnect one arc at two points: a certified 2-tangle.

    All four endpoints inherit the arc's color, so the certificate's
    boundary color is coloring[arc]; the coloring must be nontrivial or the
    certificate would be vacuous.
    """
    _require_cuttable(d, coloring)  # rules out a circle too: alone, it has no nontrivial coloring
    if not _has_arc(d, arc):
        raise DiagramError(f"unknown arc {arc}")
    mid = max_label(d) + 1
    tail = mid + 1
    out = _cut(d, [arc], [tail], (arc, mid, mid, tail))
    colors = dict(coloring.colors)
    colors[mid] = colors[tail] = colors[arc]
    return out, _issue(out, replace(coloring, colors=colors), colors[arc])


def _cut_linkings(d: Diagram, mover: int, candidates: list[int]) -> list[int]:
    """Per candidate lbl, |linking_sum| of the oriented cut of arcs mover and
    lbl of the knot d, read off d's one strand walk without cutting.

    Pass i is the crossing the walk meets between its arcs i and i + 1.
    Cutting two arcs splits the passes into two runs, one per open strand,
    and a crossing links the strands when its two passes lie in different
    runs.  Each crossing is signed as orient signs it, by _flow.  Reversing
    one strand negates every linking sign, so the absolute sum does not
    depend on how the tangle is oriented.
    """
    labels, strands = _strands(d)
    (walk,) = strands
    signs = _flow(d, strands)[1]
    position = {labels[tail]: i for i, tail in enumerate(walk[::2])}
    passes = [[0, 0] for _ in d.crossings]  # per crossing, its under and over pass
    for i, head in enumerate(walk[1::2]):
        passes[head >> 2][head & 1] = i
    scores = []
    for lbl in candidates:
        lo, hi = sorted((position[mover], position[lbl]))
        scores.append(
            abs(sum(s for s, (u, o) in zip(signs, passes) if (lo <= u < hi) != (lo <= o < hi)))
        )
    return scores


def cut_two_arcs(d: Diagram, coloring, a1: int, a2: int, extra_passes: int = 0):
    """Cut two same-colored arcs once each, transporting them together first.

    Returns (tangle, certificate, move records).  extra_passes > 0 spirals
    the mover around the destination strand before cutting, adding one
    same-signed crossing between the tangle's open strands per pass.  Of
    the same-colored co-facial segments left to cut, the one whose cut has
    the largest |linking| is cut, read off the uncut knot's strand walk;
    ties go to the smallest label, and one tangle is built.
    """
    _require_cuttable(d, coloring)
    if a1 == a2:
        raise DiagramError("need two distinct arcs")
    if coloring.colors[a1] != coloring.colors[a2]:
        raise CertificateError(f"arcs {a1} and {a2} carry different colors")
    moved = r2_transport(d, coloring, a1, a2)
    d, coloring, mover, records = moved.diagram, moved.coloring, moved.segment, moved.records
    dest_labels = [a2]
    for _ in range(extra_passes):
        target = None
        for candidate in (dest_labels[-1], *reversed(dest_labels[:-1])):
            if candidate != mover and _has_arc(d, candidate) and co_facial(d, mover, candidate):
                target = candidate
                break
        if target is None:
            raise CertificateError("cannot continue the spiral: no co-facial segment")
        d, rec = apply_r2_over(d, mover, target)
        coloring = recolor_after_move(coloring, rec, d)
        records.append(rec)
        mover = rec.fresh[0]
        dest_labels.extend([rec.fresh[2], rec.fresh[3]])
    boundary_color = coloring.colors[mover]
    candidates = [
        lbl
        for lbl in dest_labels
        if lbl != mover
        and _has_arc(d, lbl)
        and coloring.colors[lbl] == boundary_color
        and co_facial(d, mover, lbl)
    ]
    if not candidates:
        raise CertificateError("no same-colored co-facial segment left to cut")
    candidates.sort()
    scores = _cut_linkings(d, mover, candidates)
    lbl = candidates[scores.index(max(scores))]  # the smallest label of the most linked
    f1 = max_label(d) + 1
    f2 = f1 + 1
    # the numerator closure re-glues both cuts; endpoints read clockwise,
    # which reverses the face-walk encounter order
    t = _cut(d, [mover, lbl], [f1, f2], (f1, mover, f2, lbl))
    colors = dict(coloring.colors)
    colors[f1] = colors[f2] = boundary_color
    return t, _issue(t, replace(coloring, colors=colors), boundary_color, records), records


def find_same_colored_pairs(d: Diagram, coloring):
    """Arc pairs with equal colors on distinct strands, smallest labels first.

    The labels of one over-strand always share a color, so arcs are grouped
    by color, then by strand class, and only arcs of two strands pair.
    """
    classes = strand_classes(d)
    groups: dict = {}  # color -> strand class -> its arcs
    for a in d.arcs():
        groups.setdefault(coloring.colors[a], {}).setdefault(classes[a], []).append(a)
    return sorted(
        (min(pair), max(pair))
        for strands in groups.values()
        for one, other in combinations(strands.values(), 2)
        for pair in product(one, other)
    )


def ensure_same_colored_pair(d: Diagram, coloring):
    """A same-colored arc pair on distinct strands, minted by an R2 move if need be.

    Some colorings give every strand its own color; pushing one arc over
    another mints a segment of its own strand, colored by the crossing rule,
    under * over, which can be made to collide with an existing color.
    Returns (diagram, coloring, pair, records).
    """
    pairs = find_same_colored_pairs(d, coloring)
    if pairs:
        return d, coloring, pairs[0], []
    colors, forward, _ = coloring.rule(d.oriented)
    arcs = sorted(d.arcs())
    for f in faces(d):
        for mover in sorted(f.arcs):
            for target in sorted(f.arcs):
                if mover == target:
                    continue
                minted = forward(colors[target], colors[mover])  # target's middle, under mover
                match = [a for a in arcs if colors[a] == minted and a not in (mover, target)]
                if not match:
                    continue
                d2, rec = apply_r2_over(d, mover, target)
                c2 = recolor_after_move(coloring, rec, d2)
                pair = (rec.fresh[2], match[0])  # the new middle segment of target
                assert c2.colors[pair[0]] == c2.colors[pair[1]]
                return d2, c2, pair, [rec]
    raise CertificateError("no same-colored pair can be created by one move")


# ---------------------------------------------------------------------------
# certificate search


def krebes_gcd(t: Diagram) -> int:
    """gcd of the two closure determinants; the modulus obstruction.

    A boundary-monochromatic coloring mod p extends to both closures, so p
    must divide both determinants (link determinant 0 meaning no
    obstruction from that closure).
    """
    if len(t.boundary) != 4:
        raise DiagramError("krebes_gcd needs a 2-tangle")
    return math.gcd(
        link_determinant(numerator_closure(t)), link_determinant(denominator_closure(t))
    )


def _default_moduli(t: Diagram) -> tuple[list[int], bool]:
    """(moduli to sweep, cannot_exist) from the gcd obstruction g.

    The sweep is the primes up to 97 that divide g (all of them when g = 0),
    then what is left of g, unfactored, as one modulus: a nonconstant
    coloring mod any prime p dividing that rest, times rest/p, is a
    nonconstant coloring mod rest.
    """
    if len(t.boundary) == 4:
        g = krebes_gcd(t)
    else:
        g = link_determinant(close_one_tangle(t))
    if g == 1:
        return [], True
    moduli = [p for p in _PRIMES_TO_97 if g % p == 0]
    rest = g
    for p in moduli:
        while rest and rest % p == 0:
            rest //= p
    if rest > 1:
        moduli.append(rest)
    return moduli, False


@dataclass
class CertificateSearchReport:
    """Per-modulus/per-quandle outcome of a certificate search."""

    entries: list[dict] = field(default_factory=list)
    cannot_exist: bool = False
    certificate: PersistenceCertificate | None = None

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "cannot_exist": self.cannot_exist,
            "entries": self.entries,
            "found": self.certificate is not None,
        }


def find_certificate_report(
    t: Diagram,
    moduli: list[int] | None = None,
    quandles: tuple[Quandle, ...] = (),
) -> CertificateSearchReport:
    """Search Fox moduli then quandles for a boundary-monochromatic coloring.

    One list of (key, space constructor, modulus or quandle, pin values) is
    walked once; an entry's pin values are computed only when the walk
    reaches it.
    Endpoints are pinned to 0 for Fox moduli (the affine symmetry u*c + v
    makes this lossless) and to each orbit representative for quandles.
    When no certificate exists at some modulus or affine quandle, the
    report records a propagation clash, a pair of arcs forced to share a
    color (for a quandle, in its last pinned space).
    """
    if len(t.boundary) not in (2, 4):
        raise DiagramError("certificates are for 1- and 2-tangles")
    report = CertificateSearchReport()
    if moduli is None:
        moduli, report.cannot_exist = _default_moduli(t)
    searches = [(_fox_key(n), fox_solution_space, n, lambda: (0,)) for n in sorted(moduli)]
    searches += [(_quandle_key(q), quandle_space, q, q.orbit_representatives) for q in quandles]
    for key, space_of, over, pin_values in searches:
        clash = None
        for v in pin_values():
            space = space_of(t, over, {e: v for e in t.boundary})
            hit = space.first_nonconstant()
            if hit is not None:
                report.certificate = _issue(t, hit, v)
                report.entries.append({**key, "pin": v, "found": True})
                return report
            clash = space.forced_equal_pair()
        entry = {**key, "found": False}
        if clash:
            entry["clash"] = list(clash)
        report.entries.append(entry)
    return report


def find_certificate(
    t: Diagram,
    moduli: list[int] | None = None,
    quandles: tuple[Quandle, ...] = (),
) -> PersistenceCertificate | None:
    return find_certificate_report(t, moduli, quandles).certificate


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    entries: list[dict] = field(default_factory=list)
    passes: int = 0
    skipped: int = 0

    @property
    def trials(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "passes": self.passes,
            "skipped": self.skipped,
            "entries": self.entries,
        }


def _random_twists(rng: random.Random) -> list[int]:
    length = rng.randint(1, 4)
    return [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(length)]


def verify_certificate(
    t: Diagram, cert: PersistenceCertificate, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """The paper's proof, composed for each sampled host closure; no diagram is built.

    The certificate extends to a closure as the constant boundary color c on
    every host arc, and each host crossing holds since c * c = c, checked
    once.  So a 1-component closure is nontrivially colored, hence knotted
    ("pass"); a link closure is "skipped".  Its components are the cycles of
    the 8 glued ends, joined by the tangle's end pairing (one strand walk),
    the host's (fraction p/q: H when p is even, V when q is even, else X) and
    the closure's glue, plus the tangle's closed strands and circles.  A
    1-tangle meets a single-stranded host end to end; a capped host whose
    east ends meet (V) is drawn again.  _check_certificate runs first.  The
    glue (tangle._glue) is not exercised here; the differential tests glue.
    The hosts are unsigned: signs do not enter a Fox or involutory quandle
    rule, and a non-involutory certificate on an oriented tangle raises.
    """
    _check_certificate(t, cert)
    if t.oriented and not cert.coloring.involutory:
        raise CertificateError(
            "a non-involutory quandle certificate on an oriented tangle needs oriented"
            " rational hosts, and only unsigned ones are built"
        )
    one_tangle = len(t.boundary) == 2
    if not one_tangle:
        _require_tangle(t)
    _, forward, _ = cert.coloring.rule(False)
    c = cert.coloring.reduce(cert.boundary_color)
    if forward(c, c) != c:
        raise CertificateError(f"the constant extension breaks a host crossing: {c} * {c} != {c}")
    _, strands = _strands(t)
    c4, n_open = 4 * len(t.crossings), len(t.boundary) // 2
    ends = [(s[0] - c4, s[-1] - c4) for s in strands[:n_open]]
    closed = len(strands) - n_open + len(t.circles)
    if one_tangle:
        drawn, suffix, closures = [("trivial", "H")], "-capped", ("N",)
    else:
        drawn, suffix, closures = [("zero", "H"), ("infinity", "V")], "", ("N", "D")
    counts = {
        (pairing, closure): closed + (1 if one_tangle else _closure_cycles(ends, pairing, closure))
        for pairing in "HVX"
        for closure in closures
    }
    rng = random.Random(seed)
    wanted = len(drawn) + trials
    while len(drawn) < wanted:
        w = _random_twists(rng)
        pairing = tangle_fraction(w).connectivity
        if not (one_tangle and pairing == "V"):  # a cap on joined east ends closes a loop
            drawn.append((f"rational{w}{suffix}", pairing))
    report = VerificationReport()
    for name, pairing in drawn:
        for closure in closures:
            n = counts[pairing, closure]
            result = "pass" if n == 1 else "skipped"
            report.entries.append({"host": name, "closure": closure, "components": n, "result": result})
    report.passes = sum(e["result"] == "pass" for e in report.entries)
    report.skipped = len(report.entries) - report.passes
    return report


# ---------------------------------------------------------------------------
# constructions and reports


def build_T_plus_Tstar(twists: list[int]):
    """Sum a rational tangle with its mirror image and certify the result.

    Degenerate fractions (0 and infinity) are rejected; when the gcd
    obstruction shows no Fox certificate can exist, that is reported as
    such rather than as a failed search.
    """
    fraction = tangle_fraction(twists)
    if fraction.is_zero or fraction.is_infinity:
        raise DiagramError(f"tangle fraction {fraction} is degenerate")
    t = rational_tangle(twists)
    s = tangle_add(t, mirror(t))
    report = find_certificate_report(s)
    if report.certificate is None:
        raise CertificateNotFound(
            "no boundary-monochromatic coloring found"
            + (" (gcd obstruction: none can exist)" if report.cannot_exist else ""),
            report=report,
            cannot_exist=report.cannot_exist,
        )
    return s, report.certificate


@dataclass
class ClosureEvidence:
    components: int
    determinant: int
    nontrivial_moduli: list[int]

    def to_json(self):
        return {
            "components": self.components,
            "determinant": self.determinant,
            "nontrivial_moduli": self.nontrivial_moduli,
        }


@dataclass
class IrreducibilityReport:
    fraction_reducible_hint: bool
    fraction: TangleFraction | None
    closure_n: ClosureEvidence
    closure_d: ClosureEvidence
    krebes_gcd: int
    local_knots: str
    verdict: str

    def to_json(self):
        return {
            "schema": 1,
            "fraction_reducible_hint": self.fraction_reducible_hint,
            "fraction": str(self.fraction) if self.fraction else None,
            "closure_N": self.closure_n.to_json(),
            "closure_D": self.closure_d.to_json(),
            "krebes_gcd": self.krebes_gcd,
            "local_knots": self.local_knots,
            "verdict": self.verdict,
        }


def _closure_evidence(dgm: Diagram, moduli) -> ClosureEvidence:
    """Nontrivial Fox colorings mod n exist exactly when n shares a factor
    with the link determinant (everything divides 0), so one determinant
    answers every modulus."""
    det = link_determinant(dgm)
    return ClosureEvidence(len(components(dgm)), det, [n for n in moduli if math.gcd(det, n) > 1])


def irreducibility_report(
    t: Diagram, twists: list[int] | None = None, moduli=(2, 3, 5, 7, 11, 13, 17, 19, 23)
) -> IrreducibilityReport:
    """Evidence about irreducibility: closure nontriviality and the gcd.

    The verdict is an evidence summary, never a proof; local knot detection
    is out of scope and reported as unchecked.
    """
    if len(t.boundary) != 4:
        raise DiagramError("irreducibility reports are for 2-tangles")
    fraction = tangle_fraction(twists) if twists else None
    cn = _closure_evidence(numerator_closure(t), moduli)
    cd = _closure_evidence(denominator_closure(t), moduli)
    g = math.gcd(cn.determinant, cd.determinant)
    if not t.crossings and not t.circles:
        degenerate = "zero tangle" if connectivity(t) == "H" else "infinity tangle"
        verdict = f"excluded: {degenerate}"
    elif twists is not None:
        verdict = "reducible by construction (built from a twist vector)"
    else:
        problems = []
        for name, ev in (("N", cn), ("D", cd)):
            if ev.components == 1 and ev.determinant == 1:
                problems.append(name)
        if problems:
            verdict = "not consistent with irreducible: trivial closure " + ",".join(problems)
        else:
            verdict = "consistent with irreducible"
    return IrreducibilityReport(
        fraction_reducible_hint=twists is not None,
        fraction=fraction,
        closure_n=cn,
        closure_d=cd,
        krebes_gcd=g,
        local_knots="not checked",
        verdict=verdict,
    )
