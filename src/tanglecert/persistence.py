"""Cut constructions, boundary-monochromatic certificates, and verification.

A certificate for a tangle is a nontrivial coloring that gives every
boundary endpoint the same color.  Whatever diagram the tangle appears in,
the rest of that diagram can be colored by that one constant, producing a
nontrivial coloring of the whole knot; the knot is therefore nontrivial.
One exact check, _check_certificate, holds every certificate to this: the
endpoints carry the boundary color, the witness arcs differ, and every
crossing relation holds (colorings' one loop).  Every certificate is made
by one constructor, _issue, which takes the witness from the coloring and
runs that check; the cuts and the search all call it, and a certificate's
kind (Fox modulus or quandle) is read from its coloring, so the two cannot
disagree.  verify_certificate runs the check on the tangle and then on each
distinct sampled host closure, glued once per call.

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

The default certificate search sweeps the primes up to 97 that divide the
gcd obstruction g, then what remains of g as one modulus, so nothing is
factored.  Reports read every closure fact from one determinant per
closure: a nontrivial Fox coloring mod n exists exactly when n shares a
factor with it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace

from .colorings import (
    ColoringError,
    FoxColoring,
    Quandle,
    QuandleColoring,
    _broken_crossing,
    _crossing_rule,
    fox_solution_space,
    link_determinant,
    quandle_space,
    verify_coloring,
)
from .diagram import (
    Diagram,
    DiagramError,
    _far_ends,
    _has_arc,
    _strands,
    co_facial,
    components,
    faces,
    max_label,
    serialize,
    unoriented,
    validate,
)
from .moves import (
    MoveRecord,
    _replace_at,
    apply_r2_over,
    r2_transport,
    recolor_after_move,
    records_to_json,
)
from .tangle import (
    _ARC_HOST,
    TangleFraction,
    _glue,
    close_one_tangle,
    denominator_closure,
    infinity_tangle,
    insert_into_host,
    mirror,
    numerator_closure,
    rational_tangle,
    tangle_add,
    tangle_fraction,
    zero_tangle,
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

    coloring: object  # FoxColoring or QuandleColoring over the tangle's arcs
    boundary_color: int
    witness: tuple[int, int]
    moves: list[MoveRecord] = field(default_factory=list)

    @property
    def kind(self) -> tuple:
        """('fox', N) or ('quandle', Quandle), read from the coloring."""
        if isinstance(self.coloring, FoxColoring):
            return ("fox", self.coloring.modulus)
        return ("quandle", self.coloring.quandle)

    def to_json(self, tangle_name: str = "") -> dict:
        kind = (
            {"fox": self.kind[1]}
            if self.kind[0] == "fox"
            else {"quandle": self.kind[1].name or "table"}
        )
        return {
            "schema": 1,
            "tangle": tangle_name,
            "kind": kind,
            "boundary_color": self.boundary_color,
            "colors": {str(k): v for k, v in sorted(self.coloring.colors.items())},
            "witness": list(self.witness),
            "moves": records_to_json(self.moves),
        }


def _check_certificate(t: Diagram, cert: PersistenceCertificate) -> None:
    """Every endpoint has the boundary color, the witness arcs of t differ and
    every crossing relation holds, comparing colors as the crossing rule
    reads them (Fox ones mod N); else CertificateError naming the fault."""
    if not (isinstance(cert.witness, (tuple, list)) and len(cert.witness) == 2):
        raise CertificateError(f"witness must be a pair of arcs, got {cert.witness!r}")
    for label in (*t.boundary, *cert.witness):
        if label not in cert.coloring.colors or not _has_arc(t, label):
            raise CertificateError(f"endpoint or witness arc {label} has no color on t")
    try:
        values, _, _ = _crossing_rule(cert.coloring, t.oriented)
        broken = _broken_crossing(t, cert.coloring)
    except ColoringError as exc:
        raise CertificateError(f"cannot check the certificate on the tangle: {exc}") from None
    fill = cert.boundary_color
    if isinstance(cert.coloring, FoxColoring):
        fill %= cert.coloring.modulus
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
    out = _replace_at(d, [(*place, a, f) for place, a, f in zip(places, arcs, fresh)])
    out = Diagram(out.crossings, out.circles, boundary)
    validate(out)
    return out


def cut_arc_once(d: Diagram, arc: int) -> Diagram:
    """Disconnect one arc of a closed 1-component diagram: a 1-tangle."""
    _require_cuttable(d)
    if arc in d.circles:
        out = Diagram(d.crossings, tuple(k for k in d.circles if k != arc), (arc, arc))
        validate(out)
        return out
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
    runs.  Each crossing is signed as orient signs it: positive when the
    walk enters it at slot 0 and at slot 3 alike, which is orient's reading
    of the incoming over slot once slot 0 is the incoming under one.
    Reversing one strand negates every linking sign, so the absolute sum
    does not depend on how the tangle is oriented.
    """
    labels, (walk,) = _strands(d)
    position = {labels[tail]: i for i, tail in enumerate(walk[::2])}
    passes = [[0, 0] for _ in d.crossings]  # per crossing, its under and over pass
    in_at_0 = bytearray(len(d.crossings))
    over_in_at_3 = bytearray(len(d.crossings))
    for i, head in enumerate(walk[1::2]):
        ci, slot = divmod(head, 4)
        passes[ci][slot & 1] = i
        in_at_0[ci] |= slot == 0
        over_in_at_3[ci] |= slot == 3
    signs = [1 if a == b else -1 for a, b in zip(in_at_0, over_in_at_3)]
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
    coloring = replace(coloring, colors=_crossing_rule(coloring, d.oriented)[0])  # Fox ones mod N
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


def find_same_colored_pairs(d: Diagram, coloring, require_non_cofacial: bool = False):
    """Distinct arc pairs with equal colors (Fox ones mod N), smallest labels first."""
    colors, _, _ = _crossing_rule(coloring, d.oriented)
    arcs = sorted(d.arcs())
    # the co-facial pairs, collected face by face: a crossing-free circle's
    # faces hold only its own label, so pairs with a circle are never dropped
    cofacial = set()
    if require_non_cofacial:
        cofacial = {(a, b) for f in faces(d) for a in f.arcs for b in f.arcs}
    out = []
    for i, a in enumerate(arcs):
        for b in arcs[i + 1:]:
            if colors[a] == colors[b] and (a, b) not in cofacial:
                out.append((a, b))
    return out


def ensure_same_colored_pair(d: Diagram, coloring):
    """A same-colored arc pair, creating one by an R2 move if necessary.

    Some colorings give every arc a different color; pushing one arc over
    another mints a segment colored by the crossing rule, under * over,
    which can be made to collide with an existing color.  Returns (diagram,
    coloring, pair, records).
    """
    pairs = find_same_colored_pairs(d, coloring)
    if pairs:
        return d, coloring, pairs[0], []
    colors, forward, _ = _crossing_rule(coloring, d.oriented)
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

    Endpoints are pinned to 0 for Fox moduli (the affine symmetry u*c + v
    makes this lossless) and to each orbit representative for quandles.
    When no certificate exists at some modulus, the report records a
    propagation clash: a pair of arcs forced to share a color.
    """
    if len(t.boundary) not in (2, 4):
        raise DiagramError("certificates are for 1- and 2-tangles")
    report = CertificateSearchReport()
    if moduli is None:
        moduli, cannot = _default_moduli(t)
        report.cannot_exist = cannot
    for n in sorted(moduli):
        space = fox_solution_space(t, n, pins={e: 0 for e in t.boundary})
        cert_coloring = space.first_nonconstant()
        if cert_coloring is not None:
            report.certificate = _issue(t, cert_coloring, 0)
            report.entries.append({"fox": n, "found": True})
            return report
        clash = space.forced_equal_pair()
        entry = {"fox": n, "found": False}
        if clash:
            entry["clash"] = list(clash)
        report.entries.append(entry)
    for q in quandles:
        for v in q.orbit_representatives():
            hit = quandle_space(t, q, pins={e: v for e in t.boundary}).first_nonconstant()
            if hit is not None:
                report.certificate = _issue(t, hit, v)
                report.entries.append({"quandle": q.name or "table", "pin": v, "found": True})
                return report
        report.entries.append({"quandle": q.name or "table", "found": False})
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


def _east_cap(t: Diagram) -> Diagram:
    """Close a 2-tangle's east side, leaving a 1-tangle with NW/SW endpoints."""
    return _glue(t, _ARC_HOST, [(1, 4), (2, 5)], (0, 3))


def verify_certificate(
    t: Diagram, cert: PersistenceCertificate, trials: int = 100, seed: int = 0
) -> VerificationReport:
    """Insert the tangle into sampled hosts and check the extended coloring.

    _check_certificate runs first on the tangle, so a broken certificate
    raises even when every sampled closure is a link, and then on the
    monochromatic extension over each 1-component closure; a failing host
    raises with the closure serialized, and a link closure is skipped.
    Each distinct host and closure is built and checked once per call; a
    repeated draw lists a copy of the first entry.

    The rational hosts are unsigned.  Signs do not enter the crossing rule
    of a Fox or involutory quandle coloring, so an oriented tangle with
    such a certificate is glued in unoriented; a non-involutory quandle
    certificate on an oriented tangle would need oriented hosts, and
    raises.
    """
    _check_certificate(t, cert)
    if t.oriented:
        if isinstance(cert.coloring, QuandleColoring) and not cert.coloring.quandle.involutory:
            raise CertificateError(
                "a non-involutory quandle certificate on an oriented tangle needs oriented"
                " rational hosts, and only unsigned ones are built"
            )
        t = unoriented(t)
    rng = random.Random(seed)
    one_tangle = len(t.boundary) == 2
    hosts: dict[str, Diagram | None]  # by name, built once each; None for a rejected cap
    if one_tangle:
        hosts = {"trivial": _ARC_HOST}
        suffix, closures = "-capped", ("N",)
    else:
        hosts = {"zero": zero_tangle(), "infinity": infinity_tangle()}
        suffix, closures = "", ("N", "D")
    drawn = list(hosts)
    wanted = len(drawn) + trials
    while len(drawn) < wanted:
        w = _random_twists(rng)
        name = f"rational{w}{suffix}"
        if name not in hosts:
            host = rational_tangle(w)
            if one_tangle:
                host = _east_cap(host)
                # the cap may close a loop; keep hosts single-stranded
                if host.circles or len(_strands(host)[1]) != 1:
                    host = None
            hosts[name] = host
        if hosts[name] is not None:
            drawn.append(name)
    report = VerificationReport()
    checked: dict[tuple[str, str], dict] = {}
    for name in drawn:
        for closure in closures:
            entry = checked.get((name, closure))
            if entry is None:
                entry = _check_closure(t, cert, name, hosts[name], closure)
                checked[name, closure] = entry
            report.entries.append(dict(entry))
            if entry["result"] == "pass":
                report.passes += 1
            else:
                report.skipped += 1
    return report


def _check_closure(
    t: Diagram, cert: PersistenceCertificate, name: str, host: Diagram, closure: str
) -> dict:
    """Glue t into host, close it, and check the extended coloring; the report entry."""
    dgm = insert_into_host(t, host, closure)
    labels, strands = _strands(dgm)
    n_comp = len(strands) + len(dgm.circles)
    entry = {"host": name, "closure": closure, "components": n_comp}
    if n_comp != 1:
        entry["result"] = "skipped"
        return entry
    get, fill = cert.coloring.colors.get, cert.boundary_color
    colors = {a: get(a, fill) for a in (*labels, *dgm.circles)}
    try:
        _check_certificate(dgm, replace(cert, coloring=replace(cert.coloring, colors=colors)))
    except CertificateError:
        raise CertificateError(
            f"certificate fails on host {name} ({closure} closure):\n" + serialize(dgm)
        ) from None
    entry["result"] = "pass"
    return entry


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
        from .tangle import connectivity

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
