"""Reidemeister rewriting with consistent recoloring.

Moves operate on unoriented diagrams and return a new diagram plus a
replayable MoveRecord: the move's (vertex, slot, old, new) label
substitutions, the crossings it appended and the circle it removed.  Each
move builds its diagram with one diagram._edit call, which splices the
kept dart index, and undo_move inverts any record the same way (an R3
slide's substitutions run backwards, so its inverse is the slide back),
then checks the result from scratch.  Recoloring is local: every untouched arc
keeps its color, and the crossing rule fixes each changed label at the
record's site, the crossings it appended or substituted labels at, where
every occurrence of such a label sits; the result is then checked on every
crossing.  The rule is coloring.rule (read as involutory: the diagrams are
unoriented) and the check comes from colorings.  Counts of colorings are
preserved by all three move types, which the test suite exercises directly.

The transport routine repeatedly pushes a chosen arc across faces (always
passing over the obstructions, so the mover keeps its color) along a
shortest face path, found breadth-first over the face orbits of the kept
dart index, until a descendant segment shares a face with the destination
arc.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .colorings import ColoringError, _broken_crossing
from .diagram import (
    _CAP,
    Crossing,
    Diagram,
    DiagramError,
    OrientationError,
    _darts,
    _edit,
    _far_ends,
    _has_arc,
    _orbit,
    _pairing,
    _place,
    co_facial,
    faces,
    max_label,
    validate,
)

__all__ = [
    "MoveError",
    "MoveRecord",
    "TransportResult",
    "apply_r1",
    "apply_r2_over",
    "apply_r3",
    "find_r3_triangles",
    "r2_transport",
    "recolor_after_move",
    "records_to_json",
    "undo_move",
]

class MoveError(DiagramError):
    pass


@dataclass(frozen=True)
class MoveRecord:
    """Enough data to recolor, undo, and serialize one move."""

    kind: str  # 'R1+', 'R1-', 'R2+', 'R2-', 'R3'
    site: tuple = ()
    fresh: tuple[int, ...] = ()
    added: tuple[int, ...] = ()  # indices of crossings appended to the diagram
    replaced: tuple[tuple[int, int, int, int], ...] = ()  # (vertex, slot, old, new)
    removed_circle: int | None = None

    def changed_labels(self) -> frozenset[int]:
        if self.kind == "R3":
            return frozenset(self.site[1])
        return frozenset(self.fresh)

    def to_json(self) -> dict:
        out = {"kind": self.kind, "site": list(self.site)}
        if self.fresh:
            out["fresh"] = list(self.fresh)
        return out


def records_to_json(records) -> list[dict]:
    return [r.to_json() for r in records]


def _require_unoriented(d: Diagram) -> None:
    if d.oriented:
        raise OrientationError("moves operate on unoriented diagrams")


# ---------------------------------------------------------------------------
# R1


def apply_r1(d: Diagram, arc: int, positive: bool = True) -> tuple[Diagram, MoveRecord]:
    """Add a kink on an arc (or circle); `positive` picks the curl side."""
    _require_unoriented(d)
    if arc in d.circles:
        loop = max_label(d) + 1
        slots = (arc, loop, loop, arc) if positive else (arc, arc, loop, loop)
        out = _edit(d, added=(Crossing(slots),), circles=[k for k in d.circles if k != arc])
        rec = MoveRecord(
            "R1+", ("arc", arc), fresh=(loop,), added=(len(d.crossings),), removed_circle=arc
        )
        return out, rec
    labels, other = _pairing(d)
    if arc not in labels:
        raise MoveError(f"unknown arc {arc}")
    j = labels.index(arc)
    tail = max(_place(d, j), _place(d, other[j]))  # split at the later occurrence; deterministic
    loop = max_label(d) + 1
    new = loop + 1
    slots = (arc, loop, loop, new) if positive else (arc, new, loop, loop)
    replaced = ((tail[0], tail[1], arc, new),)
    out = _edit(d, replaced, added=(Crossing(slots),))
    rec = MoveRecord(
        "R1+", ("arc", arc), fresh=(loop, new), added=(len(d.crossings),), replaced=replaced
    )
    return out, rec


# ---------------------------------------------------------------------------
# R2


def apply_r2_over(d: Diagram, mover: int, target: int) -> tuple[Diagram, MoveRecord]:
    """Push `mover` over `target` across a shared face: two new crossings.

    The mover splits into three arcs keeping its label nearest the chosen
    face dart; the middle segment lands in the face beyond the target.
    """
    _require_unoriented(d)
    # darts of the shared face, in orbit order, identify which ends stay put
    ends = _far_ends(d, [mover, target]) if mover != target else None
    if ends is None:
        if not co_facial(d, mover, target):  # raises on equal or unknown arcs
            raise MoveError(f"arcs {mover} and {target} are not co-facial")
        raise MoveError(f"arcs {mover} and {target} only share a degenerate face")
    far_m, far_t = ends
    lab = max_label(d)
    m_mid, m_far, t_mid, t_far = lab + 1, lab + 2, lab + 3, lab + 4
    replaced = (
        (far_m[0], far_m[1], mover, m_far),
        (far_t[0], far_t[1], target, t_far),
    )
    y1 = Crossing((target, m_far, t_mid, m_mid))
    y2 = Crossing((t_mid, mover, t_far, m_mid))
    out = _edit(d, replaced, added=(y1, y2))
    rec = MoveRecord(
        "R2+",
        ("arcs", mover, target),
        fresh=(m_mid, m_far, t_mid, t_far),
        added=(len(d.crossings), len(d.crossings) + 1),
        replaced=replaced,
    )
    return out, rec


# ---------------------------------------------------------------------------
# R3


def find_r3_triangles(d: Diagram) -> list[int]:
    """Faces where a triangle slide applies: three distinct crossings and
    sides, with one side passing over (or under) at both of its corners."""
    on_cap = set(_darts(d)[3][4 * len(d.crossings) :])
    out = []
    for f in faces(d):
        if len(f.corners) != 3 or f.index in on_cap:
            continue
        (P, p), (Q, q), (R, r) = f.corners
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
            out.append(f.index)
    return out


def apply_r3(d: Diagram, face_index: int) -> tuple[Diagram, MoveRecord]:
    """Slide the uniform side of a triangular face across the opposite crossing.

    The three crossings keep their strand pairs and over/under data; only
    the cyclic positions of the triangle's sides change.
    """
    _require_unoriented(d)
    if face_index not in find_r3_triangles(d):
        raise MoveError(f"face {face_index} does not admit a triangle slide")
    (P, p), (Q, q), (R, r) = faces(d)[face_index].corners
    sl = lambda ci, k: d.crossings[ci].slots[k % 4]
    x, y, z = sl(P, p), sl(Q, q), sl(R, r)
    a_in, c_out = sl(P, p + 2), sl(P, p + 1)
    a_out, b_in = sl(Q, q + 1), sl(Q, q + 2)
    b_out, c_in = sl(R, r + 1), sl(R, r + 2)

    def orientate(tuple4, first_pair_under):
        # rotate by one so the under pair sits at slots 0/2
        return tuple4 if first_pair_under else (tuple4[3], tuple4[0], tuple4[1], tuple4[2])

    # the slide reverses the order in which each strand meets its two
    # crossings, so the external edge on the far side attaches first
    slid = {
        P: orientate((a_out, z, x, c_in), p % 2 == 0),
        Q: orientate((x, y, a_in, b_out), q % 2 == 1),
        R: orientate((b_in, c_out, y, z), r % 2 == 1),
    }
    replaced = tuple(
        (v, s, old, new)
        for v, slots in slid.items()
        for s, (old, new) in enumerate(zip(d.crossings[v].slots, slots))
        if old != new
    )
    rec = MoveRecord("R3", ("face", (x, y, z)), replaced=replaced)
    return _edit(d, replaced), rec


# ---------------------------------------------------------------------------
# undo


def undo_move(d: Diagram, rec: MoveRecord) -> tuple[Diagram, MoveRecord]:
    """Invert a move applied to produce d; returns the restored diagram.

    The added crossings, the last ones, go, the substitutions run backwards
    and a removed circle comes back.  An R3 slide's inverse is the slide
    back, which can be undone in turn.  The record is caller input, so a
    fresh copy of the result is validated.
    """
    if rec.kind not in ("R1+", "R2+", "R3"):
        raise MoveError(f"cannot undo a {rec.kind} record")
    if len(rec.added) > len(d.crossings):
        raise MoveError(f"the record adds {len(rec.added)} crossings to a diagram of {len(d.crossings)}")
    spots = tuple((v, s, new, old) for v, s, old, new in reversed(rec.replaced))
    circles = None if rec.removed_circle is None else d.circles + (rec.removed_circle,)
    out = _edit(d, spots, circles=circles, drop=len(rec.added))
    validate(Diagram(out.crossings, out.circles, out.boundary))
    if rec.kind == "R3":
        return out, MoveRecord("R3", rec.site, replaced=spots)
    return out, MoveRecord("R1-" if rec.kind == "R1+" else "R2-", rec.site, fresh=rec.fresh)


# ---------------------------------------------------------------------------
# recoloring


def recolor_after_move(coloring, rec: MoveRecord, after: Diagram):
    """The unique coloring of `after` agreeing with the old one off the move site.

    Raises MoveError when the old coloring does not extend: the crossing
    rule rejects it, it breaks a crossing of `after`, or it leaves an arc of
    it without a color.
    """
    try:
        values, forward, backward = coloring.rule(after.oriented)
    except ColoringError as exc:
        raise MoveError(f"cannot recolor: {exc}") from None
    colors = dict(values)  # the rule's values are the coloring's own dict
    for label in rec.changed_labels():
        colors.pop(label, None)
    # every occurrence of a changed label sits at the record's site or on
    # the cap, so the rule runs at the site's crossings until nothing new is colored
    site = sorted({*rec.added, *(v for v, _, _, _ in rec.replaced if v != _CAP)})
    grew = True
    while grew:
        grew = False
        for v in site:
            a, b, c, e = after.crossings[v].slots
            over = colors.get(b, colors.get(e))
            if over is None and {a, c} & {b, e}:  # a kink: one color on the whole crossing
                over = colors.get(a, colors.get(c))
            if over is None:
                continue
            forced = {b: over, e: over}
            if a in colors:
                forced[c] = forward(colors[a], over)  # the moves leave every crossing unsigned
            elif c in colors:
                forced[a] = backward(colors[c], over)
            for label, value in forced.items():
                if label not in colors:
                    colors[label] = value
                    grew = True
    try:
        out = replace(coloring, colors={label: colors[label] for label in after.arcs()})
    except KeyError as exc:
        raise MoveError(f"recoloring leaves arc {exc.args[0]} without a color") from None
    broken = _broken_crossing(after, out)
    if broken is not None:
        raise MoveError(f"the coloring does not extend across crossing {broken.slots}")
    return out


# ---------------------------------------------------------------------------
# transport


@dataclass
class TransportResult:
    diagram: Diagram
    coloring: object
    segment: int
    records: list[MoveRecord] = field(default_factory=list)


def _first_step_arc(d: Diagram, mover: int, dest: int) -> int | None:
    """The arc to cross first on a shortest face path from `mover` to `dest`,
    or None when a face already holds both; raises when no path exists.

    Breadth-first over the kept face orbits from the two faces of the
    mover's darts, in order of face id.  Each face reached keeps the dart
    it was entered by; its orbit from there gives the face's arcs, and an
    arc's dart there leads across the arc to the face on its far side.
    """
    labels, other, face_next, face = _darts(d)
    entry = {}  # face reached -> the dart it was entered by
    if mover in labels:  # a crossing-free circle borders no face
        j = labels.index(mover)
        entry = {face[j]: j, face[other[j]]: other[j]}
    queue = sorted(entry)
    prev: dict[int, tuple[int, int] | None] = dict.fromkeys(queue)
    for fi in queue:  # the queue grows while it is walked
        arcs = {labels[k]: k for k in _orbit(face_next, entry[fi])}
        if dest in arcs:
            step = None
            while prev[fi] is not None:
                fi, step = prev[fi]
            return step
        for a in sorted(arcs.keys() - {mover}):
            k = other[arcs[a]]
            if face[k] not in prev:
                prev[face[k]] = (fi, a)
                entry[face[k]] = k
                queue.append(face[k])
    raise MoveError(f"no face path from arc {mover} to arc {dest}")


def r2_transport(d: Diagram, coloring, source: int, dest: int) -> TransportResult:
    """Bring a descendant segment of `source` into a face shared with `dest`.

    Each step pushes the current segment over the next arc on a shortest
    face path, recoloring as it goes; the mover passes over everything, so
    the returned segment keeps the source's color.
    """
    if source == dest:
        raise MoveError("source and destination must differ")
    for a in (source, dest):
        if not _has_arc(d, a):
            raise DiagramError(f"unknown arc label {a}")
    records: list[MoveRecord] = []
    mover = source
    while (target := _first_step_arc(d, mover, dest)) is not None:
        d, rec = apply_r2_over(d, mover, target)
        coloring = recolor_after_move(coloring, rec, d)
        records.append(rec)
        mover = rec.fresh[0]  # the middle segment, now one face closer
    return TransportResult(d, coloring, mover, records)
