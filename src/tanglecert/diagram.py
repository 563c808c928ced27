"""Planar diagram (PD) codes for knot, link, and tangle diagrams.

Text format (UTF-8, whitespace separated, one record per ';' or newline,
'#' starts a comment running to end of line):

    X a b c d      unoriented crossing; arc labels counterclockwise starting
                   at the incoming under-strand, so slots 0/2 are the under
                   pair and slots 1/3 the over pair
    Xp a b c d     positive crossing (oriented diagrams)
    Xm a b c d     negative crossing
    B e1 e2 e3 e4  tangle boundary endpoints in NW, NE, SE, SW order
    B e1 e2        1-tangle boundary
    O k            crossing-free circle component

Arc labels are arbitrary positive integers, not required to be consecutive
(rewriting operations mint fresh labels without renumbering).  A closed
diagram uses every label exactly twice across crossing slots.  A tangle
endpoint label occurs once in a crossing slot and once in the boundary
record; a crossing-free open strand is listed twice in the boundary record
and nowhere else.

Faces come from the rotation system: darts (crossing, slot) walk the
next-corner permutation, with tangle boundaries capped by a virtual vertex.
Strands walk the same darts along the arc pairing, straight on through
each crossing (slot s to slot s ^ 2).  components, orient, the tangle
module's connectivity and linking_sum, and the transport cut's linking
scores all read that walk; _flow reads each dart's flow and each
crossing's sign off it, for orient and the cut alike.  An arc borders the
faces of its two darts, which is all co_facial asks, and a face's arcs
are the labels of one orbit, so the transport search walks face orbits
from the darts it enters them by.  Planarity is enforced by the
per-component Euler count V - E + F = 2, not by an embedding search; a
rotation system that fails Euler is rejected as an inconsistent code.

Trust boundary: validate() runs once per Diagram object.  A diagram that
passes keeps the dart index the check built (dart labels and arc pairing,
as array('i')) in its instance dict, and beside it the face permutation
and face ids (numbered in order of smallest dart) that the Euler count
walked; later calls on the same object return at once, and every
structural read takes that index.  A diagram marked valid without the
check numbers its faces when something first reads them (faces, _sides,
_far_ends, the transport search, find_r3_triangles) and keeps them from
then on; the strand walk, _has_arc, _flow, max_label and _edit read only
the pairing.  Only validate and faces() walk every face.  The first
coloring solver call on a validated diagram keeps its strand columns
(colorings._strand_columns: strand representatives, label columns and
crossing triples, immutable) beside the index, and the first Fox or
affine quandle space solve or link determinant keeps the unit residual
of its crossing rows and its split by component, one each per affine
rule (colorings._unit_residual and _split, immutable), beside that;
validate builds none of them, and an unvalidated diagram keeps nothing.
A pickled or copied diagram keeps its fields and its index and faces
(Diagram.__getstate__), and builds the rest again.  validate rejects a
Diagram whose fields, or a Crossing whose slots, are not tuples, so a
marked object cannot change after the check, and labels the index cannot
hold (not integers below 2**31).
parse_diagram and every public constructor return validated diagrams;
intermediates that never leave a function are not validated.  One builder,
_edit, makes a diagram from a validated one, and every move, undo, cut and
glue (sums, closures, caps, host closures, a quarter turn) is one _edit
call, and so is a rational tangle: the zero or infinity tangle with its
twists appended.  It splices the result's pairing from the kept one (see
_edit), so only the darts at the site and the appended crossings' darts
pair by label, and marks it without validate: each result is planar by
construction, as a move or cut is surgery inside one face, a twist adds
a crossing at the boundary, and planar disks glued along boundary arcs
make a disk or a sphere, and each leaves every label on two darts, so the
occurrence count and Euler walk would pass; signs and flow are checked.
undo_move is the exception: its record is caller input, so it also
validates a fresh copy of its result.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass, field


class DiagramError(ValueError):
    """Base class for malformed or inconsistent diagrams."""


class PDSyntaxError(DiagramError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ArcOccurrenceError(DiagramError):
    pass


class PlanarityError(DiagramError):
    pass


class OrientationError(DiagramError):
    pass


@dataclass(frozen=True)
class Crossing:
    """One crossing: slots counterclockwise from the incoming under-strand.

    sign is +1/-1 for oriented diagrams and 0 when unset.
    """

    slots: tuple[int, int, int, int]
    sign: int = 0


@dataclass(frozen=True)
class Diagram:
    crossings: tuple[Crossing, ...] = ()
    circles: tuple[int, ...] = ()
    boundary: tuple[int, ...] = ()

    @property
    def oriented(self) -> bool:
        return bool(self.crossings) and all(c.sign != 0 for c in self.crossings)

    def __getstate__(self) -> dict:
        # the fields, the kept index and faces; what other modules keep on the
        # object (mappingproxies, which do not pickle) is built again on the copy
        keep = ("crossings", "circles", "boundary", "_valid", "_faces")
        return {k: v for k, v in self.__dict__.items() if k in keep}

    def arcs(self) -> frozenset[int]:
        labels = set()
        for c in self.crossings:
            labels.update(c.slots)
        labels.update(self.circles)
        labels.update(self.boundary)
        return frozenset(labels)


@dataclass(frozen=True)
class Face:
    """A complementary region: its crossing corners and incident arcs."""

    index: int
    corners: tuple[tuple[int, int], ...]
    arcs: frozenset[int] = field(default_factory=frozenset)


# ---------------------------------------------------------------------------
# parsing / serialization


_MAX_DIGITS = 10  # 2**31 - 1, the largest label the dart index holds, has 10


def _quoted(tok: str) -> str:
    """tok in quotes, cut to its first 20 characters when longer."""
    return repr(tok) if len(tok) <= 20 else f"{tok[:20]!r}... ({len(tok)} characters)"


def _int_token(tok: str, lineno: int, col: int) -> int:
    """A positive decimal label, converted once; a token of more digits than
    any label can have, leading ASCII zeros aside, is refused before int()
    reads it."""
    if tok.isdecimal():
        if len(tok.lstrip("0")) > _MAX_DIGITS:
            raise PDSyntaxError(
                f"label {_quoted(tok)} has more than {_MAX_DIGITS} digits", lineno, col
            )
        value = int(tok)
        if value > 0:
            return value
    raise PDSyntaxError(f"expected a positive integer, got {_quoted(tok)}", lineno, col)


def _parse_text(text: str):
    crossings: list[Crossing] = []
    circles: list[int] = []
    boundary: tuple[int, ...] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        col = 1
        for segment in line.split(";"):
            tokens = segment.split()
            if tokens:
                start_col = col + segment.index(tokens[0])
                kind, args = tokens[0], tokens[1:]
                if kind in ("X", "Xp", "Xm"):
                    if len(args) != 4:
                        raise PDSyntaxError(
                            f"crossing needs 4 slots, got {len(args)}", lineno, start_col
                        )
                    slots = tuple(_int_token(t, lineno, start_col) for t in args)
                    sign = {"X": 0, "Xp": 1, "Xm": -1}[kind]
                    crossings.append(Crossing(slots, sign))
                elif kind == "B":
                    if boundary is not None:
                        raise PDSyntaxError("duplicate boundary record", lineno, start_col)
                    if len(args) not in (2, 4):
                        raise PDSyntaxError(
                            f"boundary needs 2 or 4 endpoints, got {len(args)}",
                            lineno,
                            start_col,
                        )
                    boundary = tuple(_int_token(t, lineno, start_col) for t in args)
                elif kind == "O":
                    if len(args) != 1:
                        raise PDSyntaxError("circle record needs 1 label", lineno, start_col)
                    circles.append(_int_token(args[0], lineno, start_col))
                else:
                    raise PDSyntaxError(f"unknown record {_quoted(kind)}", lineno, start_col)
            col += len(segment) + 1
    return crossings, circles, boundary


def parse_diagram(text: str) -> Diagram:
    """Parse PD text into a validated Diagram."""
    crossings, circles, boundary = _parse_text(text)
    d = Diagram(tuple(crossings), tuple(circles), boundary or ())
    validate(d)
    return d


def serialize(d: Diagram) -> str:
    """Canonical text rendering: crossings, circles, then the boundary record."""
    lines = []
    for c in d.crossings:
        kind = {0: "X", 1: "Xp", -1: "Xm"}[c.sign]
        lines.append(" ".join([kind] + [str(s) for s in c.slots]))
    for k in d.circles:
        lines.append(f"O {k}")
    if d.boundary:
        lines.append("B " + " ".join(str(e) for e in d.boundary))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation
#
# Darts are integers: crossing i, slot s is dart 4i+s, and the darts of the
# boundary cap follow all crossing darts, so dart j sits at vertex j >> 2
# (the cap is vertex len(crossings)).  One linear scan builds the dart
# pairing and the face permutation, and one walk of the face orbits numbers
# the faces for the Euler count.  The kept index is the labels and the
# pairing, which the strand walk, _has_arc, max_label and _edit read through
# _pairing; the face permutation and face ids sit beside it from their
# first read through _darts (faces, co_facial, the transport search and the
# move and cut helpers), or from validate, which numbered them anyway.

_CAP = -1  # vertex index of the capped tangle boundary in (vertex, slot) places


def validate(d: Diagram) -> None:
    """Check occurrence counts, orientation consistency, and planarity.

    A diagram that passes keeps its dart index (labels, other) in its
    instance dict under "_valid" (ignored by == and hash), and the faces
    (face_next, face) it numbered for the Euler count beside it under
    "_faces"; later calls on the same object return at once.
    """
    if "_valid" in d.__dict__:
        return
    # the marker trusts the fields never to change, which only tuples ensure
    for name in ("crossings", "circles", "boundary"):
        if not isinstance(getattr(d, name), tuple):
            raise DiagramError(f"Diagram.{name} must be a tuple")
    if not all(isinstance(c.slots, tuple) for c in d.crossings):
        raise DiagramError("Crossing.slots must be a tuple")
    if d.boundary and len(d.boundary) not in (2, 4):
        raise ArcOccurrenceError("boundary must list 2 or 4 endpoints")
    labels, other, face_next = _dart_structure(d)
    signs = {c.sign for c in d.crossings}
    # every label exactly twice: each dart's partner carries its label, and
    # there are half as many labels as darts
    twice = 2 * len(set(labels)) == len(labels) and list(map(labels.__getitem__, other)) == labels
    if d.circles or not (twice and signs <= {-1, 0, 1} and min(labels, default=1) > 0):
        _check_records(d)
    _check_signs(signs)
    face = _face_ids(face_next)
    _check_euler(d, other, face)
    _keep(d, labels, other)
    _keep_faces(d, face_next, face)


def _edit(d: Diagram, spots=(), added=(), circles=None, boundary=None, drop=0) -> Diagram:
    """d rewritten at one site, marked valid with d's kept index spliced:
    its last `drop` crossings dropped, the `added` crossings appended,
    labels substituted at (vertex, slot, old, new) places (the cap's vertex
    is _CAP), and the circles or boundary, when given, put in place of d's
    (cap places name the new boundary's positions).

    The kept crossings keep their darts and every pairing between them,
    except at a substituted place.  The loose darts pair by label: the
    substituted ones and their old partners, the partners of d's dropped
    and cap darts, the appended darts and every cap dart.
    The result passes the occurrence and Euler counts by construction (see
    the module docstring), so only the signs and an oriented result's flow
    are checked; its faces are numbered when first read.
    """
    d_labels, d_other = _pairing(d)
    kept = len(d.crossings) - drop
    p4 = 4 * kept
    crossings = [*d.crossings[:kept], *added]
    c4 = 4 * len(crossings)
    labels = d_labels[:p4].tolist()
    labels += [label for c in added for label in c.slots]
    labels += d.boundary if boundary is None else boundary
    other = d_other[:p4].tolist()
    loose = {k for k in d_other[p4:] if k < p4}
    loose.update(range(p4, len(labels)))
    other += [0] * (len(labels) - len(other))
    for v, s, old, new in spots:
        j = c4 + s if v == _CAP else 4 * v + s
        at = 0 <= s < len(labels) - c4 if v == _CAP else 0 <= v < kept and 0 <= s < 4
        found = labels[j] if at else None
        if found != old:
            raise DiagramError(f"vertex {v}, slot {s} holds {found}, expected {old}")
        labels[j] = new
        if v != _CAP:
            crossings[v] = Crossing(tuple(labels[4 * v : 4 * v + 4]), crossings[v].sign)
            loose.update(k for k in (j, d_other[j]) if k < p4)
    unpaired = {}  # label -> the one loose dart seen with it so far
    for j in loose:
        k = unpaired.pop(labels[j], None)
        if k is None:
            unpaired[labels[j]] = j
        else:
            other[j], other[k] = k, j
    if unpaired:
        raise ArcOccurrenceError(f"arc {min(unpaired)} is left on one dart")
    _check_signs({c.sign for c in crossings})
    circles = d.circles if circles is None else tuple(circles)
    out = Diagram(tuple(crossings), circles, tuple(labels[c4:]))
    _keep(out, labels, other)
    return out


def _check_signs(signs: set[int]) -> None:
    """The crossings are all signed or all unsigned."""
    if 0 in signs and len(signs) > 1:
        raise OrientationError("diagram mixes signed and unsigned crossings")


def _keep(d: Diagram, labels, other) -> None:
    """Check an oriented d's flow, then keep the dart index (labels, other)
    on d as its mark; the faces are numbered when first read."""
    if d.oriented:
        _check_flow(d, labels, other)
    try:
        index = (array("i", labels), array("i", other))
    except (OverflowError, TypeError):
        raise ArcOccurrenceError("arc labels must be integers below 2**31") from None
    d.__dict__["_valid"] = index


def _keep_faces(d: Diagram, face_next, face) -> tuple[array, array, array, array]:
    """Keep a marked d's faces beside its index; the whole index, as _darts gives it."""
    index = d.__dict__["_faces"] = (*d.__dict__["_valid"], array("i", face_next), array("i", face))
    return index


def _dart_structure(d: Diagram) -> tuple[list[int], list[int], list[int]]:
    """(labels, other, face_next): the label at each dart, the dart at the far
    end of its arc, and the next dart on its face.

    The pairing is meaningful only when every label occurs exactly twice.
    """
    labels = [label for c in d.crossings for label in c.slots]
    labels += d.boundary
    other = [0] * len(labels)
    pairs = iter(sorted(range(len(labels)), key=labels.__getitem__))
    for a, b in zip(pairs, pairs):
        other[a] = b
        other[b] = a
    return labels, other, _face_next(len(d.crossings), other)


def _face_next(n_crossings: int, other) -> list[int]:
    """The next dart on each dart's face, given the arc pairing.

    The face walk leaves dart j along its arc to k = other[j], then turns to
    the next dart at k's vertex: (k & ~3) | ((k + 1) & 3) at a crossing, the
    next boundary position at the cap.
    """
    c4 = 4 * n_crossings
    corner = list(range(1, len(other) + 1))
    corner[3:c4:4] = range(0, c4, 4)
    if len(other) > c4:
        corner[-1] = c4
    return list(map(corner.__getitem__, other))


def _face_ids(face_next: list[int]) -> list[int]:
    """Each dart's face, faces numbered in order of their smallest dart."""
    face = [-1] * len(face_next)
    n = 0
    for start in range(len(face_next)):
        if face[start] < 0:
            j = start
            while face[j] < 0:
                face[j] = n
                j = face_next[j]
            n += 1
    return face


def _pairing(d: Diagram) -> tuple[array, array]:
    """(labels, other) as validate keeps them, validating d first."""
    validate(d)
    return d.__dict__["_valid"]


def _darts(d: Diagram) -> tuple[array, array, array, array]:
    """(labels, other, face_next, face): the kept pairing, validating d first,
    and its faces, numbered on the first read and kept from then on."""
    index = d.__dict__.get("_faces")
    if index is None:
        other = _pairing(d)[1]
        face_next = _face_next(len(d.crossings), other)
        index = _keep_faces(d, face_next, _face_ids(face_next))
    return index


def _check_records(d: Diagram) -> None:
    """Crossing signs and labels, circle labels, and the occurrences of every label."""
    for c in d.crossings:
        if c.sign not in (-1, 0, 1):
            raise DiagramError(f"bad crossing sign {c.sign}")
        for label in c.slots:
            if label <= 0:
                raise ArcOccurrenceError(f"arc labels must be positive, got {label}")
    crossing_count = Counter(label for c in d.crossings for label in c.slots)
    boundary_count = Counter(d.boundary)
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


def _check_euler(d: Diagram, other: list[int], face: list[int]) -> None:
    """V - E + F = 2 on every connected component of the vertex graph.

    A component's V - E + F is 2 - 2 * genus <= 2, so the totals decide: they
    sum to twice the number of components exactly when every one is planar.
    """
    if not d.crossings and not d.boundary:
        return
    n_vertices = len(d.crossings) + (1 if d.boundary else 0)
    comp = [-1] * n_vertices  # each vertex's component, named by its first vertex
    roots = []
    for v in range(n_vertices):
        if comp[v] < 0:
            comp[v] = v
            roots.append(v)
            stack = [v]
            while stack:
                u = stack.pop()
                for k in other[4 * u : 4 * u + 4]:  # the cap's darts are the last slice
                    if comp[k >> 2] < 0:
                        comp[k >> 2] = v
                        stack.append(k >> 2)
    if n_vertices - len(other) // 2 + max(face) + 1 == 2 * len(roots):
        return
    for r in roots:  # name the first component that fails
        members = [v for v in range(n_vertices) if comp[v] == r]
        nv = len(members)
        ne = sum(4 if v < len(d.crossings) else len(d.boundary) for v in members) // 2
        nf = len({f for j, f in enumerate(face) if comp[j >> 2] == r})
        if nv - ne + nf != 2:
            raise PlanarityError(
                f"rotation system is not planar: V-E+F = {nv}-{ne}+{nf} != 2"
            )


def _check_flow(d: Diagram, labels: list[int], other: list[int]) -> None:
    """Each arc between two crossings must leave one and enter the other."""
    flows_in = []
    for c in d.crossings:
        over_in = 3 if c.sign > 0 else 1
        flows_in += [True, over_in == 1, False, over_in == 3]
    for j, k in enumerate(other):
        if j < k < len(flows_in) and flows_in[j] == flows_in[k]:
            raise OrientationError(f"arc {labels[j]} has inconsistent flow")


def _place(d: Diagram, j: int) -> tuple[int, int]:
    """The (vertex, slot) place of dart j; the cap's vertex is _CAP."""
    c4 = 4 * len(d.crossings)
    return (j >> 2, j & 3) if j < c4 else (_CAP, j - c4)


def _orbit(face_next, start: int) -> list[int]:
    """The darts of start's face in walk order, from start."""
    orbit = [start]
    j = face_next[start]
    while j != start:
        orbit.append(j)
        j = face_next[j]
    return orbit


def _has_arc(d: Diagram, a: int) -> bool:
    """Whether a labels an arc of d: a dart in the kept index, or a circle."""
    return a in _pairing(d)[0] or a in d.circles


def _sides(d: Diagram, a: int) -> set[int]:
    """The ids of the faces arc a borders; none for a crossing-free circle."""
    labels, other, _, face = _darts(d)
    if a not in labels:
        return set()
    j = labels.index(a)
    return {face[j], face[other[j]]}


def _far_ends(d: Diagram, arcs: list[int]) -> list[tuple[int, int]] | None:
    """Per arc, the (vertex, slot) place at its far end from the first face
    with a crossing corner that all `arcs` border; None if no face does."""
    labels, other, face_next, face = _darts(d)
    for f in sorted(set.intersection(*(_sides(d, a) for a in arcs))):
        orbit = _orbit(face_next, face.index(f))  # from the face's smallest dart
        if orbit[0] < 4 * len(d.crossings):
            return [_place(d, other[next(j for j in orbit if labels[j] == a)]) for a in arcs]
    return None


# ---------------------------------------------------------------------------
# faces, components, strands


def faces(d: Diagram) -> list[Face]:
    """Complete face decomposition; crossing-free circles add their two sides."""
    labels, _, face_next, face = _darts(d)
    c4 = 4 * len(d.crossings)
    result = []
    for start, f in enumerate(face):
        if f == len(result):  # the smallest dart of face f
            orbit = _orbit(face_next, start)
            corners = tuple((j >> 2, j & 3) for j in orbit if j < c4)
            result.append(Face(f, corners, frozenset([labels[j] for j in orbit])))
    for k in d.circles:
        result.append(Face(len(result), (), frozenset({k})))
        result.append(Face(len(result), (), frozenset({k})))
    return result


def _strands(d: Diagram) -> tuple[array, list[list[int]]]:
    """(labels, strands): each strand's darts in walk order, tail then head of
    each arc.  Open strands run from their first boundary dart, in boundary
    order; closed strands follow, each from its first crossing dart."""
    labels, other = _pairing(d)
    c4 = 4 * len(d.crossings)
    seen = bytearray(len(other))
    strands = []
    for start in [*range(c4, len(other)), *range(c4)]:
        if seen[start]:
            continue
        strand = []
        j = start
        while True:
            k = other[j]
            seen[j] = seen[k] = 1
            strand += (j, k)
            j = k ^ 2  # straight on through the crossing
            if k >= c4 or seen[j]:  # at the boundary, or back at the start
                break
        strands.append(strand)
    return labels, strands


def _flow(d: Diagram, strands: list[list[int]]) -> tuple[bytearray, list[int]]:
    """(flow_in, signs) along the strand walk: per dart, whether its arc
    flows into the dart's vertex, and per crossing the sign orient gives
    it, +1 when the walk enters at slot 0 and at slot 3 alike, or at
    neither: the over strand then comes in at slot 3 once the record is
    turned so that the incoming under strand sits at slot 0."""
    flow_in = bytearray(len(_pairing(d)[0]))
    for strand in strands:
        for head in strand[1::2]:
            flow_in[head] = 1
    signs = [1 if flow_in[j] == flow_in[j + 3] else -1 for j in range(0, 4 * len(d.crossings), 4)]
    return flow_in, signs


def components(d: Diagram) -> list[frozenset[int]]:
    """Partition arcs into link components / open strands by strand-following."""
    labels, strands = _strands(d)
    parts = [frozenset(map(labels.__getitem__, strand[::2])) for strand in strands]
    parts += [frozenset((k,)) for k in d.circles]
    return sorted(parts, key=min)


# The one union-find, of strand classes, quandle orbits and the glued ends of
# tangle._glue: parent maps a member to a smaller member of its class,
# and a member it does not hold names its class, the smallest member.


def _find(parent: dict[int, int], x: int) -> int:
    root = x
    while root in parent:
        root = parent[root]
    while x != root:  # path compression
        parent[x], x = root, parent[x]
    return root


def _union(parent: dict[int, int], a: int, b: int) -> bool:
    """Join the classes of a and b, the smaller name kept; False when they were one already."""
    a, b = _find(parent, a), _find(parent, b)
    if a == b:
        return False
    if a < b:
        a, b = b, a
    parent[a] = b
    return True


def strand_classes(d: Diagram) -> dict[int, int]:
    """Merge the two labels of each over-strand; the classes are the coloring unknowns.

    Returns label -> representative, the smallest label of its class.
    """
    parent: dict[int, int] = {}
    for c in d.crossings:
        _union(parent, c.slots[1], c.slots[3])
    return {a: _find(parent, a) for a in d.arcs()}


def co_facial(d: Diagram, a1: int, a2: int) -> bool:
    """True iff some face is incident to both arcs."""
    if a1 == a2:
        raise DiagramError("co_facial needs two distinct arcs")
    for a in (a1, a2):
        if not _has_arc(d, a):
            raise DiagramError(f"unknown arc label {a}")
    return not _sides(d, a1).isdisjoint(_sides(d, a2))


# ---------------------------------------------------------------------------
# orientation


def orient(d: Diagram) -> Diagram:
    """Assign a deterministic orientation: every crossing becomes signed.

    Open strands run from their first boundary occurrence.  A closed
    component runs out of its first crossing dart: the lowest slot it holds
    at the lowest-numbered crossing it passes, so it starts along the arc
    in that slot, which is not always its smallest label.  Crossing records
    are rotated so slot 0 is the incoming under-strand, then signed.
    """
    if d.oriented:
        return d
    flow_in, signs = _flow(d, _strands(d)[1])
    new_crossings = []
    for ci, (c, sign) in enumerate(zip(d.crossings, signs)):
        s = c.slots
        new_crossings.append(Crossing(s if flow_in[4 * ci] else (s[2], s[3], s[0], s[1]), sign))
    out = Diagram(tuple(new_crossings), d.circles, d.boundary)
    validate(out)
    return out


def unoriented(d: Diagram) -> Diagram:
    return Diagram(tuple(Crossing(c.slots, 0) for c in d.crossings), d.circles, d.boundary)


# ---------------------------------------------------------------------------
# relabeling


def relabel(d: Diagram, mapping: dict[int, int]) -> Diagram:
    """Apply a label substitution (labels not in the mapping stay put)."""

    def m(x):
        return mapping.get(x, x)

    out = Diagram(
        tuple(Crossing(tuple(m(s) for s in c.slots), c.sign) for c in d.crossings),
        tuple(m(k) for k in d.circles),
        tuple(m(e) for e in d.boundary),
    )
    return out


def max_label(d: Diagram) -> int:
    """The largest arc label, 0 for the empty diagram; read from the kept index."""
    return max(max(_pairing(d)[0], default=0), max(d.circles, default=0))
