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
each crossing (slot s to slot s ^ 2); components and orient share that
walk.  An arc borders the faces of its two darts, which is all co_facial
asks.  Planarity is enforced by the per-component Euler count
V - E + F = 2, not by an embedding search; a rotation system that fails
Euler is rejected as an inconsistent code.

Trust boundary: validate() runs once per Diagram object.  A diagram that
passes keeps the dart index the check built (dart labels, arc pairing,
face permutation and face ids numbered in order of smallest dart, as
array('i')) in its instance dict; later calls on the same object return
at once, and every structural read takes that index.  Only validate and
faces() walk every face.  The first coloring solver call on a validated
diagram keeps its Fox system (colorings._strand_columns: strand
representatives, label columns, crossing triples and crossing rows,
immutable) beside the index; validate does not build it, and an
unvalidated diagram keeps nothing.  validate rejects a Diagram whose
fields, or a Crossing whose slots, are not tuples, so a marked object
cannot change after the check, and labels the index cannot hold (not
integers below 2**31).
parse_diagram and every public constructor return validated diagrams;
intermediates that never leave a function are not validated.  Every
diagram tangle._glue makes from two validated tangles (sums, closures,
caps, host closures) is marked without validate: _splice builds its index
from their two kept indices (the second's darts after the first's, each
arc that ran to the boundary followed across the glue, faces numbered
afresh).  Planar disks glued along boundary arcs make a disk or a sphere,
and gluing arcs end to end leaves every label on two darts, so the
occurrence count and Euler walk would pass; signs and flow are checked.
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
        # the kept Fox system holds a mappingproxy, which does not pickle;
        # the first solver call on the copy builds it again
        return {k: v for k, v in self.__dict__.items() if k != "_fox"}

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


def _int_token(tok: str, lineno: int, col: int) -> int:
    if not tok.isdecimal() or int(tok) <= 0:
        raise PDSyntaxError(f"expected a positive integer, got {tok!r}", lineno, col)
    return int(tok)


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
                    raise PDSyntaxError(f"unknown record {kind!r}", lineno, start_col)
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
# the faces for the Euler count; validation checks them and keeps all four
# on the diagram as its index, which faces, co_facial, the strand walk of
# components and orient, and the move and cut helpers read through _darts.

_CAP = -1  # vertex index of the capped tangle boundary in (vertex, slot) places


def validate(d: Diagram) -> None:
    """Check occurrence counts, orientation consistency, and planarity.

    A diagram that passes keeps its dart index (labels, other, face_next,
    face) in its instance dict under "_valid" (ignored by == and hash);
    later calls on the same object return at once.
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
    if 0 in signs and len(signs) > 1:
        raise OrientationError("diagram mixes signed and unsigned crossings")
    face = _face_ids(face_next)
    _check_euler(d, other, face)
    _keep(d, labels, other, face_next, face)


def _splice(d: Diagram, t: Diagram, host: Diagram, glue, boundary=()) -> None:
    """Mark d, glued from the tangles t and host, valid with a dart index
    spliced from theirs.

    d's crossings are t's and then the host's, relabeled by the glue, which
    pairs the boundary positions that meet (t's positions first, then the
    host's); `boundary` lists the rest in d.boundary's order.  d passes the
    occurrence and Euler counts by construction (see the module docstring),
    so only the signs and an oriented d's flow are checked.
    """
    t_other, h_other = _darts(t)[1], _darts(host)[1]
    nt, nh, bt = 4 * len(t.crossings), 4 * len(host.crossings), len(t.boundary)
    other = t_other[:nt] + array("i", [k + nt for k in h_other[:nh]])
    # each boundary position's partner in its own tangle: a dart of d, or ~q for position q
    ends = [k if k < nt else ~(k - nt) for k in t_other[nt:]]
    ends += [k + nt if k < nh else ~(k - nh + bt) for k in h_other[nh:]]
    across = [0] * len(ends)
    for p, q in glue:
        across[p], across[q] = q, p
    for i, p in enumerate(boundary):  # an open position meets a virtual one ending at d's cap
        across[p] = len(across)
        across.append(p)
        ends.append(nt + nh + i)
        other.append(0)  # set below
    for p, j in enumerate(ends):
        if j >= 0:  # j's arc ran to the boundary: follow it across to its far dart
            k = ends[across[p]]
            while k < 0:  # a crossing-free strand passes straight through
                k = ends[across[~k]]
            other[j] = k
    signs = {c.sign for c in d.crossings}
    if 0 in signs and len(signs) > 1:
        raise OrientationError("diagram mixes signed and unsigned crossings")
    labels = [label for c in d.crossings for label in c.slots]
    labels += d.boundary
    face_next = _face_next(len(d.crossings), other)
    _keep(d, labels, other, face_next, _face_ids(face_next))


def _keep(d: Diagram, labels, other, face_next, face) -> None:
    """Check an oriented d's flow, then keep the dart index on d as its mark."""
    if d.oriented:
        _check_flow(d, labels, other)
    try:
        index = (array("i", labels), array("i", other), array("i", face_next), array("i", face))
    except (OverflowError, TypeError):
        raise ArcOccurrenceError("arc labels must be integers below 2**31") from None
    d.__dict__["_valid"] = index


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


def _darts(d: Diagram) -> tuple[array, array, array, array]:
    """(labels, other, face_next, face) as validate keeps them, validating d first."""
    validate(d)
    return d.__dict__["_valid"]


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
    return a in _darts(d)[0] or a in d.circles


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
    labels, other, _, _ = _darts(d)
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


def components(d: Diagram) -> list[frozenset[int]]:
    """Partition arcs into link components / open strands by strand-following."""
    labels, strands = _strands(d)
    parts = [frozenset(map(labels.__getitem__, strand[::2])) for strand in strands]
    parts += [frozenset((k,)) for k in d.circles]
    return sorted(parts, key=min)


def strand_classes(d: Diagram) -> dict[int, int]:
    """Merge the two labels of each over-strand; the classes are the coloring unknowns.

    Returns label -> representative, the smallest label of its class.
    """
    parent = {a: a for a in d.arcs()}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in d.crossings:
        _, a, _, b = c.slots
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                ra, rb = rb, ra
            parent[ra] = rb
    return {a: find(a) for a in parent}


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
    labels, strands = _strands(d)
    flow_in = bytearray(len(labels))  # dart -> its arc flows into the dart's vertex
    for strand in strands:
        for head in strand[1::2]:
            flow_in[head] = 1
    new_crossings = []
    for ci, c in enumerate(d.crossings):
        slots = c.slots
        if not flow_in[4 * ci]:
            slots = (slots[2], slots[3], slots[0], slots[1])
            base = 2
        else:
            base = 0
        over_in_at_3 = flow_in[4 * ci + (base + 3) % 4]
        sign = 1 if over_in_at_3 else -1
        new_crossings.append(Crossing(slots, sign))
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
    return max(max(_darts(d)[0], default=0), max(d.circles, default=0))
