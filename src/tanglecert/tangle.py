"""Tangle algebra: closures, addition, mirrors, rational tangles, linking.

A 2-tangle is a Diagram whose boundary record lists its four endpoints in
NW, NE, SE, SW order; a 1-tangle lists two.  The numerator closure caps
NW-NE and SW-SE, the denominator closure caps NW-SW and NE-SE, and tangle
addition fuses the east side of the left tangle to the west side of the
right one.  Each is one call of _glue, as are host insertion and caps.

Rational tangles are built from a twist vector [a1, ..., an] evaluated as
the continued fraction an + 1/(a_{n-1} + ... + 1/a1): the entry sharing the
parity of n is a column of east twists (additive), the other entries are
rows of south twists (reciprocal-additive).  Odd-length vectors grow from
the zero tangle; even-length vectors start from the infinity tangle, since
south twists act trivially on the zero tangle (they only kink the bottom
strand).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .diagram import (
    Crossing,
    Diagram,
    DiagramError,
    _edit,
    _find,
    _pairing,
    _strands,
    _union,
    max_label,
    validate,
)

__all__ = [
    "TangleFraction",
    "close_one_tangle",
    "connectivity",
    "denominator_closure",
    "infinity_tangle",
    "insert_into_host",
    "linking_sum",
    "mirror",
    "numerator_closure",
    "rational_tangle",
    "rotate90",
    "tangle_add",
    "tangle_fraction",
    "zero_tangle",
]


class TangleError(DiagramError):
    pass


def _require_tangle(d: Diagram, arity: int = 4) -> None:
    if len(d.boundary) != arity:
        raise TangleError(f"operation needs a {arity}-endpoint tangle")


def zero_tangle() -> Diagram:
    """Two horizontal strands: NW-NE over nothing, SW-SE below."""
    return Diagram(boundary=(1, 1, 2, 2))


def infinity_tangle() -> Diagram:
    """Two vertical strands: NW-SW and NE-SE."""
    return Diagram(boundary=(1, 2, 2, 1))


def connectivity(d: Diagram) -> str:
    """Endpoint pairing pattern: 'H' (NW-NE/SW-SE), 'V' (NW-SW/NE-SE), or 'X'."""
    _require_tangle(d)
    _, strands = _strands(d)
    end = strands[0][-1] - 4 * len(d.crossings)  # NW's strand ends at NE, SE or SW: 1, 2 or 3
    return "HXV"[end - 1]


# ---------------------------------------------------------------------------
# joining machinery


def _glue(t: Diagram, host: Diagram, glue, boundary=()) -> Diagram:
    """Glue host to t at the paired boundary positions, leaving `boundary` open.

    Positions number t's endpoints (NW, NE, SE, SW = 0-3), then the host's.
    The host's labels are raised past t's and each glued pair of ends
    merges, the smaller label kept, which keeps the left operand's labels
    stable under addition; a pair whose ends already meet closes a circle.
    The result is one _edit of t: the merged labels substituted at t's end
    darts, the host's crossings appended with their labels raised and the
    merged ones renamed, and the open ends, in the order given, as its
    boundary.  t and host are validated if they are not yet.
    """
    shift = max_label(t)
    validate(host)
    ends = t.boundary + tuple(e + shift for e in host.boundary)
    merged: dict[int, int] = {}  # union-find of the ends: dropped label -> a smaller one
    circles = [*t.circles, *(k + shift for k in host.circles)]
    for p, q in glue:
        if not _union(merged, ends[p], ends[q]):  # the two ends already meet: a circle closes
            circles.append(_find(merged, ends[p]))
    rename = {x: _find(merged, x) for x in merged}
    labels, other = _pairing(t)
    c4 = 4 * len(t.crossings)
    spots = [
        (k >> 2, k & 3, labels[k], rename[labels[k]])
        for k in other[c4:]
        if k < c4 and labels[k] in rename
    ]
    added = [
        Crossing(tuple(rename.get(s + shift, s + shift) for s in c.slots), c.sign)
        for c in host.crossings
    ]
    carry = [rename.get(ends[p], ends[p]) for p in boundary]
    return _edit(t, spots, added, circles, carry)


# validated once: the trivial hosts, and the tangles rational twists grow from
_ZERO_HOST, _INFINITY_HOST, _ARC_HOST = zero_tangle(), infinity_tangle(), Diagram(boundary=(1, 1))
_SUM_GLUE = [(1, 4), (2, 7)]  # t's NE/SE to the host's NW/SW; the sum keeps (0, 5, 6, 3)
_N_GLUE = _SUM_GLUE + [(0, 5), (3, 6)]  # then cap NW-NE and SW-SE
_D_GLUE = _SUM_GLUE + [(0, 3), (5, 6)]  # or NW-SW and NE-SE
_ARC_GLUE = [(0, 2), (1, 3)]  # a 1-tangle meets its host end to end
_HOST_ENDS = {"H": [(4, 5), (6, 7)], "V": [(4, 7), (5, 6)], "X": [(4, 6), (5, 7)]}  # by pairing


def _closure_cycles(ends, pairing: str, closure: str) -> int:
    """The cycles insert_into_host's closure makes of the 8 glued ends, each
    on two edges: t's end edges `ends` (positions 0-3), those of a host with
    this connectivity and the closure's glue; no diagram is built."""
    parent: dict[int, int] = {}
    glue = _N_GLUE if closure == "N" else _D_GLUE
    return 8 - sum(_union(parent, a, b) for a, b in (*ends, *_HOST_ENDS[pairing], *glue))


def numerator_closure(t: Diagram) -> Diagram:
    """Cap NW-NE and SW-SE with crossing-free arcs."""
    _require_tangle(t)
    return _glue(t, _ZERO_HOST, _N_GLUE)


def denominator_closure(t: Diagram) -> Diagram:
    """Cap NW-SW and NE-SE with crossing-free arcs."""
    _require_tangle(t)
    return _glue(t, _ZERO_HOST, _D_GLUE)


def close_one_tangle(t: Diagram) -> Diagram:
    """Join the two endpoints of a 1-tangle."""
    _require_tangle(t, arity=2)
    return _glue(t, _ARC_HOST, _ARC_GLUE)


def tangle_add(t1: Diagram, t2: Diagram) -> Diagram:
    """Planar juxtaposition: fuse t1's NE/SE side to t2's NW/SW side."""
    _require_tangle(t1)
    _require_tangle(t2)
    return _glue(t1, t2, _SUM_GLUE, (0, 5, 6, 3))


def mirror(t: Diagram) -> Diagram:
    """Swap every crossing's over and under strands (slots rotate by one)."""
    out = Diagram(
        tuple(
            Crossing((c.slots[1], c.slots[2], c.slots[3], c.slots[0]), -c.sign)
            for c in t.crossings
        ),
        t.circles,
        t.boundary,
    )
    validate(out)
    return out


def rotate90(t: Diagram) -> Diagram:
    """Rotate the tangle disc a quarter turn (NE moves to NW)."""
    _require_tangle(t)
    nw, ne, se, sw = t.boundary
    return _edit(t, boundary=(ne, se, sw, nw))


def insert_into_host(t: Diagram, host: Diagram, closure: str = "N") -> Diagram:
    """Close tangle_add(t, host): the closures verify_certificate composes.

    Up to isotopy of the complement, any knot diagram containing t is such
    a closure, so certificates are exercised by sampling hosts.  1-tangles
    connect-sum with 1-tangle hosts instead (closure type is irrelevant).
    """
    if len(t.boundary) == 2:
        _require_tangle(host, arity=2)
        return _glue(t, host, _ARC_GLUE)
    _require_tangle(t)
    _require_tangle(host)
    if closure not in ("N", "D"):
        raise TangleError(f"closure must be 'N' or 'D', got {closure!r}")
    return _glue(t, host, _N_GLUE if closure == "N" else _D_GLUE)


# ---------------------------------------------------------------------------
# rational tangles


@dataclass(frozen=True)
class TangleFraction:
    """A reduced fraction p/q with 1/0 for infinity and 0/1 for zero."""

    p: int
    q: int

    @property
    def is_zero(self) -> bool:
        return self.p == 0

    @property
    def is_infinity(self) -> bool:
        return self.q == 0

    @property
    def connectivity(self) -> str:
        """The end pairing of the rational tangles of this fraction, as
        connectivity() names it: 'H' when p is even, 'V' when q is even, else
        'X' (Conway 1970; Kauffman and Lambropoulou 2004)."""
        return "H" if self.p % 2 == 0 else "V" if self.q % 2 == 0 else "X"

    def __str__(self) -> str:
        return "inf" if self.q == 0 else f"{self.p}/{self.q}"


def _normalize_fraction(p: int, q: int) -> TangleFraction:
    if p == 0 and q == 0:
        raise TangleError("0/0 is not a tangle fraction")
    if q == 0:
        return TangleFraction(1, 0)
    if p == 0:
        return TangleFraction(0, 1)
    g = gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if q < 0:
        p, q = -p, -q
    return TangleFraction(p, q)


def tangle_fraction(twists: list[int]) -> TangleFraction:
    """Continued-fraction value an + 1/(a_{n-1} + ... + 1/a1), projectively."""
    if not twists:
        raise TangleError("twist vector must be nonempty")
    p, q = twists[0], 1
    for a in twists[1:]:
        p, q = a * p + q, p
    return _normalize_fraction(p, q)


def _east_twist(boundary, fresh, positive):
    nw, ne, se, sw = boundary
    a, b = fresh, fresh + 1  # new NE, new SE
    if positive:
        crossing = Crossing((ne, se, b, a))
    else:
        crossing = Crossing((se, b, a, ne))
    return crossing, (nw, a, b, sw), fresh + 2


def _south_twist(boundary, fresh, positive):
    nw, ne, se, sw = boundary
    c, d = fresh, fresh + 1  # new SW, new SE
    if positive:
        crossing = Crossing((sw, c, d, se))
    else:
        crossing = Crossing((se, sw, c, d))
    return crossing, (nw, ne, d, c), fresh + 2


def rational_tangle(twists: list[int]) -> Diagram:
    """Build the rational tangle of a twist vector with deterministic labels:
    one _edit of the validated zero or infinity tangle, its twists appended."""
    if not twists:
        raise TangleError("twist vector must be nonempty")
    n = len(twists)
    start = _ZERO_HOST if n % 2 == 1 else _INFINITY_HOST
    crossings: list[Crossing] = []
    boundary = start.boundary
    fresh = 3
    for i, a in enumerate(twists, start=1):
        east = (i % 2) == (n % 2)
        for _ in range(abs(a)):
            if east:
                x, boundary, fresh = _east_twist(boundary, fresh, a > 0)
            else:
                x, boundary, fresh = _south_twist(boundary, fresh, a > 0)
            crossings.append(x)
    return _edit(start, added=crossings, boundary=boundary)


# ---------------------------------------------------------------------------
# linking


def linking_sum(t: Diagram) -> int:
    """Signed count of crossings between the two open strands, in half-units.

    The geometric linking contribution is half this value; the integer is
    returned so the arithmetic stays exact.  Requires an oriented 2-tangle.
    """
    _require_tangle(t)
    if not t.oriented:
        if t.crossings:
            raise TangleError("linking_sum needs an oriented tangle")
        return 0
    labels, strands = _strands(t)
    side = bytearray(len(labels))  # dart -> 1 or 2 on the walk's open strands, which come first
    for mark, strand in zip((1, 2), strands):
        for j in strand:
            side[j] = mark
    # a crossing links them when its under and over darts lie on different ones
    return sum(
        c.sign for i, c in enumerate(t.crossings) if {side[4 * i], side[4 * i + 1]} == {1, 2}
    )
