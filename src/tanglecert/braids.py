"""Braid words to planar diagrams, mainly for generating test corpora.

A word is a list of nonzero ints: +i crosses strand positions i, i+1 with
one handedness, -i with the other.  braid_closure plat-closes the braid
into a closed diagram; positions never involved in a crossing close into
crossing-free circles.
"""

from __future__ import annotations

from .diagram import Crossing, Diagram, validate

__all__ = ["braid_closure"]


def braid_closure(word: list[int], strands: int) -> Diagram:
    if strands < 2:
        raise ValueError("need at least 2 strands")
    if any(g == 0 or abs(g) >= strands for g in word):
        raise ValueError("generator out of range")
    current = list(range(1, strands + 1))
    top = list(current)
    fresh = strands
    crossings = []
    for g in word:
        i = abs(g) - 1
        e_i, e_j = current[i], current[i + 1]
        f_i, f_j = fresh + 1, fresh + 2
        fresh += 2
        if g > 0:
            crossings.append(Crossing((e_i, f_i, f_j, e_j)))
        else:
            crossings.append(Crossing((e_j, e_i, f_i, f_j)))
        current[i], current[i + 1] = f_i, f_j
    # plat closure: the bottom edge at each position takes the top edge's
    # label, and a position no crossing touched closes into a circle
    rename = {b: a for a, b in zip(top, current) if a != b}
    crossings = [
        c if rename.keys().isdisjoint(c.slots) else Crossing(tuple(rename.get(s, s) for s in c.slots))
        for c in crossings
    ]
    circles = tuple(a for a, b in zip(top, current) if a == b)
    d = Diagram(tuple(crossings), circles, ())
    validate(d)
    return d
