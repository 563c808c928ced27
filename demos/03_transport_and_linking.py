"""Transporting arcs with R2 moves, and inflating the linking number.

Two same-colored arcs need not share a face.  Pushing one of them over the
intervening arcs (type II moves, recoloring as we go) carries a descendant
segment into the other's face, where both can be cut.  Pushing is always
over, so the moving segment keeps its color and the boundary stays
monochromatic.

Spiralling extra passes around the destination strand before cutting adds
one same-signed crossing between the tangle's open strands per pass, so the
linking between them grows as far as we like.
"""

from tanglecert import (
    co_facial,
    cut_two_arcs,
    ensure_same_colored_pair,
    find_same_colored_pairs,
    fox_solution_space,
    linking_sum,
    numerator_closure,
    orient,
    parse_diagram,
    r2_transport,
    rational_tangle,
    verify_certificate,
)

trefoil = parse_diagram("X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3")
coloring = fox_solution_space(trefoil, 3).first_nonconstant()
print("Same-colored arc pairs on distinct strands of the tricolored trefoil:",
      find_same_colored_pairs(trefoil, coloring))
print("Each of its 3 strands has its own color.  Arcs 1 and 6 lie on one strand,")
print(f"so they share a color; co_facial(trefoil, 1, 6) is {co_facial(trefoil, 1, 6)}.")

a1, a2 = 1, 6
moved = r2_transport(trefoil, coloring, a1, a2)
print(f"Transporting arc {a1} toward arc {a2} took {len(moved.records)} move(s);")
print(f"the diagram now has {len(moved.diagram.crossings)} crossings and the")
print(f"moving segment {moved.segment} kept color {moved.coloring.colors[moved.segment]}.")

tangle, cert, records = cut_two_arcs(trefoil, coloring, a1, a2)
print(f"\ncut_two_arcs replays that and cuts: certificate mod {cert.kind[1]},")
print(f"move trace of {len(records)} record(s), replayable from the JSON output.")

# Linking inflation on a 6-crossing knot colored mod 11.
six2 = numerator_closure(rational_tangle([3, 1, 2]))
c11 = fox_solution_space(six2, 11).first_nonconstant()
print("\nA 6-crossing knot with determinant 11; its colorings give its 6 strands")
print("6 distinct colors, so no same-colored pair lies on two strands:",
      find_same_colored_pairs(six2, c11))
d2, c2, pair, setup = ensure_same_colored_pair(six2, c11)
print(f"Pushing one arc over another minted pair {pair} with {len(setup)} setup move(s).")

print("\nExtra spiral passes before cutting inflate the linking between the")
print("tangle's two open strands (reported in half-units):")
for k in (0, 1, 2, 3):
    t, cert, _ = cut_two_arcs(d2, c2, *pair, extra_passes=k)
    rep = verify_certificate(t, cert, trials=25, seed=k)
    print(f"  k={k}: linking {linking_sum(orient(t)):+d}, "
          f"{len(t.crossings)} crossings, certificate mod {cert.kind[1]} "
          f"({rep.passes} host closures verified)")
