"""Parsing planar diagrams and counting their colorings.

A PD file lists crossings as `X a b c d` with the four arc labels read
counterclockwise from the incoming under-strand.  Arcs between crossings
get integer labels; faces, components, and colorings all come from that
combinatorial data alone.
"""

from tanglecert import (
    co_facial,
    components,
    determinant,
    dihedral,
    faces,
    fox_solution_space,
    has_nontrivial_fox,
    parse_diagram,
    quandle_space,
)

trefoil = parse_diagram("X 1 4 2 5 ; X 3 6 4 1 ; X 5 2 6 3")
print("The standard trefoil has", len(trefoil.crossings), "crossings and",
      len(components(trefoil)), "component.")

print("\nIts faces (by incident arcs):")
for f in faces(trefoil):
    print(f"  face {f.index}: arcs {sorted(f.arcs)}")
print("Arcs 2 and 4 share a face:", co_facial(trefoil, 2, 4))
print("Arcs 1 and 6 do not:", not co_facial(trefoil, 1, 6))

print("\nColorings mod n assign residues to arcs so that at each crossing")
print("the under-arc colors sum to twice the over-arc color.")
for n in (2, 3, 4, 5, 6, 7):
    space = fox_solution_space(trefoil, n)
    tag = "nontrivial colorings exist" if space.count > n else "only constants"
    print(f"  mod {n}: {space.count:3d} colorings  ({tag})")

print("\nThe determinant packages all of this:", determinant(trefoil))
print("A prime p admits nontrivial colorings exactly when p divides it:")
for p in (3, 5, 7):
    print(f"  p={p}: divides={determinant(trefoil) % p == 0}, "
          f"nontrivial={has_nontrivial_fox(trefoil, p)}")

print("\nDihedral quandles reproduce the same counts",
      "(a*b = 2b - a is the coloring rule in disguise):")
for n in (3, 5):
    print(f"  dihedral-{n}: {quandle_space(trefoil, dihedral(n)).count} colorings")

one_coloring = fox_solution_space(trefoil, 3).first_nonconstant()
print("\nA nontrivial tricoloring:", dict(sorted(one_coloring.colors.items())))
