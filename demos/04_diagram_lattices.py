"""The reachable patterns form a lattice of contained diagrams.

Each vertex of the lattice carries three equivalent labels: the diagram,
the detection pattern (first differences read along the detector axis),
and the parity bit string.  Boolean sublattices of all orders hide in
the structure, and the depth-1 lattices peel into an ordinal sum of
Boolean factors from the top down.
"""

from shallowboson import (
    catalan_lattice, count_boolean_sublattices, export_lattice_json,
    lattice_text, ordinal_sum_decomposition, young_lattice,
)

lattice = catalan_lattice(4, 4, 1)
print(f"depth-1 lattice of (M=4, n=4): {len(lattice)} vertices, "
      f"{len(lattice.cover_edges)} cover edges")
print("\nfirst vertices with their three labels:")
for line in lattice_text(export_lattice_json(lattice, 4)).splitlines()[:6]:
    print(" ", line)

print("\nBoolean sublattice census:")
big = young_lattice((2, 3, 4))
print(f"  Y(2,3,4): B3 by single-box removals = "
      f"{count_boolean_sublattices(big, 3, unit_boxes=True)}, "
      f"as general sublattices = {count_boolean_sublattices(big, 3)}")
small = catalan_lattice(4, 3, 1)
print(f"  depth-1 lattice of (M=4, n=3): B3 = "
      f"{count_boolean_sublattices(small, 3)}, B2 = "
      f"{count_boolean_sublattices(small, 2)} "
      f"(only {count_boolean_sublattices(small, 2, unit_boxes=True)} are "
      f"visible as unit squares)")

print("\nordinal-sum decompositions (top factor first):")
for m, n in [(2, 2), (3, 3), (4, 4), (5, 4)]:
    decomposition = ordinal_sum_decomposition(catalan_lattice(m, n, 1))
    chain = " + ".join(f"B{k}" for k in decomposition.factors)
    print(f"  depth-1 (M={m}, n={n}): {chain}")
