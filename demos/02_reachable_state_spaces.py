"""How many detection patterns can the first few mesh slices produce?

The reachable patterns of a sliced triangular mesh are counted by
staircase/Dyck paths in a polygon, and the exact simulator agrees with
the enumeration pattern for pattern.  Depth by depth the spaces nest
strictly until the full sector is reached.
"""

import numpy as np

from shallowboson import (
    build_reck_slices, catalan_basis, catalan_dyck_spec, dyck_count,
    enumerate_basis, evolve, reck_input, support,
)

rng = np.random.default_rng(0)

for m, n in [(4, 4), (4, 3), (6, 5)]:
    print(f"\nM = {m} modes, n = {n} photons "
          f"(full sector: {len(enumerate_basis(m, n))} patterns)")
    for depth in range(1, m):
        spec = catalan_dyck_spec(m, n, depth)
        closed = dyck_count(spec)
        patterns = catalan_basis(m, n, depth)
        circuit = build_reck_slices(m, depth, reck_input(m, n))
        thetas = rng.uniform(0.1, np.pi - 0.1, len(circuit.gates))
        simulated = support(evolve(circuit, thetas))
        agree = np.array_equal(simulated, patterns)
        print(f"  depth {depth}: paths(k={spec.k}, {spec.delta1}->"
              f"{spec.delta2}) = {closed:4d}   enumerated = "
              f"{len(patterns):4d}   simulator support = "
              f"{len(simulated):4d}   {'agree' if agree else 'MISMATCH'}")

print("\nthe depth-1 space for n = M-1 is the M-th Catalan number:")
from shallowboson import catalan_number
for m in range(3, 9):
    count = dyck_count(catalan_dyck_spec(m, m - 1, 1))
    print(f"  M = {m}: {count} = C_{m} = {catalan_number(m)}")
