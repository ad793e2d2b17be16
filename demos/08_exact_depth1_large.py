"""Exact depth-1 descent on an 18-bit quadratic program, in seconds.

The exact depth-1 objective never builds a Fock vector: its parity masses
come from the carry-chain pass over the 2^18 bit-string codes, and each
shift-rule stencil from that pass and one backward sweep.  The
M = n = 18 photon sector it stands for holds C(35, 18) = 4.5e9 patterns,
far beyond dense evolution.  An optional argument caps the iterations
per descent (default 20), e.g. `python 08_exact_depth1_large.py 2`.

In exact mode `e_min` is the energy of the lowest bit string that any
evaluated row gives nonzero mass (above 1e-12), not the objective a
descent reached: one random depth-1 row supports about 40% of the 2^18
codes, so `e_min` usually meets the exhaustive minimum at the first
evaluation.  Whether a descent itself got there shows in its final
objective, which is printed beside the exhaustive minimum.
"""

import sys
import time

import numpy as np

from shallowboson import (
    QuboProblem, SolverConfig, brute_force_min, run_variational,
)

M = 18
iterations = int(sys.argv[1]) if len(sys.argv) > 1 else 20
q = np.random.default_rng(18).normal(size=(M, M))
problem = QuboProblem((q + q.T) / 2)
exhaustive, argmin, _ = brute_force_min(problem)
print(f"M = {M} random QUBO: exhaustive minimum {exhaustive:+.4f} at "
      f"{''.join(map(str, argmin))}")

config = SolverConfig(depth=1, samples=None, eta=0.1,
                      max_iterations=iterations, plateau_tolerance=1e-5,
                      master_seed=0)
start = time.perf_counter()
result = run_variational(problem, config)
elapsed = time.perf_counter() - start
steps = sum(len(curve) for curve in result.learning_curves.values())
assert result.e_min >= exhaustive - 1e-9, "undercut the exhaustive minimum"
print(f"lowest supported bit string (e_min): {result.e_min:+.4f} at "
      f"{''.join(map(str, result.b_min))} "
      f"({'equals' if result.e_min <= exhaustive + 1e-9 else 'above'} "
      f"the exhaustive minimum)")
print(f"  {steps} iterations over 4 descents in {elapsed:.1f} s, "
      f"{elapsed / steps:.2f} s per iteration")
for tag, curve in result.learning_curves.items():
    final = curve[-1][1]
    print(f"  {tag}: objective {curve[0][1]:+.3f} -> {final:+.3f}, "
          f"exhaustive minimum {exhaustive:+.3f} "
          f"(gap {final - exhaustive:.3f})")
