"""Two photons meeting at one balanced beam splitter.

The coincidence outcome (one photon per output) is completely suppressed
at theta = pi/2: both photons always bunch into the same mode.  Sweeping
theta shows the textbook cos^2(theta) coincidence dip.
"""

import numpy as np

from shallowboson import CircuitSpec, TwoModeGate, evolve

circuit = CircuitSpec(2, 1, [TwoModeGate(0, 1)], (1, 1))


def outcome_probabilities(theta):
    """P(2,0), P(1,1), P(0,2) after one splitter at angle theta."""
    state = evolve(circuit, [theta])
    probs = state.probabilities()  # aligned with state.basis.patterns
    return [probs[state.basis.index(p)] for p in [(2, 0), (1, 1), (0, 2)]]


print("theta      P(2,0)   P(1,1)   P(0,2)")
for theta in np.linspace(0, np.pi, 9):
    p20, p11, p02 = outcome_probabilities(theta)
    print(f"{theta:6.3f}  {p20:8.4f} {p11:8.4f} {p02:8.4f}")

p20, p11, p02 = outcome_probabilities(np.pi / 2)
print(f"\nbalanced splitter: coincidence probability "
      f"{p11:.2e} (suppressed), bunching {p20:.3f} + {p02:.3f}")
