"""Property tests: sector indexing and gate-list evolution invariants.

The profile is derandomized with a bounded example count, so the suite
draws the same cases on every run and stays fast.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from shallowboson.fock import enumerate_basis
from shallowboson.interferometer import (
    CircuitSpec, QuantumState, TwoModeGate, apply_gate, schwinger_expectation,
)

PROPERTY = settings(max_examples=40, derandomize=True, deadline=None,
                    database=None)


@st.composite
def sectors(draw, max_modes=8, max_photons=8):
    return (draw(st.integers(1, max_modes)),
            draw(st.integers(0, max_photons)))


@st.composite
def compositions(draw, num_modes, num_photons):
    """A weak composition of num_photons into num_modes parts."""
    cuts = sorted(draw(st.lists(st.integers(0, num_photons),
                                min_size=num_modes - 1,
                                max_size=num_modes - 1)))
    bounds = [0] + cuts + [num_photons]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def gate_lists(draw):
    """A sector, an input pattern and gates on arbitrary mode pairs."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 4))
    angle = st.floats(0.0, 2 * np.pi, allow_nan=False)
    gates = []
    for _ in range(draw(st.integers(1, 6))):
        i = draw(st.integers(0, m - 2))
        j = draw(st.integers(i + 1, m - 1))
        gates.append(TwoModeGate(i, j, draw(angle), draw(angle)))
    return m, n, draw(compositions(m, n)), gates


@PROPERTY
@given(st.data(), sectors())
def test_rank_unrank_bijection(data, sector):
    basis = enumerate_basis(*sector)
    assert np.array_equal(basis.rank(basis.patterns), np.arange(basis.size))
    index = data.draw(st.integers(0, basis.size - 1))
    assert basis.index(basis.pattern(index)) == index
    pattern = data.draw(compositions(*sector))
    assert basis.pattern(basis.index(pattern)) == pattern


def _evolve_gates(state, gates):
    for gate in gates:
        state = apply_gate(state, gate)
    return state


def _merged_pair_marginal(state, i, j):
    """Probability per pattern with modes i and j merged into their total."""
    pats = state.basis.patterns.astype(np.int64)
    merged = pats.copy()
    merged[:, i] = 0
    merged[:, j] = pats[:, i] + pats[:, j]
    return np.bincount(state.basis.rank(merged),
                       weights=state.probabilities(),
                       minlength=state.basis.size)


@PROPERTY
@given(gate_lists())
def test_gates_conserve_photons_per_coupled_pair(case):
    m, n, pattern, gates = case
    state = QuantumState.from_pattern(enumerate_basis(m, n), pattern)
    for gate in gates:
        after = apply_gate(state, gate)
        # a gate only redistributes photons between its own two modes
        assert np.allclose(_merged_pair_marginal(after, gate.i, gate.j),
                           _merged_pair_marginal(state, gate.i, gate.j),
                           atol=1e-12)
        state = after
    circuit = CircuitSpec(m, 1, [TwoModeGate(g.i, g.j) for g in gates],
                          pattern)
    thetas = [g.theta for g in gates]
    psis = [g.psi for g in gates]
    occupations = state.probabilities() @ state.basis.patterns
    for k in range(m):
        # mean photon number per mode from the single-particle picture
        observable = np.zeros((m, m))
        observable[k, k] = 1.0
        expected = schwinger_expectation(circuit, thetas, observable, psis)
        assert abs(occupations[k] - expected) < 1e-10


@PROPERTY
@given(gate_lists())
def test_gate_lists_are_unitary(case):
    m, n, _, gates = case
    basis = enumerate_basis(m, n)
    columns = [_evolve_gates(QuantumState.from_pattern(basis, p), gates)
               for p in basis]
    unitary = np.stack([c.vector for c in columns], axis=1)
    gram = unitary.conj().T @ unitary
    assert np.max(np.abs(gram - np.eye(basis.size))) < 1e-10
