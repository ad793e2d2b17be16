"""Property tests: sector indexing, gate-list evolution, the depth-1 chain,
problem energies and exact objective rows.

The profile is derandomized with a bounded example count, so the suite
draws the same cases on every run and stays fast.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from shallowboson.fock import enumerate_basis
from shallowboson.interferometer import (
    CircuitSpec, QuantumState, TwoModeGate, apply_gate, build_reck_slices,
    reck_input, schwinger_expectation,
)
from shallowboson.problems import (
    IsingProblem, MobiusProblem, QuboProblem, qubo_to_ising,
    synthetic_portfolio,
)
from shallowboson.sampling import (
    chain_sample_depth1_batch, depth1_parity_masses,
)
from shallowboson.solver import ParityObjective

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


@st.composite
def chain_batches(draw):
    """A depth-1 mesh, a batch of angle rows and one row index in it."""
    m = draw(st.integers(3, 7))
    circ = build_reck_slices(m, 1, reck_input(m, draw(st.sampled_from(
        [m, m - 1]))))
    # few distinct angle values, so rows share angles per gate
    angle = st.sampled_from([0.0, 0.7, np.pi / 2, 2.9, 4.4])
    row = st.lists(angle, min_size=m - 1, max_size=m - 1)
    thetas = draw(st.lists(row, min_size=1, max_size=6))
    return circ, np.array(thetas), draw(st.integers(0, len(thetas) - 1))


@PROPERTY
@given(chain_batches(), st.data())
def test_chain_draws_of_a_row_ignore_the_rest_of_the_batch(case, data):
    circ, thetas, r = case
    seed = data.draw(st.integers(0, 2**32 - 1))
    full = chain_sample_depth1_batch(circ, thetas, 40, seed)[r]
    # row r keeps its index, which picks its seeded stream; cut the batch
    # after it, reorder or replace the rows before it, append other rows
    order = list(range(r)) + list(range(r + 1, len(thetas)))
    others = data.draw(st.permutations(order))[:r]
    rows = others + [r]
    fresh = data.draw(st.integers(0, 2))
    new_thetas = np.concatenate(
        [thetas[rows], np.full((fresh, thetas.shape[1]), 1.3)])
    again = chain_sample_depth1_batch(circ, new_thetas, 40, seed)
    assert np.array_equal(again[r], full)


@PROPERTY
@given(chain_batches(), st.integers(0, 1))
def test_parity_masses_of_a_row_ignore_the_rest_of_the_batch(case, parity):
    circ, thetas, r = case
    full = depth1_parity_masses(circ, thetas, parity)
    alone = depth1_parity_masses(circ, thetas[r:r + 1], parity)
    assert np.array_equal(alone[0], full[r])
    tail = depth1_parity_masses(circ, thetas[r:], parity)
    assert np.array_equal(tail[0], full[r])


@st.composite
def objective_batches(draw):
    """An exact objective at depth 1 or 2 on 3 <= M <= 6 modes, with a
    batch of rows that share prefixes of one base row, so that dense rows
    leave their walk out of row order."""
    m = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    objective = ParityObjective(
        QuboProblem(rng.normal(size=(m, m))),
        draw(st.sampled_from((m, m - 1))), draw(st.integers(0, 1)),
        draw(st.integers(1, 2)))
    p = objective.num_parameters
    base = rng.uniform(0, 2 * np.pi, p)
    rows = rng.uniform(0, 2 * np.pi, (draw(st.integers(1, 6)), p))
    for row in rows:
        shared = draw(st.integers(0, p))
        row[:shared] = base[:shared]
    return objective, rows


@PROPERTY
@given(objective_batches(), st.data())
def test_exact_row_energies_ignore_order_and_cuts(case, data):
    objective, rows = case
    energies = objective.value_batch(rows)[0]
    order = data.draw(st.permutations(range(len(rows))))
    reordered = objective.value_batch(rows[order])[0]
    assert reordered.tolist() == energies[order].tolist()
    cut = data.draw(st.integers(1, len(rows)))
    parts = [objective.value_batch(part)[0] for part in (rows[:cut],
                                                          rows[cut:])
             if len(part)]
    assert np.concatenate(parts).tolist() == energies.tolist()


@st.composite
def problems_and_rows(draw):
    """One of the four problem classes with a batch of bit rows."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["qubo", "ising", "mobius", "portfolio"]))
    if kind == "mobius":
        m = 2 * draw(st.integers(2, 8))
        problem = MobiusProblem(m, rng.normal(), rng.normal())
    elif kind == "portfolio":
        problem = synthetic_portfolio(
            draw(st.integers(1, 5)), seed,
            gamma=float(rng.uniform(0, 3)),
            n_bits_per_asset=draw(st.integers(1, 3)),
            approach=draw(st.sampled_from(["normalized", "penalty"])))
        m = problem.num_bits
    else:
        m = draw(st.integers(1, 16))
        q = rng.normal(size=(m, m))
        problem = (QuboProblem(q) if kind == "qubo"
                   else IsingProblem(
                       {(i, j): rng.normal() for i in range(m)
                        for j in range(i + 1, m)},
                       rng.normal(size=m), rng.normal()))
    rows = rng.integers(0, 2, (draw(st.integers(1, 60)), m))
    return problem, rows


@PROPERTY
@given(problems_and_rows())
def test_energy_of_a_row_ignores_the_rest_of_the_batch(case):
    problem, rows = case
    energies = problem.energies(rows)
    for i in range(len(rows)):
        assert energies[i] == problem.energies(rows[i:i + 1])[0]


@PROPERTY
@given(st.integers(1, 14), st.integers(0, 2**32 - 1))
def test_qubo_and_ising_energies_agree(m, seed):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(m, m)) * rng.uniform(0.1, 10)
    rows = rng.integers(0, 2, (50, m))
    qubo = QuboProblem(q).energies(rows)
    ising = qubo_to_ising(q).energies(rows)
    # relative to the size of the terms: an energy that cancels to near
    # zero carries the rounding of its terms, not of itself
    scale = np.abs(q).sum()
    assert np.all(np.abs(qubo - ising) <= 1e-12 * np.maximum(np.abs(qubo),
                                                             scale))
