import re
from math import lgamma, sqrt

import numpy as np
import pytest

from shallowboson.dyck import catalan_dyck_spec
from shallowboson.fock import enumerate_basis
import shallowboson.interferometer as interferometer
from shallowboson.interferometer import (
    CircuitSpec, QuantumState, TwoModeGate, apply_gate, build_reck_slices,
    evolve, evolve_batch, reck_input,
    schwinger_expectation, single_particle_transfer, support, two_mode_block,
    two_mode_block_column, two_mode_transfer,
)
from shallowboson.young import catalan_basis


def hom_oracle(theta):
    """Direct two-photon amplitudes for |1,1> through one beam splitter.

    Expanding (c a + s b)(-s a + c b)|00> with c = cos(theta/2),
    s = sin(theta/2) gives the three output amplitudes explicitly.
    """
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return {
        (2, 0): -c * s * sqrt(2),
        (1, 1): c * c - s * s,
        (0, 2): c * s * sqrt(2),
    }


def probability(state, pattern):
    return state.probabilities()[state.basis.index(pattern)]


def test_hom_suppression():
    circ = CircuitSpec(2, 1, [TwoModeGate(0, 1)], (1, 1))
    state = evolve(circ, [np.pi / 2])
    assert probability(state, (2, 0)) == pytest.approx(0.5, abs=1e-12)
    assert probability(state, (0, 2)) == pytest.approx(0.5, abs=1e-12)
    assert probability(state, (1, 1)) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("theta", [0.3, 1.1, np.pi / 2, 2.7])
def test_two_photon_block_against_expansion_oracle(theta):
    oracle = hom_oracle(theta)
    circ = CircuitSpec(2, 1, [TwoModeGate(0, 1)], (1, 1))
    state = evolve(circ, [theta])
    for pattern, expected in oracle.items():
        assert state.vector[state.basis.index(pattern)] == pytest.approx(
            expected, abs=1e-12)


def test_identity_gate_keeps_state():
    basis = enumerate_basis(3, 2)
    rng = np.random.default_rng(0)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    vec /= np.linalg.norm(vec)
    state = QuantumState(basis, vec)
    moved = apply_gate(state, TwoModeGate(0, 1, 0.0, 0.0))
    assert np.allclose(np.abs(moved.vector) ** 2, np.abs(vec) ** 2,
                       atol=1e-12)


def test_gate_preserves_norm():
    rng = np.random.default_rng(1)
    basis = enumerate_basis(4, 3)
    vec = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    vec /= np.linalg.norm(vec)
    state = QuantumState(basis, vec)
    for _ in range(20):
        gate = TwoModeGate(*sorted(rng.choice(4, 2, replace=False)),
                           rng.uniform(0, 2 * np.pi),
                           rng.uniform(0, 2 * np.pi))
        state = apply_gate(state, gate)
        assert abs(state.norm() - 1.0) < 1e-12


def test_block_unitarity_all_small_sectors():
    # m <= 70 covers the largest carry of the 70-mode chain sampler
    rng = np.random.default_rng(2)
    for m in range(0, 71):
        theta, psi = rng.uniform(0, 2 * np.pi, 2)
        block = two_mode_block(m, theta, psi)
        gram = block.conj().T @ block
        assert np.max(np.abs(gram - np.eye(m + 1))) < 1e-10
        thetas, _ = rng.uniform(0, 2 * np.pi, (2, 4))
        for p in range(m + 1):
            cols = two_mode_block_column(m, p, thetas)
            assert cols.shape == (4, m + 1)
            assert np.max(np.abs(np.linalg.norm(cols, axis=1) - 1)) < 1e-12


def test_block_column_rows_ignore_the_batch():
    # a row must not depend on how many angles share the call
    rng = np.random.default_rng(5)
    for m in range(0, 71):
        thetas, _ = rng.uniform(0, 2 * np.pi, (2, 40))
        p = int(rng.integers(m + 1))
        batch = two_mode_block_column(m, p, thetas)
        for k in range(0, 40, 13):
            alone = two_mode_block_column(m, p, thetas[k:k + 1])
            assert alone.shape == (1, m + 1)
            assert np.array_equal(alone[0], batch[k])
        assert np.array_equal(
            two_mode_block_column(m, p, thetas[:2]), batch[:2])


def convolution_block_column(m, p, theta, psi):
    """Oracle: column p of the block as a convolution of two expansions.

    The input |p, m-p> becomes (a x + b)^p (c x + d)^(m-p) in the
    conjugated transfer entries; each factor is expanded binomially and
    the product's coefficients are rescaled by the Fock normalisations.
    """
    def expand(coeff_x, coeff_1, power):
        binom = np.ones(power + 1)
        for r in range(1, power + 1):
            binom[r] = binom[r - 1] * (power - r + 1) / r
        r = np.arange(power + 1)
        return binom * coeff_x**r * coeff_1**(power - r)

    t_conj = two_mode_transfer(theta, psi).conj()
    left = expand(t_conj[0, 0], t_conj[0, 1], p)
    right = expand(t_conj[1, 0], t_conj[1, 1], m - p)
    root_fact = np.exp(0.5 * np.array(
        [lgamma(u + 1) + lgamma(m - u + 1) for u in range(m + 1)]))
    return np.convolve(left, right) * root_fact / root_fact[p]


def test_block_matches_convolution_oracle():
    rng = np.random.default_rng(21)
    for m in range(0, 13):
        thetas, psis = rng.uniform(0, 2 * np.pi, (2, 3))
        blocks = [two_mode_block(m, theta, psi)
                  for theta, psi in zip(thetas, psis)]
        for p in range(m + 1):
            cols = two_mode_block_column(m, p, thetas)
            for k, (theta, psi) in enumerate(zip(thetas, psis)):
                oracle = convolution_block_column(m, p, theta, psi)
                # the phase scales input |p, m-p> by e^{-i psi (p - m/2)}
                phased = cols[k] * np.exp(-1j * psi * (p - m / 2))
                assert np.max(np.abs(blocks[k][:, p] - oracle)) < 1e-12
                assert np.max(np.abs(phased - oracle)) < 1e-12
                assert np.max(np.abs(phased - blocks[k][:, p])) < 1e-14


@pytest.mark.parametrize("top", [0, 1, 2, 5, 8, 11, 15, 20])
def test_block_stack_slices_are_the_blocks(top):
    rng = np.random.default_rng(22 + top)
    for theta, psi in rng.uniform(-2 * np.pi, 2 * np.pi, (4, 2)):
        stack = interferometer._block_stack(top, theta, psi)
        assert stack.shape == (top + 1,) * 3
        for m in range(top + 1):
            block = stack[m, :m + 1, :m + 1]
            assert np.array_equal(block, two_mode_block(m, theta, psi))
            gram = block.conj().T @ block
            assert np.max(np.abs(gram - np.eye(m + 1))) < 1e-12
            assert not stack[m, m + 1:].any()
            assert not stack[m, :, m + 1:].any()


def test_spin_table_totals_do_not_depend_on_top():
    # two_mode_block(m) reads total m of _spin_table(m | 7), and the
    # stacks and depth-1 tables read it from tables of other tops
    def same_bits(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    for top in range(21):
        table = interferometer._spin_table(top)
        for m in range(top + 1):
            part = np.s_[:m + 1, :m + 1, :m + 1]
            small = interferometer._spin_table(m)
            assert same_bits(table[0][part[:2]], small[0])
            assert same_bits(table[1][part], small[1])
            assert same_bits(table[2][part], small[2])
        lams, vecs, adjoints = table
        for m in range(top + 1):
            assert np.array_equal(lams[m, :m + 1], np.arange(m + 1) - m / 2)
            assert not lams[m, m + 1:].any()
            assert not vecs[m, m + 1:].any() and not vecs[m, :, m + 1:].any()
            assert np.array_equal(adjoints[m], vecs[m].conj().T)


def test_a_sweep_over_totals_builds_few_tables():
    # one table serves eight totals, so a sweep over 71 totals stays well
    # inside the 32-entry table cache instead of rebuilding per call
    interferometer._spin_table.cache_clear()
    for _ in range(2):
        for m in range(71):
            two_mode_block(m, 0.3, 0.1)
            two_mode_block_column(m, 0, [0.3])
    assert interferometer._spin_table.cache_info().misses == 9


def test_cached_block_stack_is_read_only():
    stack = interferometer._block_stack(4, 0.3, 1.2)
    assert interferometer._block_stack(4, 0.3, 1.2) is stack
    with pytest.raises(ValueError, match="read-only"):
        stack[2, 0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        stack *= 2


@pytest.mark.parametrize("m,depth", [(5, 2), (8, 2)])
def test_stencil_walk_builds_one_stack_per_angle_pair(monkeypatch, m,
                                                      depth):
    circ = build_reck_slices(m, depth, reck_input(m, m - 1))
    g = len(circ.gates)
    rng = np.random.default_rng(31 + m)
    base = rng.uniform(0, 2 * np.pi, g)
    psis = np.tile(rng.uniform(0, 2 * np.pi, g), (2 * g, 1))
    stencil = np.repeat(base[None, :], 2 * g, axis=0)
    for k in range(g):
        stencil[2 * k, k] += np.pi / 2
        stencil[2 * k + 1, k] -= np.pi / 2
    builds = []
    build = interferometer._block_product

    def counting(lams, vecs, adjoints, theta, psi):
        builds.append((len(lams), theta, psi))
        return build(lams, vecs, adjoints, theta, psi)

    interferometer._block_stack.cache_clear()
    monkeypatch.setattr(interferometer, "_block_product", counting)
    assert len(list(evolve_batch(circ, stencil, psis))) == 2 * g
    # every two-mode pair of the (m, m-1) sector reaches photon total m-1
    wanted = {(m, theta, psi) for row, phases in zip(stencil, psis)
              for theta, psi in zip(row.tolist(), phases.tolist())}
    assert len(wanted) == 3 * g
    assert sorted(builds) == sorted(wanted)


def test_transfer_matrix_is_unitary():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = two_mode_transfer(*rng.uniform(0, 2 * np.pi, 2))
        assert np.allclose(t.conj().T @ t, np.eye(2), atol=1e-14)


def test_non_normalized_state_rejected():
    basis = enumerate_basis(2, 1)
    state = QuantumState(basis, np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(RuntimeError):
        apply_gate(state, TwoModeGate(0, 1, 0.1, 0.0))


@pytest.mark.parametrize("depth,count", [(1, 3), (2, 5), (3, 6)])
def test_mesh_slice_gate_counts(depth, count):
    circuit = build_reck_slices(4, depth)
    assert len(circuit.gates) == count


def spec_error(m, n, depth):
    """The message catalan_dyck_spec refuses (M, n, depth) with."""
    with pytest.raises(ValueError) as info:
        catalan_dyck_spec(m, n, depth)
    return re.escape(str(info.value))


def test_mesh_depth_validation():
    with pytest.raises(ValueError, match=spec_error(4, 4, 0)):
        build_reck_slices(4, 0)
    with pytest.raises(ValueError, match=spec_error(4, 4, 4)):
        build_reck_slices(4, 4)
    with pytest.raises(ValueError, match=spec_error(1, 1, 1)):
        build_reck_slices(1, 1)
    with pytest.raises(ValueError, match="at least 2 modes"):
        build_reck_slices(1, 1)


def test_mesh_input_validation():
    with pytest.raises(ValueError, match="at most one photon per mode"):
        build_reck_slices(4, 1, (2, 1, 1, 0))
    with pytest.raises(ValueError, match=spec_error(4, 2, 1)):
        build_reck_slices(4, 1, (1, 1, 0, 0))
    with pytest.raises(ValueError, match=spec_error(3, 4, 1)):
        build_reck_slices(3, 1, (2, 1, 1))
    with pytest.raises(ValueError, match="input pattern length"):
        build_reck_slices(4, 1, (1, 1, 1))
    # reck_input keeps its own refusal of a photon number it cannot build
    with pytest.raises(ValueError, match="supported photon numbers"):
        reck_input(4, 2)
    with pytest.raises(ValueError, match="^photon number must be an int"):
        reck_input(4, 4.0)
    with pytest.raises(ValueError, match="^mode count must be an int"):
        reck_input(4.0, 4)


def test_all_theta_zero_reproduces_input():
    circ = build_reck_slices(5, 2, reck_input(5, 4))
    state = evolve(circ, np.zeros(len(circ.gates)))
    assert probability(state, (1, 1, 1, 1, 0)) == pytest.approx(1.0,
                                                                abs=1e-12)


def test_parameter_count_mismatch():
    circ = build_reck_slices(4, 1)
    with pytest.raises(ValueError):
        evolve(circ, [0.1, 0.2])
    with pytest.raises(ValueError):
        evolve(circ, [0.1, 0.2, 0.3], [0.0])
    # the count check comes before the depth-1 phase warning
    with pytest.raises(ValueError):
        evolve(circ, [0.1, 0.2], [0.3, 0.4])
    for thetas, psis in (([0.1, 0.2], None), ([0.1, 0.2, 0.3], [0.0]),
                         ([0.1] * 4, [0.0] * 4)):
        with pytest.raises(ValueError):
            single_particle_transfer(circ, thetas, psis)


@pytest.mark.parametrize("m,n,depth,size", [
    (4, 4, 1, 28),
    (4, 3, 2, 19),
])
def test_generic_support_sizes(m, n, depth, size):
    rng = np.random.default_rng(4)
    circ = build_reck_slices(m, depth, reck_input(m, n))
    sizes = set()
    for _ in range(3):
        thetas = rng.uniform(0.1, np.pi - 0.1, len(circ.gates))
        sizes.add(len(support(evolve(circ, thetas))))
    assert sizes == {size}


def test_support_matches_path_enumeration():
    rng = np.random.default_rng(5)
    for m in range(2, 6):
        for n in (m, m - 1):
            if n == 0:
                continue
            for depth in range(1, m):
                circ = build_reck_slices(m, depth, reck_input(m, n))
                thetas = rng.uniform(0.1, np.pi - 0.1, len(circ.gates))
                reached = support(evolve(circ, thetas))
                assert reached.dtype == np.uint16
                assert np.array_equal(reached, catalan_basis(m, n, depth))


@pytest.mark.filterwarnings("ignore:phase angles on a depth-1")
def test_distribution_sums_to_one():
    rng = np.random.default_rng(6)
    for _ in range(25):
        m = int(rng.integers(2, 6))
        depth = int(rng.integers(1, m))
        circ = build_reck_slices(m, depth)
        thetas = rng.uniform(0, 2 * np.pi, len(circ.gates))
        psis = rng.uniform(0, 2 * np.pi, len(circ.gates))
        probs = evolve(circ, thetas, psis).probabilities()
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((0.0 <= probs) & (probs <= 1.0 + 1e-12))


def test_probabilities_refuse_an_unnormalized_state():
    basis = enumerate_basis(3, 2)
    state = QuantumState(basis, np.full(len(basis), 1.1 / np.sqrt(len(basis)),
                                        dtype=complex))
    with pytest.raises(RuntimeError, match="norm 1.100e\\+00"):
        state.probabilities()
    with pytest.raises(RuntimeError, match="norm"):
        support(state)


def test_nan_state_is_refused():
    # abs(nan - 1) > tol is False: a NaN norm must fail the check
    basis = enumerate_basis(3, 2)
    state = QuantumState(basis, np.full(len(basis), np.nan, dtype=complex))
    with pytest.raises(RuntimeError, match="norm nan"):
        state.probabilities()
    with pytest.raises(RuntimeError, match="norm nan"):
        apply_gate(state, TwoModeGate(0, 1, 0.1, 0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_angles_are_refused(bad):
    circ = build_reck_slices(4, 2)
    g = len(circ.gates)
    good = np.full(g, 0.4)
    broken = good.copy()
    broken[2] = bad
    with pytest.raises(ValueError, match="theta angles must be finite"):
        evolve(circ, broken)
    with pytest.raises(ValueError, match="psi angles must be finite"):
        evolve(circ, good, broken)
    with pytest.raises(ValueError, match="theta angles must be finite"):
        list(evolve_batch(circ, [good, broken]))
    with pytest.raises(ValueError, match="theta angles must be finite"):
        single_particle_transfer(circ, broken)
    with pytest.raises(ValueError, match="psi angles must be finite"):
        schwinger_expectation(circ, good, np.eye(4), broken)
    for theta, psi in ((bad, 0.0), (0.0, bad)):
        with pytest.raises(ValueError, match="gate angles must be finite"):
            TwoModeGate(0, 1, theta, psi)


def fock_space_expectation(state, coeffs):
    """Oracle: expectation of sum o_ij a_i^dag a_j by explicit ladder action."""
    m = state.basis.num_modes
    amps = dict(zip(map(tuple, state.basis.patterns.tolist()),
                    state.vector.tolist()))
    value = 0j
    for i in range(m):
        for j in range(m):
            for pattern, amp in amps.items():
                if i == j:
                    value += coeffs[i, j] * pattern[i] * abs(amp) ** 2
                    continue
                if pattern[j] == 0:
                    continue
                lifted = list(pattern)
                lifted[j] -= 1
                lifted[i] += 1
                partner = amps.get(tuple(lifted), 0j)
                value += (coeffs[i, j] * np.conj(partner)
                          * sqrt(pattern[j] * (pattern[i] + 1)) * amp)
    return float(np.real(value))


def test_bilinear_expectation_identity_and_diagonal():
    circ = build_reck_slices(4, 2, reck_input(4, 3))
    rng = np.random.default_rng(7)
    thetas = rng.uniform(0, 2 * np.pi, len(circ.gates))
    assert schwinger_expectation(circ, thetas, np.eye(4)) == pytest.approx(
        3.0, abs=1e-12)
    diag = np.diag([0.3, -0.4, 1.1, 0.2])
    zero = np.zeros(len(circ.gates))
    assert schwinger_expectation(circ, zero, diag) == pytest.approx(
        0.3 - 0.4 + 1.1, abs=1e-12)


@pytest.mark.filterwarnings("ignore:phase angles on a depth-1")
def test_bilinear_expectation_matches_fock_oracle():
    rng = np.random.default_rng(8)
    for m, n, depth in [(3, 3, 1), (4, 3, 2), (4, 4, 3), (5, 4, 2)]:
        circ = build_reck_slices(m, depth, reck_input(m, n))
        thetas = rng.uniform(0, 2 * np.pi, len(circ.gates))
        psis = rng.uniform(0, 2 * np.pi, len(circ.gates))
        raw = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        herm = (raw + raw.conj().T) / 2
        fast = schwinger_expectation(circ, thetas, herm, psis)
        oracle = fock_space_expectation(evolve(circ, thetas, psis), herm)
        assert fast == pytest.approx(oracle, abs=1e-9)


def test_non_hermitian_observable_rejected():
    circ = build_reck_slices(3, 1)
    lopsided = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        schwinger_expectation(circ, np.zeros(2), lopsided)
    with pytest.raises(ValueError):
        schwinger_expectation(circ, np.zeros(2), np.eye(2))
    nan_entry = np.eye(3)
    nan_entry[0, 1] = np.nan
    with pytest.raises(ValueError, match="Hermitian"):
        schwinger_expectation(circ, np.zeros(2), nan_entry)


def test_depth1_phase_binding_flagged_and_inert():
    circ = build_reck_slices(4, 1)
    thetas = [0.4, 1.0, 2.1]
    with pytest.warns(UserWarning, match="depth-1"):
        with_phases = evolve(circ, thetas, [0.3, 1.2, 2.5]).probabilities()
    without = evolve(circ, thetas).probabilities()
    assert np.allclose(with_phases, without, rtol=0.0, atol=1e-12)


def test_single_particle_transfer_unitary():
    rng = np.random.default_rng(9)
    circ = build_reck_slices(5, 3)
    thetas = rng.uniform(0, 2 * np.pi, len(circ.gates))
    psis = rng.uniform(0, 2 * np.pi, len(circ.gates))
    v = single_particle_transfer(circ, thetas, psis)
    assert np.allclose(v.conj().T @ v, np.eye(5), atol=1e-12)


def loop_apply_gate(state, gate):
    """Oracle: one `two_mode_block` per photon total, built on every call."""
    order, m_values, starts, stops = interferometer._gate_orbits(
        *state.sector, gate.i, gate.j)
    new_vec = np.empty_like(state.vector)
    for m, s, e in zip(m_values, starts, stops):
        seg = order[s:e]
        block = two_mode_block(m, gate.theta, gate.psi)
        amps = state.vector[seg].reshape(-1, m + 1)
        new_vec[seg] = (amps @ block.T).ravel()
    return QuantumState(state.basis, new_vec)


def loop_evolve(circ, thetas, psis):
    """Oracle: the circuit's gates through `loop_apply_gate` in order."""
    basis = enumerate_basis(circ.num_modes, circ.num_photons)
    state = QuantumState.from_pattern(basis, circ.input)
    for gate, theta, psi in zip(circ.gates, thetas, psis):
        state = loop_apply_gate(state, TwoModeGate(gate.i, gate.j, theta,
                                                   psi))
    return state.vector


@pytest.mark.filterwarnings("ignore:phase angles on a depth-1")
@pytest.mark.parametrize("m,depth", [
    (m, depth) for m in range(4, 10) for depth in range(1, 4)])
@pytest.mark.parametrize("sector", [0, 1])
def test_stacked_blocks_evolve_like_the_block_loop(m, depth, sector):
    circ = build_reck_slices(m, depth, reck_input(m, m - sector))
    g = len(circ.gates)
    rng = np.random.default_rng(1000 * m + 10 * depth + sector)
    thetas, psis = rng.uniform(-2 * np.pi, 2 * np.pi, (2, 3, g))
    thetas[1, : g // 2] = thetas[0, : g // 2]  # a shared prefix
    psis[1, : g // 2] = psis[0, : g // 2]
    oracles = [loop_evolve(circ, t, p) for t, p in zip(thetas, psis)]
    for t, p, oracle in zip(thetas, psis, oracles):
        assert np.array_equal(evolve(circ, t, p).vector, oracle)
    for r, state in evolve_batch(circ, thetas, psis):
        assert np.array_equal(state.vector, oracles[r])


def _prefix_sharing_rows(rng, num_rows, num_gates):
    """Random angle rows whose prefixes (or whole rows) repeat earlier ones."""
    thetas = rng.uniform(0, 2 * np.pi, (num_rows, num_gates))
    psis = rng.uniform(0, 2 * np.pi, (num_rows, num_gates))
    for r in range(1, num_rows):
        src = rng.integers(r)
        k = rng.integers(num_gates + 1)
        thetas[r, :k] = thetas[src, :k]
        psis[r, :k] = psis[src, :k]
        if rng.random() < 0.3:  # same theta, different phase at gate k
            thetas[r, k:k + 1] = thetas[src, k:k + 1]
    return thetas, psis


@pytest.mark.filterwarnings("ignore:phase angles on a depth-1")
@pytest.mark.parametrize("m,depth", [
    (m, depth) for m in range(3, 7) for depth in range(1, min(3, m - 1) + 1)])
@pytest.mark.parametrize("sector", [0, 1])
def test_evolve_batch_matches_evolve_row_by_row(m, depth, sector):
    circ = build_reck_slices(m, depth, reck_input(m, m - sector))
    rng = np.random.default_rng(100 * m + 10 * depth + sector)
    thetas, psis = _prefix_sharing_rows(rng, 9, len(circ.gates))
    for phases in (None, psis):
        seen = []
        for r, state in evolve_batch(circ, thetas, phases):
            seen.append(r)
            alone = evolve(circ, thetas[r],
                           None if phases is None else phases[r])
            assert np.array_equal(state.vector, alone.vector)
        assert sorted(seen) == list(range(len(thetas)))


def test_evolve_batch_shares_stencil_prefixes(monkeypatch):
    circ = build_reck_slices(5, 2, reck_input(5, 4))
    g = len(circ.gates)
    base = np.random.default_rng(7).uniform(0, 2 * np.pi, g)
    stencil = np.repeat(base[None, :], 2 * g, axis=0)
    for k in range(g):
        stencil[2 * k, k] += np.pi / 2
        stencil[2 * k + 1, k] -= np.pi / 2
    calls = []
    kernel = interferometer._gate_kernel

    def counting(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(interferometer, "_gate_kernel", counting)
    rows = [r for r, _ in evolve_batch(circ, stencil)]
    assert sorted(rows) == list(range(2 * g))
    assert len(calls) == (g - 1) + g * (g + 1)  # 2g * g row by row


def test_evolve_batch_rejects_mismatched_rows():
    circ = build_reck_slices(4, 1)
    with pytest.raises(ValueError):
        list(evolve_batch(circ, np.zeros((2, 2))))
    with pytest.raises(ValueError):
        list(evolve_batch(circ, np.zeros((2, 3)), np.zeros((1, 3))))
    assert list(evolve_batch(circ, np.zeros((0, 3)))) == []


def live_plan(circ):
    return interferometer._live_plan(
        circ.input, tuple((gate.i, gate.j) for gate in circ.gates))


def orbit_rows(orbits, m):
    """The rows of sector indices of total m's orbits, one orbit a row."""
    order, m_values, starts, stops = orbits
    if m not in m_values:
        return order[:0].reshape(0, m + 1)
    t = m_values.index(m)
    return order[starts[t]:stops[t]].reshape(-1, m + 1)


@pytest.mark.parametrize("m", range(3, 9))
@pytest.mark.parametrize("sector", [0, 1])
def test_live_plan_follows_the_support_to_the_catalan_basis(m, sector):
    n = m - sector
    basis = enumerate_basis(m, n)
    for depth in range(1, m):
        circ = build_reck_slices(m, depth, reck_input(m, n))
        alive = np.zeros(basis.size, dtype=bool)
        alive[basis.index(circ.input)] = True
        for gate, orbits in zip(circ.gates, live_plan(circ)):
            dense = interferometer._gate_orbits(m, n, gate.i, gate.j)
            assert orbits[0].flags.writeable is False
            for total in dense[1]:
                rows = orbit_rows(dense, total)
                live = alive[rows].any(axis=1)
                kept = orbit_rows(orbits, total)
                # every orbit that meets the support, and beside a lone
                # one of several a zero orbit
                want = 2 if live.sum() == 1 < len(rows) else live.sum()
                assert len(kept) == want
                assert set(map(tuple, rows[live].tolist())) <= set(
                    map(tuple, kept.tolist()))
                assert set(map(tuple, kept.tolist())) <= set(
                    map(tuple, rows.tolist()))
            for total in dense[1]:
                rows = orbit_rows(dense, total)
                alive[rows[alive[rows].any(axis=1)]] = True
        reached = set(map(tuple, basis.patterns[alive].tolist()))
        assert reached == set(map(tuple, catalan_basis(m, n, depth).tolist()))


@pytest.mark.filterwarnings("ignore:phase angles on a depth-1")
@pytest.mark.parametrize("m,depth", [
    (m, depth) for m in range(3, 8) for depth in range(1, min(3, m - 1) + 1)])
@pytest.mark.parametrize("sector", [0, 1])
def test_live_plan_states_equal_the_dense_ones_at_zero_and_pi(m, depth,
                                                              sector):
    # angles of 0 and pi leave exact zeros inside live orbits and move
    # whole orbits at once: the plan must hold every amplitude they reach
    circ = build_reck_slices(m, depth, reck_input(m, m - sector))
    g = len(circ.gates)
    rng = np.random.default_rng(10 * m + depth + 100 * sector)
    thetas = rng.choice([0.0, np.pi], (6, g))
    thetas[3:] = np.where(rng.random((3, g)) < 0.5, thetas[3:],
                          rng.uniform(0, 2 * np.pi, (3, g)))
    psis = rng.uniform(0, 2 * np.pi, (6, g))
    basis = enumerate_basis(m, m - sector)
    for r, state in evolve_batch(circ, thetas, psis):
        dense = QuantumState.from_pattern(basis, circ.input)
        for gate, theta, psi in zip(circ.gates, thetas[r], psis[r]):
            dense = apply_gate(dense, TwoModeGate(gate.i, gate.j, theta, psi))
        assert np.array_equal(state.vector, dense.vector)


def test_a_lone_live_orbit_keeps_a_zero_orbit_beside_it():
    # the depth-1 mesh on (1, 1, 1, 0): after gate (2, 3) the support is
    # (1, 1, 1, 0) and (1, 1, 0, 1), so gate (1, 2) meets one of the three
    # orbits of total 1, {(1, 1, 0, 1), (1, 0, 1, 1)}
    circ = build_reck_slices(4, 1, reck_input(4, 3))
    basis = enumerate_basis(4, 3)
    lone = {basis.index((1, 1, 0, 1)), basis.index((1, 0, 1, 1))}
    dense = orbit_rows(interferometer._gate_orbits(4, 3, 1, 2), 1)
    kept = orbit_rows(live_plan(circ)[1], 1)
    assert len(dense) == 3 and len(kept) == 2
    assert sum(set(row) == lone for row in kept.tolist()) == 1
    # a one-row matmul would round apart from the dense rows
    rng = np.random.default_rng(1)
    thetas, psis = rng.uniform(0, 2 * np.pi, (2, 20, 3))
    for r, state in evolve_batch(circ, thetas, psis):
        oracle = QuantumState.from_pattern(basis, circ.input)
        for gate, theta, psi in zip(circ.gates, thetas[r], psis[r]):
            oracle = apply_gate(oracle, TwoModeGate(gate.i, gate.j, theta,
                                                    psi))
        assert np.array_equal(state.vector, oracle.vector)
