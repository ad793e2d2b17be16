import dataclasses
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import shallowboson.fock as fock
import shallowboson.interferometer as interferometer
import shallowboson.sampling as sampling
import shallowboson.solver as solver
from shallowboson.interferometer import (
    build_reck_slices, evolve, reck_input, schwinger_expectation,
)
from shallowboson.parity import coarse_grain, codes_to_bits, parity_codes
from shallowboson.problems import (
    MobiusProblem, QuboProblem, benchmark_qubo6, benchmark_qubo11,
    run_portfolio, synthetic_portfolio,
)
from shallowboson.sampling import sample_indices, sample_patterns
from shallowboson.solver import (
    ParityObjective, SolverConfig, gradient_step, run_variational,
)
from oracles import finite_difference_gradient


def _toy_problem(m=4, seed=0):
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(m, m))
    return QuboProblem((q + q.T) / 2)


def test_exact_value_ignores_stream_seed():
    obj = ParityObjective(_toy_problem(), 4, 0, 1, samples=None)
    angles = np.linspace(0.3, 1.9, obj.num_parameters)
    assert obj.value(angles, 1) == obj.value(angles, 999)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("samples", [None, 40])
def test_non_finite_angle_is_refused(depth, samples):
    # a NaN angle once gave an exact value of nan with a false best
    # (0.0, all zeros), and a sampled energy of 0.0
    obj = ParityObjective(_toy_problem(6, seed=4), 6, 0, depth, samples)
    angles = np.linspace(0.3, 1.9, obj.num_parameters)
    angles[3] = np.nan
    with pytest.raises(ValueError, match="theta angles must be finite"):
        obj.value(angles, 0)
    with pytest.raises(ValueError, match="theta angles must be finite"):
        obj.shift_gradient(angles, 0)


def test_all_zero_angles_observe_all_ones():
    problem = _toy_problem()
    obj = ParityObjective(problem, 4, 0, 1, samples=None)
    energy, best_e, best_b = obj.value(np.zeros(obj.num_parameters))
    assert best_b == (1, 1, 1, 1)
    expected = problem.energies(np.array([[1, 1, 1, 1]]))[0]
    assert energy == pytest.approx(expected, abs=1e-12)
    assert best_e == pytest.approx(expected, abs=1e-12)


def test_sampled_all_zero_angles_single_bitstring():
    problem = _toy_problem()
    obj = ParityObjective(problem, 4, 0, 1, samples=64)
    energy, best_e, best_b = obj.value(np.zeros(obj.num_parameters), 5)
    assert best_b == (1, 1, 1, 1)
    expected = problem.energies(np.array([[1, 1, 1, 1]]))[0]
    assert energy == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_sampled_converges_to_exact(depth):
    problem = _toy_problem(5, seed=3)
    exact_objective = ParityObjective(problem, 5, 0, depth, samples=None)
    angles = np.linspace(0.4, 2.2, exact_objective.num_parameters)
    exact = exact_objective.value(angles)[0]
    deviations = []
    for n_s in (100, 1000, 10000):
        obj = ParityObjective(problem, 5, 0, depth, samples=n_s)
        sampled = obj.value(angles, 12345)[0]
        deviations.append(abs(sampled - exact))
    assert deviations[2] < deviations[0]
    assert deviations[2] < 0.05


class _RecordingProblem:
    """A problem that keeps every bit array its energies are asked for."""

    def __init__(self, problem):
        self.problem = problem
        self.num_bits = problem.num_bits
        self.seen = []

    def energies(self, bits):
        self.seen.append(np.array(bits))
        return self.problem.energies(bits)


@pytest.mark.parametrize("phases", [False, True])
def test_sampled_depth2_draws_from_code_masses(phases):
    problem = _toy_problem(5, seed=6)
    n_s = 50
    obj = ParityObjective(problem, 4, 1, depth=2, samples=n_s,
                          optimize_phases=phases)
    rows = np.random.default_rng(9).uniform(0, 2 * np.pi,
                                            (4, obj.num_parameters))
    energies, best_e, best_b = obj.value_batch(rows,
                                               np.random.SeedSequence(17))
    code_bits = codes_to_bits(np.arange(32), 5).astype(np.uint16)
    children = np.random.SeedSequence(17).spawn(len(rows))
    g = obj.num_gates
    lowest = []
    for row, child, energy in zip(rows, children, energies):
        state = evolve(obj.circuit, row[:g], row[g:] if phases else None)
        masses = coarse_grain(state.basis.patterns, state.probabilities(), 1)
        drawn = sample_indices(masses, n_s, child)
        expected = sample_patterns(code_bits, masses, n_s, child)
        assert np.array_equal(code_bits[drawn], expected)
        assert energy == problem.energies(expected).mean()
        lowest.append(problem.energies(expected).min())
    assert best_e == min(lowest)
    assert problem.energies(np.array([best_b]))[0] == best_e


def test_sampled_depth2_reads_one_energy_table():
    problem = _RecordingProblem(_toy_problem(5, seed=6))
    obj = ParityObjective(problem, 5, 0, depth=2, samples=30)
    rows = np.random.default_rng(4).uniform(0, 2 * np.pi,
                                            (3, obj.num_parameters))
    obj.value_batch(rows, 1)
    (table,) = problem.seen
    assert np.array_equal(table, codes_to_bits(np.arange(32), 5))
    obj.value_batch(rows, 2)
    assert len(problem.seen) == 1


def test_sampled_depth2_batch_matches_rows_alone():
    problem = _toy_problem(5, seed=4)
    obj = ParityObjective(problem, 5, 1, depth=2, samples=40,
                          optimize_phases=True)
    rows = np.random.default_rng(8).uniform(0, 2 * np.pi,
                                            (5, obj.num_parameters))
    energies, best_e, best_b = obj.value_batch(
        rows, np.random.SeedSequence(21))
    alone = []
    for r in range(len(rows)):
        root = np.random.SeedSequence(21)
        root.spawn(r)  # row r of the batch draws from child r
        alone.append(obj.value_batch(rows[r:r + 1], root))
    assert [e[0] for e, _, _ in alone] == energies.tolist()
    first_best = min(range(len(rows)), key=lambda r: alone[r][1])
    assert (best_e, best_b) == alone[first_best][1:]


@pytest.mark.parametrize("evaluate", [
    lambda obj, x, seed: obj.value(x, seed),
    lambda obj, x, seed: obj.shift_gradient(x, seed)[0][1],
    lambda obj, x, seed: finite_difference_gradient(
        obj, x, 1, 1e-3, "central", seed),
    lambda obj, x, seed: finite_difference_gradient(obj, x, 1, 1e-3,
                                                    stream_seed=seed),
], ids=["value", "shift", "central", "forward"])
@pytest.mark.parametrize("depth", [1, 2])
def test_seed_sequence_object_reused_gives_same_draws(evaluate, depth):
    obj = ParityObjective(_toy_problem(), 4, 0, depth, samples=30)
    angles = np.linspace(0.3, 2.0, obj.num_parameters)
    seed = np.random.SeedSequence(5)
    first = evaluate(obj, angles, seed)
    assert evaluate(obj, angles, seed) == first
    assert seed.n_children_spawned == 0
    assert evaluate(obj, angles, 5) == first


@pytest.mark.parametrize("depth,phases", [(1, False), (2, False), (2, True)])
def test_exact_batch_matches_rows_alone(depth, phases):
    problem = _toy_problem(5, seed=6)
    obj = ParityObjective(problem, 4, 1, depth=depth, samples=None,
                          optimize_phases=phases)
    rng = np.random.default_rng(depth)
    base = rng.uniform(0, 2 * np.pi, obj.num_parameters)
    rows = np.repeat(base[None, :], 2 * obj.num_parameters, axis=0)
    for k in range(obj.num_parameters):
        rows[2 * k, k] += np.pi / 2
        rows[2 * k + 1, k] -= np.pi / 2
    # duplicates of stencil rows and unrelated rows ride along
    rows = np.vstack([rows, rows[:3],
                      rng.uniform(0, 2 * np.pi, (3, len(base)))])
    energies, best_e, best_b = obj.value_batch(rows)
    alone = [obj.value(row) for row in rows]
    assert energies.tolist() == [e for e, _, _ in alone]
    first_best = min(range(len(rows)), key=lambda r: alone[r][1])
    assert (best_e, best_b) == alone[first_best][1:]
    g = obj.num_gates
    for row, energy in zip(rows, energies):
        psis = row[g:] if phases else None
        state = evolve(obj.circuit, row[:g], psis)
        masses = coarse_grain(state.basis.patterns, state.probabilities(), 1)
        bits = codes_to_bits(np.arange(len(masses)), obj.num_modes)
        assert energy == pytest.approx(masses @ problem.energies(bits),
                                       abs=1e-12)


def test_exact_iteration_gate_applications(monkeypatch):
    calls = []
    original = interferometer.apply_gate

    def counting(state, gate):
        calls.append(gate)
        return original(state, gate)

    monkeypatch.setattr(interferometer, "apply_gate", counting)
    config = SolverConfig(depth=2, samples=None, eta=0.1, max_iterations=1,
                          master_seed=3)
    result = run_variational(_toy_problem(4, seed=2), config)
    g = 5  # depth-2 mesh on 4 modes
    # per descent: the base row, then the shift stencil's shared base
    # prefix (g - 1) and its 2g branches (g(g + 1), 2g * g row by row)
    assert len(calls) == 4 * (g + (g - 1) + g * (g + 1))
    assert result.evaluation_count == 4 * 2 * g


def test_exact_depth1_builds_no_fock_state(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("exact depth 1 touched the dense engine")

    for module, name in ((fock, "enumerate_basis"),
                         (solver, "enumerate_basis"),
                         (interferometer, "enumerate_basis"),
                         (interferometer, "apply_gate")):
        monkeypatch.setattr(module, name, refuse)
    m = 16
    assert fock.sector_size(m, m) > fock._ENUMERATION_CAP
    problem = _toy_problem(m, seed=9)
    obj = ParityObjective(problem, m, 0, depth=1, samples=None)
    base = np.random.default_rng(16).uniform(0, 2 * np.pi, m - 1)
    rows = np.repeat(base[None, :], 2 * (m - 1) + 1, axis=0)
    for k in range(m - 1):
        rows[2 * k + 1, k] += np.pi / 2
        rows[2 * k + 2, k] -= np.pi / 2
    energies, best_e, best_b = obj.value_batch(rows)
    assert np.all(np.isfinite(energies)) and len(best_b) == m
    assert best_e == problem.energies(np.array([best_b]))[0]
    assert best_e <= energies.min() + 1e-9
    # the same rows through a different chunking of the batch
    assert obj.value_batch(rows[1:3])[0].tolist() == energies[1:3].tolist()


@pytest.mark.parametrize("depth", [1, 2])
def test_exact_read_out_is_one_loop_over_rows(monkeypatch, depth):
    m = 5
    obj = ParityObjective(_toy_problem(m, seed=4), m, 0, depth=depth)
    rows = np.random.default_rng(8).uniform(0, 2 * np.pi,
                                            (7, obj.num_parameters))
    walks = []
    original = solver.evolve_batch

    def counting(*args):
        walks.append(args)
        return original(*args)

    monkeypatch.setattr(solver, "evolve_batch", counting)
    whole = obj.value_batch(rows)
    assert len(walks) == (depth > 1)  # a whole stencil in one walk
    # every row of the batch equals that row alone, bit for bit, and the
    # best is the lowest of theirs, the first row on ties
    alone = [obj.value_batch(row) for row in rows]
    assert whole[0].tolist() == [energies[0] for energies, _, _ in alone]
    assert whole[1:] == min((seen[1:] for seen in alone),
                            key=lambda seen: seen[0])


def test_refused_depth1_mesh_builds_no_energy_table():
    obj = ParityObjective(_toy_problem(21, seed=1), 20, 0, depth=1)
    misses = solver._code_energies.cache_info().misses
    with pytest.raises(ValueError, match="refusing"):
        obj.value_batch(np.zeros((1, obj.num_parameters)))
    with pytest.raises(ValueError, match="refusing"):
        obj.value(np.zeros(obj.num_parameters))
    with pytest.raises(ValueError, match="refusing"):
        obj.shift_gradient(np.zeros(obj.num_parameters))
    assert solver._code_energies.cache_info().misses == misses


# optimize_phases=True is refused at depth 1 (test_depth1_phases_are_refused)
@pytest.mark.parametrize("phases", [False])
def test_exact_depth1_stencil_reduces_the_shifted_rows(monkeypatch, phases):
    reduced = []
    original = ParityObjective._score_masses

    def recording(self, rows, num_rows, stream_seed=None):
        def copied():
            for r, masses in rows:
                reduced.append((r, masses.copy()))
                yield r, masses
        return original(self, copied(), num_rows, stream_seed)

    monkeypatch.setattr(ParityObjective, "_score_masses", recording)
    rng = np.random.default_rng(61)
    for m in (3, 5, 8):
        for n, parity in itertools.product((m, m - 1), (0, 1)):
            obj = ParityObjective(_toy_problem(m, seed=m), n, parity, 1,
                                  optimize_phases=phases)
            p, gates = obj.num_parameters, obj.num_gates
            angles = rng.uniform(0, 2 * np.pi, p)
            rows = angles + np.kron(np.eye(p), [[np.pi / 2], [-np.pi / 2]])
            shifted = sampling.depth1_parity_masses(obj.circuit, rows,
                                                    parity)
            reduced.clear()
            obj.shift_gradient(angles)
            # one row at a time, gate by gate from the last gate, each
            # gate's raised row first
            assert [r for r, _ in reduced] == [
                2 * g + s for g in range(gates - 1, -1, -1) for s in (0, 1)]
            for r, masses in reduced:
                assert masses.shape == (2 ** m,)
                assert np.abs(masses - shifted[r]).max() < 1e-14


def test_exact_depth1_rows_do_not_depend_on_the_batch():
    # once a row holds 2^14 masses, a reduction over a whole batch of rows
    # moved each row's energy in its last bits
    m = 14
    obj = ParityObjective(_toy_problem(m, seed=3), m, 0, 1)
    rows = np.random.default_rng(14).uniform(0, 2 * np.pi,
                                             (6, obj.num_parameters))
    energies = obj.value_batch(rows)[0].tolist()
    assert energies == [obj.value_batch(row)[0][0] for row in rows]
    assert energies == [obj.value(row)[0] for row in rows]


def test_exact_depth1_batch_memory_bound():
    # a batch of rows holds one row's pass at a time
    m = n = 14
    obj = ParityObjective(_toy_problem(m, seed=3), n, 0, 1)
    rows = np.random.default_rng(71).uniform(0, 2 * np.pi,
                                             (4, obj.num_parameters))
    first = obj.value_batch(rows)  # fill the energy table and caches
    tracemalloc.start()
    try:
        again = obj.value_batch(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again[0].tolist() == first[0].tolist() and again[1:] == first[1:]
    assert peak <= 16 * (n + 1) * 2 ** m  # the documented per-row budget


def test_exact_depth1_stencil_reads_the_angles_of_its_call():
    # the stencil `value` keeps once read the caller's array when
    # `shift_gradient` ran it, after the caller had changed it
    problem = QuboProblem(benchmark_qubo6())
    obj = ParityObjective(problem, 6, 0, 1)
    angles = np.random.default_rng(29).uniform(0, 2 * np.pi,
                                               obj.num_parameters)
    saved = angles.copy()
    obj.value(angles)
    angles[:] = 0.9
    kept = obj.shift_gradient(saved)
    fresh = ParityObjective(problem, 6, 0, 1).shift_gradient(saved)
    assert kept[0].tolist() == fresh[0].tolist() and kept[1:] == fresh[1:]


def test_exact_depth1_stencil_memory_bound():
    m = n = 16
    obj = ParityObjective(_toy_problem(m, seed=3), n, 0, 1)
    angles = np.random.default_rng(67).uniform(0, 2 * np.pi,
                                               obj.num_parameters)
    first = obj.shift_gradient(angles)  # fill the energy table and caches
    tracemalloc.start()
    try:
        again = obj.shift_gradient(angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again[0].tolist() == first[0].tolist() and again[1:] == first[1:]
    assert peak <= 16 * (n + 1) * 2 ** m  # the documented per-row budget


def test_exact_depth1_value_then_stencil_memory_bound():
    # the pass an evaluation holds, and the stencil that reuses it, stay
    # within the same per-row budget
    m = n = 16
    obj = ParityObjective(_toy_problem(m, seed=3), n, 0, 1)
    angles = np.random.default_rng(67).uniform(0, 2 * np.pi,
                                               obj.num_parameters)
    # fill the energy table and caches
    first = obj.evaluate(angles).gradient()
    tracemalloc.start()
    try:
        again = obj.evaluate(angles).gradient()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again[0].tolist() == first[0].tolist() and again[1:] == first[1:]
    assert peak <= 16 * (n + 1) * 2 ** m


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("samples", [None, 40])
def test_value_takes_one_parameter_vector(depth, samples):
    # a 2-D array once gave row 0's energy but the best over both rows
    obj = ParityObjective(_toy_problem(5, seed=18), 5, 0, depth, samples)
    angles = np.linspace(0.2, 2.9, obj.num_parameters)
    for bad in (np.vstack([angles, angles + 1.0]), angles[:-1],
                np.append(angles, 0.0)):
        with pytest.raises(ValueError) as value:
            obj.value(bad, 0)
        with pytest.raises(ValueError) as stencil:
            obj.shift_gradient(bad, 0)
        assert str(value.value) == str(stencil.value) == (
            f"expected {obj.num_parameters} parameters, got shape "
            f"{bad.shape}")


def _recording_tables(monkeypatch):
    """Angle counts of every `gate_outcome_table` call, and of every
    forward sweep started."""
    calls = {"angles": [], "forward": 0}
    table, forward = sampling.gate_outcome_table, sampling._forward_masses

    def tables(fresh, totals, thetas):
        calls["angles"].append(len(thetas))
        return table(fresh, totals, thetas)

    def sweep(*args):
        calls["forward"] += 1
        return forward(*args)

    monkeypatch.setattr(sampling, "gate_outcome_table", tables)
    monkeypatch.setattr(sampling, "_forward_masses", sweep)
    return calls


# optimize_phases=True is refused at depth 1 (test_depth1_phases_are_refused)
@pytest.mark.parametrize("phases", [False])
def test_exact_depth1_stencil_reuses_the_pass_of_value(monkeypatch, phases):
    rng = np.random.default_rng(71)
    for m in (3, 6, 9):
        for n, parity in itertools.product((m, m - 1), (0, 1)):
            problem = _toy_problem(m, seed=m)
            obj = ParityObjective(problem, n, parity, 1,
                                  optimize_phases=phases)
            angles = rng.uniform(0, 2 * np.pi, obj.num_parameters)
            fresh = ParityObjective(problem, n, parity, 1,
                                    optimize_phases=phases)
            calls = _recording_tables(monkeypatch)
            expected = fresh.shift_gradient(angles)
            monkeypatch.undo()
            # a stencil with no evaluation runs the base row's pass first
            assert sum(calls["angles"]) == 3 * obj.num_gates
            assert calls["forward"] == 1
            evaluation = obj.evaluate(angles)
            calls = _recording_tables(monkeypatch)
            got = evaluation.gradient()
            monkeypatch.undo()
            assert got[0].tolist() == expected[0].tolist()
            assert got[1:] == expected[1:]
            # the shifted rows' tables only, and no forward sweep: the
            # stencil the evaluation holds runs only its backward sweep
            assert sum(calls["angles"]) == 2 * obj.num_gates
            assert calls["forward"] == 0
            with pytest.raises(RuntimeError, match="already run"):
                evaluation.gradient()  # used once, then dropped
            again = obj.shift_gradient(angles)
            assert again[0].tolist() == expected[0].tolist()


def test_exact_depth1_stored_pass_is_keyed_by_the_angle_bytes():
    problem = _toy_problem(7, seed=5)
    obj = ParityObjective(problem, 6, 1, 1)
    angles = np.random.default_rng(73).uniform(0, 2 * np.pi,
                                               obj.num_parameters)
    obj.value(angles)
    angles[2] += 0.25  # in place: the same object, other bytes
    got = obj.shift_gradient(angles)
    expected = ParityObjective(problem, 6, 1, 1).shift_gradient(angles)
    assert got[0].tolist() == expected[0].tolist()
    assert got[1:] == expected[1:]
    # another objective's pass is never read
    other = ParityObjective(problem, 7, 1, 1)
    obj.value(angles)
    other.value(angles + 0.5)
    assert obj.shift_gradient(angles)[0].tolist() == expected[0].tolist()


@pytest.mark.parametrize("depth", [1, 2])
def test_energy_table_is_built_once_per_problem(depth):
    problem = _RecordingProblem(_toy_problem(4, seed=19))
    config = SolverConfig(depth=depth, max_iterations=2, master_seed=4)
    first = run_variational(problem, config)
    assert len(first.learning_curves) == 4
    assert [len(bits) for bits in problem.seen] == [2 ** 4]
    again = run_variational(problem, config)
    assert [len(bits) for bits in problem.seen] == [2 ** 4]
    assert again.to_json() == first.to_json()
    table = solver._code_energies(problem)
    assert not table.flags.writeable
    assert table.tolist() == problem.problem.energies(
        codes_to_bits(np.arange(16), 4)).tolist()


def test_one_bit_problem_is_refused_by_the_mesh_check():
    with pytest.raises(ValueError, match="at least 2 modes, got 1"):
        run_variational(QuboProblem(np.ones((1, 1))), SolverConfig())


class _QuadraticStub:
    """Deterministic stand-in objective with a known analytic gradient."""

    samples = None

    def __init__(self, slope):
        self.slope = np.asarray(slope, dtype=float)
        self.num_parameters = len(self.slope)

    def value(self, angles, stream_seed=None):
        value = float(self.slope @ np.asarray(angles, dtype=float))
        return value, value, (0,)


def test_finite_difference_on_linear_function():
    stub = _QuadraticStub([2.0, -0.5])
    grad = finite_difference_gradient(stub, np.array([0.3, 0.4]), 0,
                                      epsilon=1e-5)
    assert grad == pytest.approx(2.0, rel=1e-6)
    central = finite_difference_gradient(stub, np.array([0.3, 0.4]), 1,
                                         epsilon=1e-5, scheme="central")
    assert central == pytest.approx(-0.5, rel=1e-6)


def test_finite_difference_constant_objective():
    stub = _QuadraticStub([0.0, 0.0])
    assert finite_difference_gradient(stub, np.zeros(2), 0) == 0.0


def test_finite_difference_epsilon_sweep_converges():
    problem = _toy_problem()
    obj = ParityObjective(problem, 4, 0, 1, samples=None)
    angles = np.linspace(0.5, 1.5, obj.num_parameters)
    reference = finite_difference_gradient(obj, angles, 1, epsilon=1e-7,
                                           scheme="central")
    errors = [abs(finite_difference_gradient(obj, angles, 1, epsilon=eps)
                  - reference)
              for eps in (1e-3, 1e-5)]
    assert errors[1] < errors[0]


def test_shift_rule_matches_analytic_for_bilinear():
    rng = np.random.default_rng(4)
    for m in (3, 4, 5):
        for depth in range(1, m):
            circ = build_reck_slices(m, depth, reck_input(m, m))
            thetas = rng.uniform(0.2, np.pi - 0.2, len(circ.gates))
            raw = rng.normal(size=(m, m))
            herm = (raw + raw.T) / 2
            for idx in range(len(thetas)):
                plus = thetas.copy(); plus[idx] += np.pi / 2
                minus = thetas.copy(); minus[idx] -= np.pi / 2
                shift = (schwinger_expectation(circ, plus, herm)
                         - schwinger_expectation(circ, minus, herm)) / 2
                # dense-grid fit of the single-harmonic form a+b cos+c sin
                grid = np.linspace(0, 2 * np.pi, 12, endpoint=False)
                values = []
                for g in grid:
                    probe = thetas.copy(); probe[idx] = g
                    values.append(schwinger_expectation(circ, probe, herm))
                design = np.column_stack(
                    [np.ones_like(grid), np.cos(grid), np.sin(grid)])
                coeff, residual, *_ = np.linalg.lstsq(
                    design, np.asarray(values), rcond=None)
                if residual.size:
                    assert residual[0] < 1e-16  # confirms the trig form
                analytic = (-coeff[1] * np.sin(thetas[idx])
                            + coeff[2] * np.cos(thetas[idx]))
                assert shift == pytest.approx(analytic, abs=1e-8)


class _FirstBitProblem:
    """Problem whose energy is the first bit of each row."""

    num_bits = 3

    def energies(self, bits):
        return np.asarray(bits, dtype=float)[:, 0]


def test_shift_rule_zero_for_decoupled_parameter():
    # a gate behind the measured support of a disjoint pair cannot move it
    problem = _FirstBitProblem()
    obj = ParityObjective(problem, 3, 0, 2, samples=None)
    angles = np.zeros(obj.num_parameters)
    # parameter 0 couples modes (1, 2); bit 0 stays that of mode 0
    grad = obj.shift_gradient(angles)[0][0]
    assert grad == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("depth,phases", [(1, False), (2, True)])
def test_shift_gradient_is_the_two_point_difference(depth, phases):
    obj = ParityObjective(_toy_problem(5, seed=15), 5, 0, depth,
                          optimize_phases=phases)
    angles = np.random.default_rng(depth).uniform(0, 2 * np.pi,
                                                  obj.num_parameters)
    grad, best_e, best_b = obj.shift_gradient(angles)
    values, expected = [], []
    for k in range(obj.num_parameters):
        step = np.zeros(obj.num_parameters)
        step[k] = np.pi / 2
        plus, minus = obj.value(angles + step), obj.value(angles - step)
        expected.append((plus[0] - minus[0]) / 2)
        values += [plus, minus]
    if depth == 1:  # the stencil sums each row's masses in its own order
        scale = max(1.0, max(abs(v[0]) for v in values))
        assert np.abs(grad - expected).max() <= 1e-12 * scale
    else:
        assert grad.tolist() == expected
    # the best over the stencil, the first row on ties
    assert (best_e, best_b) == min(values, key=lambda v: v[1])[1:]
    for bad in (angles[:-1], np.append(angles, 0.0), angles[None, :]):
        with pytest.raises(ValueError, match="parameters"):
            obj.shift_gradient(bad)


@pytest.mark.parametrize("samples", [None, 30])
@pytest.mark.parametrize("depth,phases", [(1, False), (2, True)])
def test_evaluation_is_value_then_shift_gradient(samples, depth, phases):
    # with the same seeds, one step's evaluation scores its row and then
    # its stencil as the two public calls do, in every engine
    obj = ParityObjective(_toy_problem(5, seed=23), 5, 1, depth, samples,
                          optimize_phases=phases)
    angles = np.random.default_rng(23).uniform(0, 2 * np.pi,
                                               obj.num_parameters)
    saved = angles.copy()
    evaluation = obj.evaluate(angles, 41)
    assert type(evaluation.energy) is float
    assert (evaluation.energy, *evaluation.best) == obj.value(saved, 41)
    angles[:] = 0.9  # the evaluation reads the angles of its call
    got = evaluation.gradient(42)
    expected = obj.shift_gradient(saved, 42)
    assert got[0].tolist() == expected[0].tolist() and got[1:] == expected[1:]
    with pytest.raises(RuntimeError, match="already run"):
        evaluation.gradient(42)


@pytest.mark.parametrize("samples", [None, 24])
def test_depth1_phases_are_refused(samples):
    # one slice commutes its phases past the detectors, so an objective
    # refuses phase parameters there as a run's config does
    with pytest.raises(ValueError) as config:
        SolverConfig(depth=1, samples=samples, optimize_phases=True)
    with pytest.raises(ValueError) as objective:
        ParityObjective(_toy_problem(5, seed=16), 4, 1, 1, samples,
                        optimize_phases=True)
    assert str(objective.value) == str(config.value) == (
        "optimize_phases needs depth >= 2, got depth=1")
    deeper = ParityObjective(_toy_problem(5, seed=16), 4, 1, 2, samples,
                             optimize_phases=True)
    assert deeper.num_parameters == 2 * deeper.num_gates


@pytest.mark.parametrize("settings", [
    dict(samples=2.5), dict(samples=True), dict(samples=0),
    dict(depth=2.0), dict(optimize_phases="yes"), dict(parity=2),
    dict(parity=2, depth=1, samples=40),
], ids=lambda settings: "-".join(f"{k}={v}" for k, v in settings.items()))
def test_objective_refuses_bad_settings_before_any_work(monkeypatch,
                                                        settings):
    # each was once refused only by the first row's engine, or not at all
    def refuse(*args, **kwargs):
        raise AssertionError("an engine ran before the settings were checked")

    for name in ("evolve_batch", "depth1_parity_masses",
                 "chain_sample_depth1_batch"):
        monkeypatch.setattr(solver, name, refuse)
    kwargs = dict(parity=0, depth=2, samples=None) | settings
    field = next(iter(settings))
    with pytest.raises(ValueError, match=f"^{field} "):
        ParityObjective(QuboProblem(benchmark_qubo6()), 6, **kwargs)


@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("samples", [None, 10])
def test_value_batch_refuses_zero_rows(depth, samples):
    # an empty batch once leaked numpy's argmin/concatenate errors
    obj = ParityObjective(_toy_problem(5, seed=20), 5, 0, depth, samples)
    with pytest.raises(ValueError, match=r"^need at least one row, got 0$"):
        obj.value_batch(np.empty((0, obj.num_parameters)), 0)


def test_gradient_step_behaviour():
    assert np.allclose(gradient_step([1.0, 2.0], [0.0, 0.0], 0.5),
                       [1.0, 2.0])
    stepped = gradient_step([1.0, 2.0], [1.0, 0.0], 1.0)
    assert stepped[0] == pytest.approx(0.0) and stepped[1] == pytest.approx(2.0)
    wrapped = gradient_step([0.1], [1.0], 1.0)
    assert 0.0 <= wrapped[0] < 2 * np.pi
    with pytest.raises(ValueError):
        gradient_step([0.1], [1.0], -1.0)


@pytest.mark.parametrize("eta", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_gradient_step_refuses_the_etas_the_config_refuses(eta):
    # a NaN or infinite eta once returned [nan nan]
    with pytest.raises(ValueError) as configured:
        SolverConfig(eta=eta)
    with pytest.raises(ValueError) as stepped:
        gradient_step([0.1, 0.2], [1.0, 1.0], eta)
    assert str(stepped.value) == str(configured.value)


@pytest.mark.parametrize("gradient", [[np.nan, 1.0], [1.0, np.inf],
                                      [1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
def test_gradient_step_refuses_a_bad_gradient(gradient):
    # a NaN gradient once gave a NaN angle; one of another length was
    # broadcast or raised numpy's error
    with pytest.raises(ValueError, match=r"^need a finite gradient of "
                                         r"shape \(2,\), got one of shape"):
        gradient_step([0.1, 0.2], gradient, 0.5)


def test_exact_descent_decreases_objective():
    # run trace with the true (central-difference) gradient and small eta
    problem = QuboProblem(benchmark_qubo6())
    obj = ParityObjective(problem, 6, 0, 1, samples=None)
    rng = np.random.default_rng(8)
    angles = rng.uniform(0.3, 1.2, obj.num_parameters)
    energies = [obj.value(angles)[0]]
    for _ in range(10):
        grad = np.array([
            finite_difference_gradient(obj, angles, k, epsilon=1e-6,
                                       scheme="central")
            for k in range(obj.num_parameters)
        ])
        angles = gradient_step(angles, grad, 0.02)
        energies.append(obj.value(angles)[0])
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))
    assert energies[-1] < energies[0]


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(samples=0)
    with pytest.raises(ValueError):
        SolverConfig(eta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iterations=0)
    with pytest.raises(ValueError, match="master_seed"):
        SolverConfig(master_seed=-1)


def test_config_refuses_phases_at_depth1():
    # one slice commutes its phases past the detectors
    with pytest.raises(ValueError, match="optimize_phases.*depth=1"):
        SolverConfig(depth=1, optimize_phases=True)
    assert SolverConfig(depth=2, optimize_phases=True).optimize_phases


# a value of the wrong type for every SolverConfig field
_WRONG_TYPED = {
    "depth": 2.0, "samples": 2.5, "eta": "0.1", "max_iterations": None,
    "plateau_tolerance": "1e-4", "plateau_window": 20.0,
    "master_seed": "7", "optimize_phases": 1, "target_energy": "low",
}
_REAL_FIELDS = ("eta", "plateau_tolerance", "target_energy")


@pytest.mark.parametrize("field", dataclasses.fields(SolverConfig),
                         ids=lambda field: field.name)
def test_config_rejects_wrong_types(field):
    assert set(_WRONG_TYPED) == {
        f.name for f in dataclasses.fields(SolverConfig)}
    bad = [_WRONG_TYPED[field.name], True if field.type != "bool" else 0]
    if field.name in _REAL_FIELDS:
        bad += [np.nan, np.inf, -np.inf, np.float64(np.nan)]
    for value in bad:
        with pytest.raises(ValueError, match=field.name):
            SolverConfig(**{field.name: value})


def test_config_unwraps_numpy_scalars():
    config = SolverConfig(depth=np.int64(2), samples=np.int32(8),
                          eta=np.float32(0.5), optimize_phases=np.bool_(True))
    assert config.to_dict() == SolverConfig(
        depth=2, samples=8, eta=0.5, optimize_phases=True).to_dict()
    assert type(config.depth) is int and type(config.eta) is float
    assert json.dumps(config.to_dict())  # plain JSON, no numpy scalars


def test_run_variational_bookkeeping():
    problem = _toy_problem(4, seed=9)
    n_s = 32
    iters = 4
    config = SolverConfig(depth=1, samples=n_s, eta=0.1, max_iterations=iters,
                          plateau_tolerance=0.0, master_seed=5)
    result = run_variational(problem, config)
    n_params = 3  # depth-1 mesh on 4 modes
    assert result.evaluation_count == 8 * n_params * iters * n_s
    assert set(result.learning_curves) == {
        "n=4,j=0", "n=4,j=1", "n=3,j=0", "n=3,j=1"}
    assert all(len(curve) == iters for curve in
               result.learning_curves.values())


def test_best_energy_dominates_curves():
    problem = _toy_problem(4, seed=10)
    config = SolverConfig(depth=1, samples=64, eta=0.1, max_iterations=6,
                          plateau_tolerance=0.0, master_seed=3)
    result = run_variational(problem, config)
    for curve in result.learning_curves.values():
        assert result.e_min <= curve[-1][1] + 1e-12
    brute = min(problem.energies(
        ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1)))
    assert result.e_min >= brute - 1e-12


def test_plateau_stops_descent():
    problem = _toy_problem(4, seed=11)
    config = SolverConfig(depth=1, samples=None, eta=1e-9,
                          max_iterations=200, plateau_tolerance=1e-6,
                          plateau_window=5, master_seed=0)
    result = run_variational(problem, config)
    assert all(len(c) <= 7 for c in result.learning_curves.values())


def test_replay_determinism():
    problem = _toy_problem(4, seed=12)
    config = SolverConfig(depth=2, samples=48, eta=0.2, max_iterations=5,
                          plateau_tolerance=0.0, master_seed=99)
    first = run_variational(problem, config)
    again = run_variational(problem, SolverConfig(**json.loads(
        json.dumps(first.config))))
    assert first.to_json() == again.to_json()


# SHA-256 of run_variational(QuboProblem(benchmark_qubo6()), config)
# .to_json() for exact runs of (depth, master_seed, max_iterations): a change
# to any exact read-out that moves a result by one bit fails here
REPLAY_DIGESTS = {
    (1, 0, 15): "efde0b031d7c55a0fdfbe2f54502de21"
                "ce97f6d3987f017a8ddc399fe049f47d",
    (1, 1, 15): "65f13e0f5af1e607df6ed1ee3224115"
                "789460e63b1c0df5e835a7993460a0c60",
    (1, 2, 15): "79041b0758c10f1455bc18ba6cdfeca7"
                "8d662c261619d08d0d69fa2e3793d5f4",
    (2, 0, 2): "47a205b498802edf829a75b3cfc3df76"
               "cc17a3d1c90bb5157c3ace01020a0f9c",
}


@pytest.mark.parametrize("depth, seed, iterations", sorted(REPLAY_DIGESTS))
def test_exact_qubo6_replays_byte_for_byte(depth, seed, iterations):
    config = SolverConfig(depth=depth, master_seed=seed,
                          max_iterations=iterations)
    result = run_variational(QuboProblem(benchmark_qubo6()), config)
    digest = hashlib.sha256(result.to_json().encode()).hexdigest()
    assert digest == REPLAY_DIGESTS[depth, seed, iterations]


# The same pins for other runs, by name: (problem, SolverConfig arguments,
# SHA-256 of the result JSON).  The exact 11-bit runs are the benchmark's
# exact-qubo11 unit at seeds 0 and 1; the sampled runs go through the
# chain sampler (depth 1) and the draws over code masses (depth 2).
_QUBO11_UNIT = dict(depth=1, eta=0.15, max_iterations=1, plateau_window=1)
REPLAY_RUNS = {
    "exact-qubo11-seed0": (
        lambda: QuboProblem(benchmark_qubo11()),
        dict(_QUBO11_UNIT, master_seed=0),
        "f954228de65aa41dba92b784112fee114e4776968753a7a9d5441a810a9e577c"),
    "exact-qubo11-seed1": (
        lambda: QuboProblem(benchmark_qubo11()),
        dict(_QUBO11_UNIT, master_seed=1),
        "4575ad342ca4eccf86b636f125c8c7e3c6935697aef5b5f5c4f4086018f9cfc9"),
    "sampled-mobius10-depth1": (
        lambda: MobiusProblem(10, 0.5, -0.2),
        dict(depth=1, samples=150, eta=1.0, max_iterations=3,
             plateau_window=3),
        "38e3770985a8a72cd174ebfaf4ae3f6fb6497ecaa6a6afc9fa1580232c156d5a"),
    # the seed-0 unit of the chain-mobius70 benchmark workload
    "sampled-mobius70-depth1": (
        lambda: MobiusProblem(70, 0.5, -0.2),
        dict(depth=1, samples=150, eta=1.0, max_iterations=1,
             plateau_window=1, master_seed=0),
        "c9eaa11459e402e1e3cbdb6504207c7587fd8cde298450cefdc718514d9bafae"),
    "sampled-portfolio4-depth2": (
        lambda: synthetic_portfolio(4, 0),
        dict(depth=2, samples=300, eta=4.0, max_iterations=3,
             plateau_window=3),
        "93d2e5867e7fceb8c679c1af7f217e3cd2e9e2ada4e935d95562367e7ef3f0c7"),
}


@pytest.mark.parametrize("name", sorted(REPLAY_RUNS))
def test_runs_replay_byte_for_byte(name):
    problem, kwargs, expected = REPLAY_RUNS[name]
    result = run_variational(problem(), SolverConfig(**kwargs))
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == expected


def test_optimize_phases_expands_parameters():
    problem = _toy_problem(4, seed=13)
    obj = ParityObjective(problem, 4, 0, 2, optimize_phases=True)
    assert obj.num_parameters == 2 * len(obj.circuit.gates)
    config = SolverConfig(depth=2, samples=16, eta=0.1, max_iterations=2,
                          plateau_tolerance=0.0, master_seed=1,
                          optimize_phases=True)
    result = run_variational(problem, config)
    assert all(len(v) == 10 for v in result.final_angles.values())


def test_curves_csv_schema(tmp_path):
    problem = _toy_problem(4, seed=14)
    config = SolverConfig(depth=1, samples=16, eta=0.1, max_iterations=3,
                          plateau_tolerance=0.0, master_seed=2)
    result = run_variational(problem, config)
    path = tmp_path / "curves.csv"
    result.write_curves_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "config_tag,iteration,energy,best_energy"
    assert len(lines) == 1 + 4 * 3


def test_sector_codes_are_built_once_per_sector_and_parity():
    # three gammas, four descents each, read the same four code arrays
    solver._sector_codes.cache_clear()
    config = SolverConfig(depth=2, samples=20, max_iterations=2)
    run_portfolio(synthetic_portfolio(4, seed=3), config, [0.5, 1.0, 2.0])
    assert solver._sector_codes.cache_info().misses == 4
    for n in (4, 3):
        patterns = fock.enumerate_basis(4, n).patterns
        for j in (0, 1):
            codes = solver._sector_codes(4, n, j)
            assert not codes.flags.writeable
            assert np.array_equal(codes, parity_codes(patterns, j))
    assert solver._sector_codes.cache_info().misses == 4
    objective = ParityObjective(_toy_problem(), 4, 0, 2, samples=20)
    objective.value(np.zeros(objective.num_parameters), 0)
    sector = len(fock.enumerate_basis(4, 4))
    assert not any(isinstance(v, np.ndarray) and len(v) == sector
                   for v in vars(objective).values())
