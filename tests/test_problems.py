import dataclasses
import re

import numpy as np
import pytest

from shallowboson.interferometer import build_reck_slices
from shallowboson.problems import (
    IsingProblem, MobiusProblem, PortfolioProblem, QuboProblem,
    allocation_risk_return, benchmark_qubo6, benchmark_qubo11,
    binary_encode_weights, brute_force_min, count_unit_sum_allocations,
    mobius_min, portfolio_energy_normalized,
    portfolio_energy_penalty, portfolio_returns_from_prices,
    qubo_to_ising, random_portfolio_cloud, synthetic_portfolio,
)
from shallowboson.sampling import chain_sample_depth1_batch, sample_patterns
from shallowboson.solver import SolverConfig


def all_bit_rows(width):
    codes = np.arange(2**width, dtype=np.int64)
    return (codes[:, None] >> np.arange(width - 1, -1, -1)) & 1


def test_qubo_energy_basics():
    problem = QuboProblem(benchmark_qubo6())
    zero, one = problem.energies(np.array([np.zeros(6), np.ones(6)]))
    assert zero == 0.0
    assert one == pytest.approx(-7.9240876, abs=1e-6)
    with pytest.raises(ValueError):
        problem.energies(np.ones((1, 5)))
    with pytest.raises(ValueError, match="non-finite"):
        QuboProblem(np.array([[1.0, np.nan], [np.nan, 2.0]]))


def test_appendix_matrices_parse_exactly():
    q6 = benchmark_qubo6()
    q11 = benchmark_qubo11()
    assert q6.shape == (6, 6) and q11.shape == (11, 11)
    assert np.array_equal(q6, q6.T)
    assert np.array_equal(q11, q11.T)
    assert q6[0, 0] == -0.1280102
    assert q6[3, 5] == -0.42039925
    assert q11[1, 8] == -0.808
    assert q11[10, 10] == 0.096
    # checksums over the exact published decimals
    assert q6.sum() == pytest.approx(-7.9240876, abs=1e-12)
    assert q11.sum() == pytest.approx(-5.091, abs=1e-12)


def test_appendix_three_lowest_energies():
    problem = QuboProblem(benchmark_qubo6())
    _, _, lowest = brute_force_min(problem, k_lowest=3)
    rounded = [round(e, 2) for e, _ in lowest]
    assert rounded == [-7.92, -7.30, -5.89]
    assert lowest[0][1] == (1, 1, 1, 1, 1, 1)


def test_appendix_11_exhaustive_minimum():
    problem = QuboProblem(benchmark_qubo11())
    e_min, argmin, _ = brute_force_min(problem)
    assert e_min == pytest.approx(-10.041, abs=1e-9)
    assert argmin == (1, 1, 1, 0, 1, 0, 1, 1, 1, 0, 1)


def test_qubo_symmetrized_on_input():
    skew = np.array([[0.0, 1.0], [0.0, 0.0]])
    problem = QuboProblem(skew)
    assert np.allclose(problem.q, [[0.0, 0.5], [0.5, 0.0]])


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 12])
def test_qubo_to_ising_equivalence(dim):
    rng = np.random.default_rng(dim)
    q = rng.normal(size=(dim, dim))
    q = (q + q.T) / 2
    ising = qubo_to_ising(q)
    qubo = QuboProblem(q)
    bits = all_bit_rows(dim)
    assert np.max(np.abs(ising.energies(bits) - qubo.energies(bits))) < 1e-12


def test_qubo_to_ising_one_variable():
    c = 0.7
    ising = qubo_to_ising(np.array([[c]]))
    # both-sides evaluation over x in {0, 1} fixes h = const = c/2
    at_zero, at_one = ising.energies(np.array([[0], [1]]))
    assert at_zero == pytest.approx(0.0, abs=1e-15)
    assert at_one == pytest.approx(c, abs=1e-15)
    assert ising.fields[0] == pytest.approx(c / 2)
    assert ising.constant == pytest.approx(c / 2)


def test_qubo_to_ising_zero_matrix():
    ising = qubo_to_ising(np.zeros((3, 3)))
    assert not ising.couplings.any()
    assert not ising.fields.any() and ising.constant == 0.0


def dict_ising_energies(couplings, fields, constant, bits):
    """Oracle: the energies of a {(i, j): J_ij} dict, matrix built per call."""
    j = np.zeros((len(fields), len(fields)))
    for (a, b), val in couplings.items():
        j[a, b] = val
    s = 2.0 * np.asarray(bits, dtype=float) - 1.0
    return (np.einsum("bi,ij,bj->b", s, j, s)
            + np.einsum("bi,i->b", s, fields) + constant)


def test_ising_energies_match_the_dict_einsum_bitwise():
    rng = np.random.default_rng(41)
    for dim in (2, 5, 9):
        bits = all_bit_rows(dim)
        half = QuboProblem(rng.normal(size=(dim, dim))).q / 2.0
        ising = qubo_to_ising(2.0 * half)
        i, j = np.triu_indices(dim, 1)
        couplings = dict(zip(zip(i.tolist(), j.tolist()),
                             half[i, j].tolist()))
        assert np.array_equal(ising.energies(bits), dict_ising_energies(
            couplings, ising.fields, ising.constant, bits))
        pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
        keep = rng.random(len(pairs)) < 0.5
        couplings = {pair: float(rng.normal())
                     for pair, kept in zip(pairs, keep) if kept}
        fields, constant = rng.normal(size=dim), float(rng.normal())
        ising = IsingProblem(couplings, fields, constant)
        assert np.array_equal(ising.energies(bits), dict_ising_energies(
            couplings, fields, constant, bits))


def test_ising_validation():
    with pytest.raises(ValueError):
        IsingProblem({(1, 0): 1.0}, np.zeros(2))
    problem = IsingProblem({(0, 1): 1.0}, np.zeros(2))
    with pytest.raises(ValueError):
        problem.energies(np.ones((1, 3)))


def test_problems_keep_private_read_only_copies():
    q = np.array([[1.0, 2.0], [2.0, -1.0]])
    problem = QuboProblem(q)
    q[0, 0] = 5.0  # the caller's array, not the problem's
    assert problem.q.tolist() == [[1.0, 2.0], [2.0, -1.0]]
    assert problem.energies(np.eye(2)).tolist() == [1.0, -1.0]
    fields = np.array([0.5, -0.5])
    ising = IsingProblem({(0, 1): 1.0}, fields)
    fields[0] = 9.0
    assert ising.fields.tolist() == [0.5, -0.5]
    for array in (problem.q, ising.fields, ising.couplings):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 0.0


def _one_of_each_problem():
    return [QuboProblem(np.eye(3)),
            IsingProblem({(0, 1): 1.0}, np.zeros(2)),
            MobiusProblem(8, 0.5, -0.2),
            PortfolioProblem(np.array([0.1, 0.2]), np.eye(2))]


def test_problems_compare_and_hash_by_identity():
    # the solver's energy table is keyed on the problem object
    for problem, twin in zip(_one_of_each_problem(), _one_of_each_problem()):
        assert problem == problem and problem != twin
        assert hash(problem) == object.__hash__(problem)
        assert len({problem, twin}) == 2


def test_problems_refuse_assignment():
    for problem in _one_of_each_problem():
        for name in vars(problem):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(problem, name, getattr(problem, name))
    mobius = MobiusProblem(8, 0.5, -0.2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mobius.j_a = 2.0
    assert mobius.j_a == 0.5 and mobius.num_bits == 8


def test_portfolio_keeps_private_read_only_copies():
    mu, sigma = np.array([0.1, 0.2]), np.array([[0.04, 0.01], [0.01, 0.09]])
    problem = PortfolioProblem(mu, sigma)
    before = problem.energies(np.array([[1, 1]]))
    mu[0], sigma[0, 0] = 5.0, 7.0  # the caller's arrays, not the problem's
    assert problem.mu.tolist() == [0.1, 0.2]
    assert problem.sigma.tolist() == [[0.04, 0.01], [0.01, 0.09]]
    assert problem.energies(np.array([[1, 1]])).tolist() == before.tolist()
    for array in (problem.mu, problem.sigma):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0, ...] = 0.0
    again = dataclasses.replace(problem, gamma=2.0)
    assert again.gamma == 2.0 and again.mu.tolist() == [0.1, 0.2]
    assert not np.shares_memory(again.mu, problem.mu)


def test_mobius_hand_sums():
    problem = MobiusProblem(8, 0.5, -0.2)
    assert problem.energies(np.ones((1, 8)))[0] == pytest.approx(-3.2)
    assert MobiusProblem(8, 0.0, 0.0).energies(np.ones((1, 8)))[0] == 0.0
    with pytest.raises(ValueError):
        MobiusProblem(7, 0.5, -0.2)
    with pytest.raises(ValueError):
        MobiusProblem(2, 0.5, -0.2)
    for width in (5, 7):  # 5 columns would broadcast against the rungs
        with pytest.raises(ValueError, match=f"{width}-bit rows for 8"):
            problem.energies(np.ones((1, width)))


def test_mobius_closed_form_values():
    assert mobius_min(MobiusProblem(70, 0.5, -0.2)) == pytest.approx(-40.0)
    assert mobius_min(MobiusProblem(8, 0.5, -0.2)) == pytest.approx(-3.2)
    assert mobius_min(MobiusProblem(8, 1.0, 0.0)) == pytest.approx(-8.0)
    with pytest.raises(ValueError):
        mobius_min(MobiusProblem(8, 0.0, 0.5))
    with pytest.raises(ValueError):
        mobius_min(MobiusProblem(8, -1.0, 0.5))


def test_mobius_domain_wall_configuration():
    # half-up half-down: two ring domain walls, all rungs anti-aligned
    problem = MobiusProblem(70, 0.5, -0.2)
    spins = np.concatenate([np.ones(35), -np.ones(35)])
    bits = ((spins + 1) / 2).astype(np.int64)
    assert problem.energies(bits[None, :])[0] == pytest.approx(-40.0)


def mobius_spin_products(problem, bits):
    """Oracle: the float spin-product sums over s = 2x - 1."""
    s = 2.0 * np.atleast_2d(np.asarray(bits, dtype=float)) - 1.0
    ring = np.sum(s * np.roll(s, -1, axis=1), axis=1)
    half = problem.n // 2
    rungs = np.sum(s[:, :half] * s[:, half:], axis=1)
    return -problem.j_a * ring - problem.j_b * rungs


@pytest.mark.parametrize("n", [4, 70])
def test_mobius_disagreement_counts_match_spin_products(n):
    rng = np.random.default_rng(n)
    bits = rng.integers(0, 2, (2000, n))
    for j_a, j_b in ((0.5, -0.2), (0.1, 0.3), (1.0, -0.5), (0.37, 0.0),
                     (-0.8, 0.25), (-0.3, 0.0)):
        problem = MobiusProblem(n, j_a, j_b)
        assert np.array_equal(problem.energies(bits),
                              mobius_spin_products(problem, bits))


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_mobius_closed_form_matches_exhaustive(n):
    for j_a in (0.1, 0.5, 1.0):
        for j_b in (-0.5, -0.2, 0.0, 0.3):
            problem = MobiusProblem(n, j_a, j_b)
            exhaustive = brute_force_min(problem, 1)[0]
            assert mobius_min(problem) == pytest.approx(exhaustive,
                                                        abs=1e-9)


@pytest.mark.parametrize("problem", [
    QuboProblem(benchmark_qubo6()),
    qubo_to_ising(benchmark_qubo6()),
    MobiusProblem(8, 0.5, -0.2),
    synthetic_portfolio(4, 2, n_bits_per_asset=2, approach="penalty"),
    synthetic_portfolio(4, 2, n_bits_per_asset=2, approach="normalized"),
], ids=["qubo", "ising", "mobius", "portfolio-penalty",
        "portfolio-normalized"])
def test_energies_read_uint8_bit_rows_as_int64_ones(problem):
    # `parity.parity_bits` gives uint8 rows, `codes_to_bits` int64 ones
    bits = all_bit_rows(problem.num_bits)
    wide = problem.energies(bits)
    narrow = problem.energies(bits.astype(np.uint8))
    assert narrow.dtype == wide.dtype
    assert narrow.tobytes() == wide.tobytes()


def test_brute_force_basics():
    problem = QuboProblem(np.array([[-1.0]]))
    e_min, argmin, lowest = brute_force_min(problem)
    assert e_min == -1.0 and argmin == (1,)
    assert lowest == [(-1.0, (1,)), (0.0, (0,))]


@pytest.mark.parametrize("k", [0, -1, -5])
def test_brute_force_refuses_k_below_one(k):
    with pytest.raises(ValueError, match=f"k_lowest must be >= 1, got {k}"):
        brute_force_min(QuboProblem(benchmark_qubo6()), k_lowest=k)


@pytest.mark.parametrize("build, message", [
    (lambda: MobiusProblem(6.0, 0.5, -0.2), "spin count must be an int, "
                                            "got 6.0"),
    (lambda: MobiusProblem(True, 0.5, -0.2), "spin count must be an int, "
                                             "got True"),
    (lambda: synthetic_portfolio(3, 0, n_bits_per_asset=1.5),
     "bits per asset must be an int, got 1.5"),
    (lambda: brute_force_min(QuboProblem(benchmark_qubo6()), 2.5),
     "k_lowest must be an int, got 2.5"),
    (lambda: sample_patterns([[1, 0], [0, 1]], [0.5, 0.5], 2.5, 0),
     "sample count must be an int, got 2.5"),
    (lambda: chain_sample_depth1_batch(build_reck_slices(3, 1),
                                       np.zeros((1, 2)), 4.0, 0),
     "sample count must be an int, got 4.0"),
], ids=["mobius-float", "mobius-bool", "portfolio-bits", "k_lowest",
        "sample_patterns", "chain_sample_depth1_batch"])
def test_non_integer_sizes_are_refused(build, message):
    # a float size once passed the checks and failed later in numpy or a
    # slice with a TypeError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_brute_force_dimension_guard():
    class Wide:
        num_bits = 27

        def energies(self, bits):
            return np.zeros(len(bits))

    with pytest.raises(ValueError, match="26"):
        brute_force_min(Wide())


def test_returns_from_prices_constant_series():
    mu, sigma = portfolio_returns_from_prices(np.full((10, 3), 50.0))
    assert np.allclose(mu, 0.0)
    assert np.allclose(sigma, 0.0)


def test_returns_from_prices_two_day_series():
    mu, sigma = portfolio_returns_from_prices(np.array([[100.0], [110.0]]))
    assert mu[0] == pytest.approx(250.0 * np.log(1.1), rel=1e-12)
    assert sigma[0, 0] == 0.0


def test_returns_from_prices_recovers_moments():
    rng = np.random.default_rng(21)
    days = 120_000
    drift_daily = np.array([0.0004, -0.0002])
    vol_daily = np.array([0.01, 0.02])
    steps = drift_daily + vol_daily * rng.standard_normal((days, 2))
    prices = 100.0 * np.exp(np.cumsum(steps, axis=0))
    mu, sigma = portfolio_returns_from_prices(prices)
    assert np.allclose(mu, drift_daily * 250, atol=250 * 3e-5 * 2)
    assert np.allclose(np.diag(sigma), vol_daily**2 * 250, rtol=0.05)


def test_returns_from_prices_data_errors():
    with pytest.raises(ValueError):
        portfolio_returns_from_prices(np.array([[100.0]]))
    with pytest.raises(ValueError, match="non-positive"):
        portfolio_returns_from_prices(np.array([[100.0], [-1.0]]))
    with pytest.raises(ValueError, match="missing"):
        portfolio_returns_from_prices(np.array([[100.0], [np.nan]]))


def test_binary_encoding():
    assert np.allclose(binary_encode_weights(np.zeros(6, int), 3, 2), 0.0)
    bits = np.array([1, 0, 1, 1])
    assert np.allclose(binary_encode_weights(bits, 1, 4), bits)
    full = np.ones(3, int)
    assert binary_encode_weights(full, 3, 1)[()] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        binary_encode_weights(np.ones(5, int), 3, 2)


def test_binary_encoding_group_values():
    # LSB-first group reading: bits (1, 0, 1) encode 5/7
    omega = binary_encode_weights(np.array([1, 0, 1]), 3, 1)
    assert omega[()] == pytest.approx(5 / 7)


def _example_portfolio(gamma=1.0, approach="normalized"):
    mu = np.array([0.1, 0.2, 0.15])
    sigma = np.diag([0.04, 0.09, 0.01])
    return PortfolioProblem(mu, sigma, gamma=gamma, n_bits_per_asset=1,
                            approach=approach)


def test_penalty_energy_relations():
    problem = _example_portfolio(approach="penalty")
    rng = np.random.default_rng(3)
    plain = lambda w: float(-w @ problem.mu
                            + problem.gamma * w @ problem.sigma @ w)
    unit = np.array([0.2, 0.5, 0.3])
    assert portfolio_energy_penalty(problem, unit) == pytest.approx(
        plain(unit), abs=1e-12)
    zero = np.zeros(3)
    heavy = PortfolioProblem(problem.mu, problem.sigma, gamma=1.0,
                             approach="penalty", penalty_weight=1e3)
    assert portfolio_energy_penalty(heavy, zero) == pytest.approx(1e3)
    for _ in range(10):
        w = rng.uniform(0, 1, 3)
        gap = portfolio_energy_penalty(problem, w) - plain(w)
        assert gap == pytest.approx(
            problem.penalty_weight * (w.sum() - 1) ** 2, rel=1e-12)


def test_normalized_energy_relations():
    problem = _example_portfolio()
    assert portfolio_energy_normalized(problem, np.zeros(3)) == pytest.approx(
        problem.zero_penalty)
    unit = np.array([0.25, 0.5, 0.25])
    plain = float(-unit @ problem.mu + problem.gamma
                  * unit @ problem.sigma @ unit)
    assert portfolio_energy_normalized(problem, unit) == pytest.approx(plain)
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = rng.uniform(0.1, 1, 3)
        for scale in (0.5, 2.0, 17.0):
            assert portfolio_energy_normalized(problem, scale * w) == (
                pytest.approx(portfolio_energy_normalized(problem, w),
                              rel=1e-12))


@pytest.mark.parametrize("approach,energy", [
    ("penalty", portfolio_energy_penalty),
    ("normalized", portfolio_energy_normalized),
])
def test_portfolio_energy_rows(approach, energy):
    # energies() is the row-wise objective of the decoded weights; one
    # weight row gives the same float as that row in a batch
    problem = synthetic_portfolio(5, seed=8, approach=approach,
                                  n_bits_per_asset=2)
    bits = all_bit_rows(problem.num_bits)
    omega = problem.decode(bits)
    rows = energy(problem, omega)
    assert rows.shape == (len(bits),)
    assert np.array_equal(problem.energies(bits), rows)
    for r in (0, 1, 77, len(bits) - 1):
        single = energy(problem, omega[r])
        assert isinstance(single, float) and single == rows[r]


def test_single_asset_invests_fully():
    # one asset admits no mesh (needs two modes); the objective alone
    # already forces full investment over the two candidate strings
    problem = PortfolioProblem(np.array([0.12]), np.array([[0.05]]),
                               gamma=1.0, n_bits_per_asset=1)
    energies = problem.energies(np.array([[0], [1]]))
    assert np.argmin(energies) == 1


def test_two_asset_risk_aversion_selects_low_variance():
    mu = np.array([0.1, 0.1])
    sigma = np.diag([0.25, 0.01])
    problem = PortfolioProblem(mu, sigma, gamma=50.0, n_bits_per_asset=1)
    bits = all_bit_rows(2)
    energies = problem.energies(bits)
    best = tuple(int(b) for b in bits[np.argmin(energies)])
    assert best == (0, 1)  # the low-variance asset alone


def test_unit_sum_subspace_count():
    assert count_unit_sum_allocations(2, 1) == 2
    # 20 assets, 3 bits each: weak compositions of 7 into 20 parts
    from math import comb
    assert count_unit_sum_allocations(20, 3) == comb(26, 7)


def unit_sum_allocations_dp(n_assets, n_bits_per_asset):
    """Oracle: solutions of sum_i q_i = 2^N_q - 1, q_i in [0, 2^N_q - 1]."""
    target = 2**n_bits_per_asset - 1
    ways = [1] + [0] * target
    for _ in range(n_assets):
        ways = [sum(ways[:total + 1]) for total in range(target + 1)]
    return ways[target]


@pytest.mark.parametrize("n_bits", [1, 2, 3, 4])
def test_unit_sum_count_matches_dynamic_programming(n_bits):
    for n_assets in range(9):
        assert count_unit_sum_allocations(n_assets, n_bits) == \
            unit_sum_allocations_dp(n_assets, n_bits)


def test_covariance_validation():
    with pytest.raises(ValueError):
        PortfolioProblem(np.ones(2), np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(ValueError):
        PortfolioProblem(np.ones(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        PortfolioProblem(np.ones(2), np.eye(2), gamma=-1.0)
    with pytest.raises(ValueError, match="non-finite"):
        PortfolioProblem(np.array([0.1, np.nan]), np.eye(2))
    with pytest.raises(ValueError, match="non-finite"):
        PortfolioProblem(np.ones(2), np.array([[1.0, np.inf], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_scalars_must_be_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        MobiusProblem(8, bad, -0.2)
    with pytest.raises(ValueError, match="finite"):
        MobiusProblem(8, 0.5, bad)
    with pytest.raises(ValueError, match="finite"):
        IsingProblem({}, np.array([0.0, bad]))
    with pytest.raises(ValueError, match="finite"):
        IsingProblem({(0, 1): bad}, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        IsingProblem({(0, 1): 1.0}, np.zeros(2), constant=bad)
    for key in ("gamma", "penalty_weight", "zero_penalty"):
        with pytest.raises(ValueError, match="finite"):
            PortfolioProblem(np.ones(2), np.eye(2), **{key: bad})


def test_run_portfolio_checks_every_gamma_before_solving(monkeypatch):
    import shallowboson.problems as problems

    def refuse(problem, config):
        raise AssertionError("solved before every gamma was checked")

    monkeypatch.setattr(problems, "run_variational", refuse)
    with pytest.raises(ValueError, match="gamma must be finite"):
        problems.run_portfolio(synthetic_portfolio(4, seed=1),
                               SolverConfig(samples=8), [1.0, float("nan")])


def test_synthetic_portfolio_reproducible():
    a = synthetic_portfolio(12, seed=5)
    b = synthetic_portfolio(12, seed=5)
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)
    assert a.num_bits == 12


def test_random_cloud_allocations_nonempty():
    problem = synthetic_portfolio(8, seed=6)
    risks, returns = random_portfolio_cloud(problem, 500, seed=1)
    assert risks.shape == (500,) and returns.shape == (500,)
    assert np.all(risks >= 0)


def test_allocation_risk_return():
    problem = _example_portfolio()
    risk, ret = allocation_risk_return(problem, (0, 1, 0))
    assert ret == pytest.approx(0.2)
    assert risk == pytest.approx(0.3)
    assert allocation_risk_return(problem, (0, 0, 0)) == (0.0, 0.0)


def scalar_risk_return(problem, bits):
    """Oracle: the risk and return of one bit string, a vector at a time."""
    omega = problem.decode(bits)
    total = omega.sum()
    if total == 0:
        return 0.0, 0.0
    w = omega / total
    return (float(np.sqrt(w @ problem.sigma @ w)), float(w @ problem.mu))


def test_allocation_risk_return_rows():
    problem = synthetic_portfolio(6, seed=9, n_bits_per_asset=2)
    bits = np.random.default_rng(2).integers(0, 2, (300, problem.num_bits))
    bits[0] = 0
    risks, returns = allocation_risk_return(problem, bits)
    assert risks.shape == returns.shape == (300,)
    assert (risks[0], returns[0]) == (0.0, 0.0)
    for r, row in enumerate(bits):
        risk, ret = scalar_risk_return(problem, row)
        assert risks[r] == pytest.approx(risk, rel=1e-12, abs=1e-15)
        assert returns[r] == pytest.approx(ret, rel=1e-12, abs=1e-15)
        assert allocation_risk_return(problem, row) == pytest.approx(
            (risk, ret), rel=1e-12, abs=1e-15)
