from collections import Counter

import numpy as np
import pytest
from scipy import stats

from shallowboson.fock import enumerate_basis
from shallowboson.interferometer import (
    build_reck_slices, evolve, exact_distribution, reck_input,
)
from shallowboson.sampling import chain_sample_depth1_batch, sample_patterns


def chain_sample_depth1(input_pattern, thetas, n_samples, stream_seed):
    """One angle row through the batch sampler; shape (n_samples, M)."""
    return chain_sample_depth1_batch(input_pattern, [thetas], n_samples,
                                     stream_seed)[0]


def reference_sample_patterns(dist, n_samples, stream_seed):
    """Oracle: the dict sampler, inverse CDF over reverse-sorted patterns."""
    patterns = sorted(dist, reverse=True)
    cdf = np.cumsum(np.array([dist[p] for p in patterns], dtype=float))
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(stream_seed)
    draws = np.searchsorted(cdf, rng.random(n_samples), side="right")
    return [patterns[int(i)] for i in draws]


def random_depth2_states(seed):
    """Depth-2 states with random splitter and phase angles, M <= 6."""
    rng = np.random.default_rng(seed)
    for m in range(3, 7):
        for n in (m, m - 1):
            circ = build_reck_slices(m, 2, reck_input(m, n))
            k = len(circ.gates)
            yield evolve(circ, rng.uniform(0, 2 * np.pi, k),
                         rng.uniform(0, 2 * np.pi, k))


def test_point_mass_draws_constant():
    out = sample_patterns([(2, 0, 1)], [1.0], 25, stream_seed=0)
    assert out.dtype == np.uint16
    assert list(map(tuple, out.tolist())) == [(2, 0, 1)] * 25


def test_same_seed_same_multiset():
    patterns, probs = [(1, 0), (0, 1)], [0.25, 0.75]
    a = sample_patterns(patterns, probs, 500, stream_seed=42)
    b = sample_patterns(patterns, probs, 500, stream_seed=42)
    assert np.array_equal(a, b)
    c = sample_patterns(patterns, probs, 500, stream_seed=43)
    assert not np.array_equal(a, c)


def test_unnormalized_distribution_rejected():
    with pytest.raises(ValueError):
        sample_patterns([(1, 0)], [0.5], 10, stream_seed=0)
    with pytest.raises(ValueError):
        sample_patterns([(1, 0)], [1.0], 0, stream_seed=0)
    with pytest.raises(ValueError):
        sample_patterns([(1, 0), (0, 1)], [1.0], 10, stream_seed=0)


def test_chi_square_goodness_of_fit():
    circ = build_reck_slices(4, 3, reck_input(4, 3))  # full 20-outcome sector
    rng = np.random.default_rng(10)
    thetas = rng.uniform(0.3, np.pi - 0.3, len(circ.gates))
    state = evolve(circ, thetas)
    dist = exact_distribution(state)
    assert len(dist) == 20
    n_draws = 100_000
    drawn = Counter(map(tuple, sample_patterns(
        state.basis.patterns, state.probabilities(), n_draws,
        stream_seed=7).tolist()))
    patterns = sorted(dist, reverse=True)
    expected = np.array([dist[p] * n_draws for p in patterns])
    observed = np.array([drawn.get(p, 0) for p in patterns])
    keep = expected > 5  # chi-square validity rule of thumb
    result = stats.chisquare(
        observed[keep], expected[keep] * observed[keep].sum()
        / expected[keep].sum())
    assert result.pvalue > 0.001


def test_canonical_order_matches_reverse_sorted_dict():
    for m in range(1, 9):
        for n in range(0, 9):
            basis = enumerate_basis(m, n)
            assert list(basis) == sorted(basis, reverse=True)


def test_array_sampler_matches_dict_oracle():
    for k, state in enumerate(random_depth2_states(20)):
        probs = state.probabilities()
        dist = {p: float(v) for p, v in zip(state.basis, probs)}
        for seed in (0, 1, 1000 + k):
            drawn = sample_patterns(state.basis.patterns, probs, 300, seed)
            expected = reference_sample_patterns(dist, 300, seed)
            assert np.array_equal(drawn,
                                  np.asarray(expected, dtype=np.uint16))


def test_chain_sampler_matches_exact_distribution():
    rng = np.random.default_rng(11)
    for m, n in [(3, 3), (4, 4), (4, 3), (5, 4)]:
        circ = build_reck_slices(m, 1, reck_input(m, n))
        thetas = rng.uniform(0.3, np.pi - 0.3, len(circ.gates))
        dist = exact_distribution(evolve(circ, thetas))
        n_draws = 60_000
        draws = chain_sample_depth1(circ.input, thetas, n_draws, 5)
        counts = Counter(tuple(int(v) for v in row) for row in draws)
        assert all(p in dist for p in counts)  # never outside the support
        tv = 0.5 * sum(abs(counts.get(p, 0) / n_draws - q)
                       for p, q in dist.items())
        assert tv < 0.02


def test_chain_sampler_deterministic():
    circ = build_reck_slices(6, 1, reck_input(6, 5))
    thetas = np.linspace(0.4, 2.0, len(circ.gates))
    a = chain_sample_depth1(circ.input, thetas, 64, stream_seed=3)
    b = chain_sample_depth1(circ.input, thetas, 64, stream_seed=3)
    assert np.array_equal(a, b)


def test_chain_sampler_identity_angles():
    circ = build_reck_slices(5, 1, reck_input(5, 4))
    out = chain_sample_depth1(circ.input, np.zeros(4), 16, stream_seed=0)
    assert np.all(out == np.array(circ.input, dtype=np.uint16))


def test_chain_sampler_conserves_photons():
    circ = build_reck_slices(7, 1, reck_input(7, 7))
    rng = np.random.default_rng(12)
    thetas = rng.uniform(0, 2 * np.pi, 6)
    out = chain_sample_depth1(circ.input, thetas, 200, stream_seed=1)
    assert np.all(out.sum(axis=1) == 7)


def test_batch_shape_and_determinism():
    circ = build_reck_slices(5, 1, reck_input(5, 5))
    rng = np.random.default_rng(13)
    rows = rng.uniform(0, 2 * np.pi, (6, 4))
    a = chain_sample_depth1_batch(circ.input, rows, 30, stream_seed=9)
    b = chain_sample_depth1_batch(circ.input, rows, 30, stream_seed=9)
    assert a.shape == (6, 30, 5)
    assert np.array_equal(a, b)


def test_batch_row_shape_validated():
    with pytest.raises(ValueError):
        chain_sample_depth1_batch((1, 1, 1), np.zeros((2, 3)), 10, 0)
