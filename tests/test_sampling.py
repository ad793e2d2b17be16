from collections import Counter

import numpy as np
import pytest
from scipy import stats

from shallowboson.fock import enumerate_basis
from shallowboson.interferometer import (
    build_reck_slices, evolve, exact_distribution, reck_input, two_mode_block,
)
from shallowboson.sampling import (
    as_seed_sequence, chain_sample_depth1_batch, sample_patterns,
)


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


def reference_chain_sample(input_pattern, theta_rows, n_samples,
                           stream_seed, psis=None):
    """Oracle: the sort-grouped chain sampler.

    Per gate the shots are sorted by a flat (angle code, photon total) key
    and each group draws with one searchsorted over its block column.
    """
    inp = tuple(int(v) for v in input_pattern)
    m = len(inp)
    theta_rows = np.asarray(theta_rows, dtype=float)
    rows = theta_rows.shape[0]
    psi_rows = (np.zeros_like(theta_rows) if psis is None
                else np.asarray(psis, dtype=float))
    root = as_seed_sequence(stream_seed)
    uniforms = np.empty((rows, m - 1, n_samples))
    for r, child in enumerate(root.spawn(rows)):
        uniforms[r] = np.random.default_rng(child).random((m - 1, n_samples))
    out = np.zeros((rows, n_samples, m), dtype=np.uint16)
    carry = np.full((rows, n_samples), inp[m - 1], dtype=np.int64)
    for gate_idx, mode in enumerate(range(m - 2, -1, -1)):
        fresh = inp[mode]
        totals = carry + fresh
        pair = np.stack([theta_rows[:, gate_idx], psi_rows[:, gate_idx]],
                        axis=1)
        angle_codes, row_code = np.unique(pair, axis=0, return_inverse=True)
        span = int(totals.max()) + 1
        flat_key = (row_code[:, None] * span + totals).ravel()
        order = np.argsort(flat_key, kind="stable")
        sorted_keys = flat_key[order]
        uniq_keys, starts = np.unique(sorted_keys, return_index=True)
        stops = np.append(starts[1:], len(sorted_keys))
        u_flat = uniforms[:, gate_idx, :].ravel()
        new_flat = np.empty(rows * n_samples, dtype=np.int64)
        for key, s, e in zip(uniq_keys, starts, stops):
            code, t = divmod(int(key), span)
            col = two_mode_block(t, angle_codes[code, 0],
                                 angle_codes[code, 1])[:, fresh]
            cdf = np.cumsum(np.abs(col) ** 2)
            cdf[-1] = max(cdf[-1], 1.0)
            members = order[s:e]
            new_flat[members] = np.searchsorted(
                cdf, u_flat[members], side="right")
        new_carry = new_flat.reshape(rows, n_samples)
        out[:, :, mode + 1] = (totals - new_carry).astype(np.uint16)
        carry = new_carry
    out[:, :, 0] = carry.astype(np.uint16)
    return out


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


def test_seed_sequence_object_reused_gives_same_draws():
    circ = build_reck_slices(5, 1, reck_input(5, 5))
    rows = np.random.default_rng(14).uniform(0, 2 * np.pi, (3, 4))
    seed = np.random.SeedSequence(5)
    a = chain_sample_depth1_batch(circ.input, rows, 30, seed)
    b = chain_sample_depth1_batch(circ.input, rows, 30, seed)
    assert np.array_equal(a, b)
    assert seed.n_children_spawned == 0
    # a fresh SeedSequence draws what its integer seed draws
    assert np.array_equal(
        a, chain_sample_depth1_batch(circ.input, rows, 30, 5))
    # an advanced one continues where its own spawn() would
    seed.spawn(2)
    advanced = chain_sample_depth1_batch(circ.input, rows[2:], 30, seed)
    assert np.array_equal(advanced[0], a[2])
    assert seed.n_children_spawned == 2


def test_batch_row_shape_validated():
    with pytest.raises(ValueError):
        chain_sample_depth1_batch((1, 1, 1), np.zeros((2, 3)), 10, 0)


def test_chain_sampler_matches_sort_grouped_oracle():
    rng = np.random.default_rng(14)
    for m in range(3, 9):
        for n in (m, m - 1):
            inp = reck_input(m, n)
            base = rng.uniform(0, 2 * np.pi, m - 1)
            shifted = base.copy()
            shifted[rng.integers(m - 1)] += np.pi / 2
            rows = np.stack([base, shifted, base,
                             rng.uniform(0, 2 * np.pi, m - 1), shifted])
            psis = rng.uniform(0, 2 * np.pi, rows.shape)
            psis[2] = psis[0]  # a duplicate (theta, psi) row
            for seed in (0, 31 + m):
                for phases in (None, psis):
                    drawn = chain_sample_depth1_batch(inp, rows, 120, seed,
                                                      phases)
                    expected = reference_chain_sample(inp, rows, 120, seed,
                                                      phases)
                    assert np.array_equal(drawn, expected)


def test_chain_sampler_needs_a_sample():
    with pytest.raises(ValueError, match="need at least one sample"):
        chain_sample_depth1_batch((1, 1, 1), np.zeros((2, 2)), 0, 0)
    with pytest.raises(ValueError, match="need at least one sample"):
        chain_sample_depth1_batch((1, 1, 1), np.zeros((0, 2)), 0, 0)


def test_chain_sampler_empty_batch():
    out = chain_sample_depth1_batch((1, 1, 0), np.zeros((0, 2)), 5, 0)
    assert out.shape == (0, 5, 3) and out.dtype == np.uint16
