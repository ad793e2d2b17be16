import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

import shallowboson.sampling as sampling
from shallowboson.fock import enumerate_basis
from shallowboson.interferometer import (
    CircuitSpec, build_reck_slices, evolve, evolve_batch, reck_input,
    two_mode_block,
)
from shallowboson.parity import coarse_grain, parity_bits, parity_codes
from shallowboson.problems import MobiusProblem
from shallowboson.sampling import (
    as_seed_sequence, chain_sample_depth1_batch, depth1_parity_masses,
    depth1_shift_masses, gate_outcome_table, sample_indices, sample_patterns,
)


def chain_sample_depth1(circuit, thetas, n_samples, stream_seed):
    """One angle row through the batch sampler; shape (n_samples, M)."""
    return chain_sample_depth1_batch(circuit, [thetas], n_samples,
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


def test_negative_probability_rejected():
    # the masses sum to 1, and the inverse CDF would draw only (1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        sample_patterns([(1, 0), (0, 1)], [1.5, -0.5], 10, stream_seed=0)


def test_nan_distribution_rejected():
    # abs(nan - 1) > tol is False: NaN masses must fail the check
    patterns = enumerate_basis(4, 4).patterns
    with pytest.raises(ValueError, match="sum to .*nan"):
        sample_patterns(patterns, np.full(len(patterns), np.nan), 5, 0)


@pytest.mark.parametrize("probs", [[1.5, -0.5], [0.5, np.nan], [0.5, 0.6]])
def test_mass_checks_share_one_message(probs):
    patterns = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError) as sampled:
        sample_patterns(patterns, probs, 5, 0)
    with pytest.raises(ValueError) as grained:
        coarse_grain(patterns, probs, 0)
    assert str(sampled.value) == str(grained.value)


def test_mass_message_prints_a_plain_float():
    patterns = np.array([[1, 0], [0, 1]])
    for probs in ([np.inf, 0.0], np.array([np.inf, 0.0])):
        for call in (lambda: sample_patterns(patterns, probs, 5, 0),
                     lambda: coarse_grain(patterns, probs, 0)):
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value).startswith("masses sum to inf, expected 1")


def test_parity_variant_checks_share_one_message():
    patterns = np.array([[1, 0, 2]])
    circ = build_reck_slices(3, 1)
    messages = set()
    for call in (lambda: parity_bits(patterns, 2),
                 lambda: parity_codes(patterns, 2),
                 lambda: depth1_parity_masses(circ, np.zeros((1, 2)), 2)):
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    assert messages == {"parity variant must be 0 or 1, got 2"}


def test_chi_square_goodness_of_fit():
    circ = build_reck_slices(4, 3, reck_input(4, 3))  # full 20-outcome sector
    rng = np.random.default_rng(10)
    thetas = rng.uniform(0.3, np.pi - 0.3, len(circ.gates))
    state = evolve(circ, thetas)
    probs = state.probabilities()
    assert np.count_nonzero(probs) == 20
    n_draws = 100_000
    drawn = sample_patterns(state.basis.patterns, probs, n_draws,
                            stream_seed=7)
    # both in canonical order, the reverse-sorted order of the patterns
    expected = probs * n_draws
    observed = np.bincount(state.basis.rank(drawn), minlength=20)
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
        state = evolve(circ, thetas)
        probs = state.probabilities()
        n_draws = 60_000
        draws = chain_sample_depth1(circ, thetas, n_draws, 5)
        ranks = state.basis.rank(draws)
        assert np.all(probs[ranks] > 0)  # never outside the support
        counts = np.bincount(ranks, minlength=len(probs))
        tv = 0.5 * np.abs(counts / n_draws - probs).sum()
        assert tv < 0.02


def test_chain_sampler_deterministic():
    circ = build_reck_slices(6, 1, reck_input(6, 5))
    thetas = np.linspace(0.4, 2.0, len(circ.gates))
    a = chain_sample_depth1(circ, thetas, 64, stream_seed=3)
    b = chain_sample_depth1(circ, thetas, 64, stream_seed=3)
    assert np.array_equal(a, b)


def test_chain_sampler_identity_angles():
    circ = build_reck_slices(5, 1, reck_input(5, 4))
    out = chain_sample_depth1(circ, np.zeros(4), 16, stream_seed=0)
    assert np.all(out == np.array(circ.input, dtype=np.uint16))


def test_chain_sampler_conserves_photons():
    circ = build_reck_slices(7, 1, reck_input(7, 7))
    rng = np.random.default_rng(12)
    thetas = rng.uniform(0, 2 * np.pi, 6)
    out = chain_sample_depth1(circ, thetas, 200, stream_seed=1)
    assert np.all(out.sum(axis=1) == 7)


def test_batch_shape_and_determinism():
    circ = build_reck_slices(5, 1, reck_input(5, 5))
    rng = np.random.default_rng(13)
    rows = rng.uniform(0, 2 * np.pi, (6, 4))
    a = chain_sample_depth1_batch(circ, rows, 30, stream_seed=9)
    b = chain_sample_depth1_batch(circ, rows, 30, stream_seed=9)
    assert a.shape == (6, 30, 5)
    assert np.array_equal(a, b)


def test_seed_sequence_object_reused_gives_same_draws():
    circ = build_reck_slices(5, 1, reck_input(5, 5))
    rows = np.random.default_rng(14).uniform(0, 2 * np.pi, (3, 4))
    seed = np.random.SeedSequence(5)
    a = chain_sample_depth1_batch(circ, rows, 30, seed)
    b = chain_sample_depth1_batch(circ, rows, 30, seed)
    assert np.array_equal(a, b)
    assert seed.n_children_spawned == 0
    # a fresh SeedSequence draws what its integer seed draws
    assert np.array_equal(
        a, chain_sample_depth1_batch(circ, rows, 30, 5))
    # an advanced one continues where its own spawn() would
    seed.spawn(2)
    advanced = chain_sample_depth1_batch(circ, rows[2:], 30, seed)
    assert np.array_equal(advanced[0], a[2])
    assert seed.n_children_spawned == 2


def test_batch_row_shape_validated():
    with pytest.raises(ValueError, match="theta rows"):
        chain_sample_depth1_batch(build_reck_slices(3, 1), np.zeros((2, 3)),
                                  10, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_depth1_engines_refuse_non_finite_rows(bad):
    circ = build_reck_slices(4, 1)
    rows = np.full((2, 3), 0.7)
    rows[1, 1] = bad
    with pytest.raises(ValueError, match="theta angles must be finite"):
        chain_sample_depth1_batch(circ, rows, 10, 0)
    with pytest.raises(ValueError, match="theta angles must be finite"):
        depth1_parity_masses(circ, rows, 0)


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
                drawn = chain_sample_depth1_batch(
                    build_reck_slices(m, 1, inp), rows, 120, seed)
                # the oracle's phases cannot move a draw
                for phases in (None, psis):
                    expected = reference_chain_sample(inp, rows, 120, seed,
                                                      phases)
                    assert np.array_equal(drawn, expected)


def _gate_carries(input_pattern, drawn):
    """Photons carried into each gate of every drawn shot, from mode j + 1
    into the gate (j, j + 1), for j = 0..M-2: those that end in modes
    0..j + 1, less the fresh ones of modes 0..j.  The gate's photon total
    is its carry plus its fresh input[j]."""
    ends = np.cumsum(drawn, axis=-1, dtype=np.int64)[..., 1:]
    return ends - np.cumsum(input_pattern)[:-1]


@pytest.mark.parametrize("n", [70, 69])
def test_chain_sampler_matches_oracle_on_a_70_mode_shift_stencil(n):
    inp = reck_input(70, n)
    base = np.random.default_rng(0).uniform(0, 2 * np.pi, 69)
    rows = np.repeat(base[None], 138, axis=0)
    for g in range(69):
        rows[2 * g, g] += np.pi / 2
        rows[2 * g + 1, g] -= np.pi / 2
    drawn = chain_sample_depth1_batch(build_reck_slices(70, 1, inp), rows,
                                      150, 0)
    assert np.array_equal(drawn, reference_chain_sample(inp, rows, 150, 0))
    # some gate carries 8 photons in, so its total is 8 or more: CDF rows
    # of span 9 or more, width 16 or more
    assert _gate_carries(inp, drawn).max() >= 8


@st.composite
def tied_chain_cases(draw):
    """An input of up to 4 photons per mode and angle rows of 0, pi and
    uniform draws: 0 and pi give zero-probability outcomes, so CDF rows
    hold tied entries."""
    m = draw(st.integers(2, 6))
    inp = tuple(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)))
    angle = st.sampled_from([0.0, np.pi]) | st.floats(0.0, 2 * np.pi)
    row = st.lists(angle, min_size=m - 1, max_size=m - 1)
    return inp, np.array(draw(st.lists(row, min_size=1, max_size=4)))


# the first explicit example's gates have spans 1, 2, 3-4, 5-8 and 9+, so
# CDF widths 1, 2, 4, 8 and 16; in the second the gate totals reach 4, 8
# and 12 and then fall to 10 and 5, so each gate's search must reach its
# own totals over rows 16 wide
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(tied_chain_cases(), st.integers(0, 2**32 - 1))
@example(((8, 4, 2, 1, 0, 0), np.full((2, 5), 1.1)), 0)
@example(((0, 0, 4, 4, 4, 0), np.full((2, 5), 1.1)), 0)
def test_chain_sampler_matches_oracle_on_tied_cdf_rows(case, seed):
    inp, rows = case
    m = len(inp)
    circ = CircuitSpec(m, 1, build_reck_slices(m, 1).gates, inp)
    drawn = chain_sample_depth1_batch(circ, rows, 60, seed)
    assert np.array_equal(drawn, reference_chain_sample(inp, rows, 60, seed))


def test_chain_sampler_returns_uint16():
    circ = build_reck_slices(4, 1)
    for rows in (np.full((3, 3), 0.8), np.zeros((0, 3))):
        drawn = chain_sample_depth1_batch(circ, rows, 5, 0)
        assert drawn.dtype == np.uint16
        assert drawn.shape == (len(rows), 5, 4)


def test_chain_sampler_needs_a_sample():
    with pytest.raises(ValueError, match="need at least one sample"):
        chain_sample_depth1_batch(build_reck_slices(3, 1), np.zeros((2, 2)),
                                  0, 0)
    with pytest.raises(ValueError, match="need at least one sample"):
        chain_sample_depth1_batch(build_reck_slices(3, 1), np.zeros((0, 2)),
                                  0, 0)


@pytest.mark.parametrize("n_samples", [0, -3])
@pytest.mark.parametrize("draw", [
    lambda n: sample_patterns([[1, 0], [0, 1]], [0.5, 0.5], n, 0),
    lambda n: chain_sample_depth1_batch(build_reck_slices(3, 1),
                                        np.zeros((2, 2)), n, 0),
], ids=["sample_patterns", "chain_sample_depth1_batch"])
def test_samplers_share_one_sample_count_check(draw, n_samples):
    with pytest.raises(ValueError,
                       match=f"^need at least one sample, got {n_samples}$"):
        draw(n_samples)


def test_sample_indices_draw_the_rows_sample_patterns_returns():
    patterns = enumerate_basis(4, 3).patterns
    probs = np.random.default_rng(5).dirichlet(np.ones(len(patterns)))
    for seed in (0, 7, np.random.SeedSequence(3, spawn_key=(1,))):
        drawn = sample_indices(probs, 200, seed)
        assert drawn.shape == (200,)
        assert np.array_equal(patterns[drawn],
                              sample_patterns(patterns, probs, 200, seed))


@pytest.mark.parametrize("probs, n_samples", [
    ([0.5], 5), ([1.5, -0.5], 5), ([0.5, np.nan], 5), ([0.5, 0.6], 5),
    ([0.5, 0.5], 0), ([0.5, 0.5], -3), ([0.5, 0.5], 2.5),
    ([0.5, 0.5], True),
])
def test_sample_indices_refuses_what_sample_patterns_refuses(probs,
                                                            n_samples):
    with pytest.raises(ValueError) as indexed:
        sample_indices(probs, n_samples, 0)
    with pytest.raises(ValueError) as gathered:
        sample_patterns(np.eye(len(probs)), probs, n_samples, 0)
    assert str(indexed.value) == str(gathered.value)


def test_sample_indices_needs_one_mass_vector():
    with pytest.raises(ValueError, match=r"^need a 1-D mass vector, got "
                                         r"shape \(1, 2\)$"):
        sample_indices([[0.5, 0.5]], 5, 0)


def test_chain_sampler_empty_batch():
    out = chain_sample_depth1_batch(build_reck_slices(3, 1, (1, 1, 0)),
                                    np.zeros((0, 2)), 5, 0)
    assert out.shape == (0, 5, 3) and out.dtype == np.uint16


def test_gate_outcome_table_is_the_squared_block_column():
    rng = np.random.default_rng(3)
    thetas, psis = rng.uniform(0, 2 * np.pi, (2, 5))
    thetas[4], psis[4] = thetas[1], psis[1]
    for fresh in (0, 1):
        totals = [fresh, fresh + 2, 9]
        table, row_code = gate_outcome_table(fresh, totals, thetas)
        assert table.shape == (4, 10, 10) and row_code[4] == row_code[1]
        for t in range(10):
            for r in range(5):
                expected = np.zeros(10)
                if t in totals:
                    expected[:t + 1] = np.abs(two_mode_block(
                        t, thetas[r], psis[r])[:, fresh]) ** 2
                assert np.max(np.abs(table[row_code[r], t] - expected)
                              ) < 1e-14


def test_gate_outcome_table_rows_ignore_the_batch(monkeypatch):
    # a lone angle must not take another rounding path than a batch
    rng = np.random.default_rng(41)
    for fresh in (0, 1):
        for top in range(fresh, 71):
            thetas = rng.uniform(0, 2 * np.pi, 40)
            totals = sorted({fresh, (fresh + top) // 2, top})
            batch, row_code = gate_outcome_table(fresh, totals, thetas)
            for k in range(40):
                alone, _ = gate_outcome_table(fresh, totals, thetas[k:k + 1])
                assert np.array_equal(alone[0], batch[row_code[k]])
            if top % 7 == 0:
                # nor on the chunks of 3 angles a memory cap cuts it into
                with monkeypatch.context() as patch:
                    patch.setattr(sampling, "_PRODUCT_BYTES",
                                  3 * 16 * len(totals) * (top + 1) ** 2)
                    chunked, _ = gate_outcome_table(fresh, totals, thetas)
                assert np.array_equal(chunked, batch)


def test_gate_outcome_table_entries_ignore_the_top():
    # the chain sampler grows its top as carries grow, and an entry must
    # keep its bits whatever top the call reaches
    thetas = np.random.default_rng(44).uniform(0, 2 * np.pi, 60)
    for fresh in (0, 1):
        for low, high in ((4, 19), (8, 70)):
            first, _ = gate_outcome_table(fresh, range(fresh, low + 1),
                                          thetas)
            for top in range(low, high + 1):
                table, _ = gate_outcome_table(fresh, range(fresh, top + 1),
                                              thetas)
                assert np.array_equal(table[:, :low + 1, :low + 1], first)


def test_depth1_parity_masses_rows_ignore_the_batch():
    rng = np.random.default_rng(43)
    for m in range(2, 13):
        for n in (m, m - 1):
            circ = build_reck_slices(m, 1, reck_input(m, n))
            thetas = rng.uniform(0, 2 * np.pi, (21, m - 1))
            thetas[10:, 0] = thetas[0, 0]  # rows sharing a gate's angle
            for parity in (0, 1):
                alone = np.concatenate([
                    depth1_parity_masses(circ, thetas[r:r + 1], parity)
                    for r in range(21)])
                for size in (2, 3, 21):
                    for s in range(0, 21, size):
                        batch = depth1_parity_masses(
                            circ, thetas[s:s + size], parity)
                        assert np.array_equal(batch, alone[s:s + size])


@pytest.mark.parametrize("rows", [1, 4])
def test_depth1_parity_masses_memory_bound(rows):
    m = n = 14
    circ = build_reck_slices(m, 1, reck_input(m, n))
    thetas = np.random.default_rng(47).uniform(0, 2 * np.pi, (rows, m - 1))
    depth1_parity_masses(circ, thetas, 0)  # fill the eigenbasis caches
    tracemalloc.start()
    try:
        depth1_parity_masses(circ, thetas, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the outcome tables of one gate: one complex (n+1, n+1) block per
    # photon total and distinct angle
    tables = rows * 16 * (n + 1) ** 3
    assert peak <= rows * 16 * (n + 1) * 2 ** m + tables  # the budget
    # the last gate's input and output mass, and no copy of either
    assert peak <= rows * 6 * (n + 1) * 2 ** m + tables


def test_sampler_and_exact_pass_share_one_table(monkeypatch):
    calls = []
    original = sampling.gate_outcome_table

    def recording(fresh, totals, thetas):
        calls.append(len(thetas))
        return original(fresh, totals, thetas)

    monkeypatch.setattr(sampling, "gate_outcome_table", recording)
    circ, thetas = build_reck_slices(5, 1), np.full((3, 4), 0.8)
    chain_sample_depth1_batch(circ, thetas, 20, 0)
    # both engines: one call per distinct fresh count over every gate's
    # angles (the sampler's totals never pass its first top here)
    assert calls == [12]
    depth1_parity_masses(circ, thetas, 0)
    assert calls == [12, 12]


# depth-1 meshes over both reck inputs, and inputs whose empty mode feeds
# a gate, whose tables come from two `fresh` counts
STENCIL_INPUTS = [reck_input(m, n) for m in range(3, 13) for n in (m, m - 1)]
STENCIL_INPUTS += [(1, 0, 1, 1), (0, 1, 1, 1, 1), (1, 1, 1, 1, 0, 1, 1)]


def test_depth1_shift_masses_match_the_shifted_rows():
    rng = np.random.default_rng(53)
    for inp in STENCIL_INPUTS:
        m = len(inp)
        circ = build_reck_slices(m, 1, inp)
        thetas = rng.uniform(0, 2 * np.pi, m - 1)
        rows = thetas + np.kron(np.eye(m - 1), [[np.pi / 2], [-np.pi / 2]])
        for parity in (0, 1):
            shifted = depth1_parity_masses(circ, rows, parity)
            base, stencil = depth1_shift_masses(circ, thetas, parity)
            # the base row's masses, bit for bit
            assert np.array_equal(
                base, depth1_parity_masses(circ, thetas[None], parity))
            gates, first = [], None
            for g, masses in stencil:
                gates.append(g)
                assert masses.shape == (2, 2 ** m)
                assert np.abs(masses - shifted[2 * g:2 * g + 2]).max() < 1e-14
                # one buffer, overwritten gate by gate
                first = masses if first is None else first
                assert np.shares_memory(masses, first)
            assert gates == list(range(m - 2, -1, -1))


def test_depth1_shift_masses_build_every_table_at_the_call(monkeypatch):
    calls = []
    original = sampling.gate_outcome_table

    def recording(fresh, totals, thetas):
        calls.append((fresh, len(thetas)))
        return original(fresh, totals, thetas)

    monkeypatch.setattr(sampling, "gate_outcome_table", recording)
    rows = depth1_shift_masses(build_reck_slices(5, 1), np.full(4, 0.8), 0)[1]
    # the base, raised and lowered angles of 4 gates, at the call
    assert calls == [(1, 12)]
    list(rows)
    assert calls == [(1, 12)]  # the backward sweep builds no table
    calls.clear()
    list(depth1_shift_masses(build_reck_slices(4, 1, (1, 0, 1, 1)),
                             np.full(3, 0.8), 0)[1])
    # one call per distinct fresh count over all three rows
    assert calls == [(0, 3), (1, 6)]


def test_depth1_shift_masses_read_the_angles_of_the_call():
    # the stencil's iterator once built its shifted tables from the
    # caller's array when it ran, after the caller had changed it
    circ = build_reck_slices(5, 1)
    thetas = np.random.default_rng(59).uniform(0, 2 * np.pi, 4)
    want_base, want = depth1_shift_masses(circ, thetas.copy(), 0)
    base, rows = depth1_shift_masses(circ, thetas, 0)
    thetas[:] = 0.9
    assert base.tolist() == want_base.tolist()
    for (g, masses), (h, expected) in zip(rows, want, strict=True):
        assert g == h and masses.tolist() == expected.tolist()


def test_depth1_shift_masses_refuse_what_the_exact_pass_refuses():
    cases = [
        (build_reck_slices(21, 1, reck_input(21, 20)), np.zeros(20), 0),
        (build_reck_slices(3, 1), np.zeros(2), 2),
        (build_reck_slices(3, 1), np.zeros(3), 0),
        (build_reck_slices(4, 2), np.zeros(5), 0),
    ]
    for circ, thetas, parity in cases:
        with pytest.raises(ValueError) as refused:
            depth1_parity_masses(circ, thetas[None], parity)
        with pytest.raises(ValueError) as stencil:
            depth1_shift_masses(circ, thetas, parity)
        assert str(stencil.value) == str(refused.value)


def dense_parity_masses(circuit, theta_rows, parity, psi_rows=None):
    """Oracle: coarse-grained dense states, one row of 2^M masses each."""
    out = np.zeros((len(theta_rows), 2 ** circuit.num_modes))
    for r, state in evolve_batch(circuit, theta_rows, psi_rows):
        out[r] = coarse_grain(state.basis.patterns, state.probabilities(),
                              parity)
    return out


def test_depth1_parity_masses_match_dense_oracle():
    rng = np.random.default_rng(17)
    for m in range(2, 10):
        for n in (m, m - 1):
            circ = build_reck_slices(m, 1, reck_input(m, n))
            thetas = rng.uniform(0, 2 * np.pi, (3, m - 1))
            thetas[2, 0] = 0.0  # an identity gate
            psis = rng.uniform(0, 2 * np.pi, thetas.shape)
            for parity in (0, 1):
                masses = depth1_parity_masses(circ, thetas, parity)
                # the oracle's phases cannot move a mass
                for phases in (None, psis):
                    oracle = dense_parity_masses(circ, thetas, parity, phases)
                    assert masses.shape == (3, 2 ** m)
                    assert np.max(np.abs(masses - oracle)) < 1e-12
                    assert np.allclose(masses.sum(axis=1), 1.0, atol=1e-12)
                    # bit strings outside the parity image get no mass
                    assert np.all(masses[oracle == 0] == 0)


def test_depth1_parity_masses_validation():
    circ = build_reck_slices(3, 1)
    with pytest.raises(ValueError, match="parity variant"):
        depth1_parity_masses(circ, np.zeros((1, 2)), 2)
    with pytest.raises(ValueError, match="theta rows"):
        depth1_parity_masses(circ, np.zeros((1, 3)), 0)
    # refused before anything of size 2^M is allocated
    with pytest.raises(ValueError, match="refusing"):
        depth1_parity_masses(build_reck_slices(21, 1, reck_input(21, 20)),
                             np.zeros((1, 20)), 0)
    assert depth1_parity_masses(build_reck_slices(3, 1, (1, 1, 0)),
                                np.zeros((0, 2)), 1).shape == (0, 8)


def test_depth1_engines_refuse_other_circuits():
    deep = build_reck_slices(4, 2)
    # the cascade's gates fired in the opposite order
    reversed_ = CircuitSpec(4, 1, deep.gates[:3][::-1], deep.input)
    for circ, match in ((deep, "got a depth-2 circuit of 5 gates"),
                        (reversed_, "got a depth-1 circuit of 3 gates")):
        thetas = np.zeros((1, len(circ.gates)))
        with pytest.raises(ValueError, match=match):
            chain_sample_depth1_batch(circ, thetas, 5, 0)
        with pytest.raises(ValueError, match=match):
            depth1_parity_masses(circ, thetas, 0)
    shallow = build_reck_slices(4, 1)
    for width in (2, 4, 5):
        with pytest.raises(ValueError, match="theta rows"):
            chain_sample_depth1_batch(shallow, np.zeros((1, width)), 5, 0)
        with pytest.raises(ValueError, match="theta rows"):
            depth1_parity_masses(shallow, np.zeros((1, width)), 0)
    with pytest.raises(ValueError, match="theta rows"):
        depth1_parity_masses(shallow, np.zeros(3), 0)


def pairwise_spin_moments(input_pattern, thetas, parity):
    """Oracle: exact depth-1 spin correlations <s_a s_b>, O(M^2 n^2).

    s = 2 b - 1 for the parity bit b of a mode.  The carried photon count
    is a Markov chain over the cascade: gate g moves carry c to u with
    probability |<u, c+f-u| B |f, c>|^2 and freezes mode M-1-g with
    c + f - u photons; mode 0 keeps the last carry.  For each first mode a,
    the carry distribution weighted by s_a is pushed through the later
    gates, which gives every <s_a s_b> with b after a.
    """
    inp = tuple(input_pattern)
    m, n = len(inp), sum(inp)
    levels = np.arange(n + 1)

    def spin(count):
        return 2.0 * ((count & 1) ^ parity) - 1.0

    steps = []  # (transition, spin of the frozen mode) per gate
    for g, mode in enumerate(range(m - 2, -1, -1)):
        fresh = inp[mode]
        trans = np.zeros((n + 1, n + 1))
        for c in range(n + 1 - fresh):
            t = c + fresh
            trans[c, :t + 1] = np.abs(
                two_mode_block(t, thetas[g], 0.0)[:, fresh]) ** 2
        frozen = levels[:, None] + fresh - levels[None, :]
        steps.append((trans, spin(frozen)))
    corr = np.eye(m)
    carry = np.zeros(n + 1)
    carry[inp[m - 1]] = 1.0
    for a_gate in range(m - 1):
        trans, s_a = steps[a_gate]
        weighted = ((carry[:, None] * trans) * s_a).sum(axis=0)
        a = m - 1 - a_gate
        for b_gate in range(a_gate + 1, m - 1):
            trans_b, s_b = steps[b_gate]
            b = m - 1 - b_gate
            corr[a, b] = corr[b, a] = np.sum(
                (weighted[:, None] * trans_b) * s_b)
            weighted = weighted @ trans_b
        corr[a, 0] = corr[0, a] = weighted @ spin(levels)
        carry = carry @ trans
    return corr


def mobius_energy_from_correlations(problem, corr):
    n, half = problem.n, problem.n // 2
    ring = sum(corr[i, (i + 1) % n] for i in range(n))
    rungs = sum(corr[i, i + half] for i in range(half))
    return -problem.j_a * ring - problem.j_b * rungs


def test_pairwise_oracle_matches_exact_masses():
    rng = np.random.default_rng(23)
    for m in (4, 6, 8):
        problem = MobiusProblem(m, 0.5, -0.2)
        codes = np.arange(2 ** m)
        bits = (codes[:, None] >> np.arange(m - 1, -1, -1)) & 1
        energies = problem.energies(bits)
        for n in (m, m - 1):
            inp = reck_input(m, n)
            thetas = rng.uniform(0, 2 * np.pi, m - 1)
            for parity in (0, 1):
                masses = depth1_parity_masses(build_reck_slices(m, 1, inp),
                                              thetas[None], parity)[0]
                corr = pairwise_spin_moments(inp, thetas, parity)
                assert abs(mobius_energy_from_correlations(problem, corr)
                           - masses @ energies) < 1e-12


def test_chain_sampler_mean_energy_at_70_modes():
    # the 70-mode ring is beyond any dense or 2^M method; the pairwise
    # oracle gives its exact depth-1 energy
    problem = MobiusProblem(70, 0.5, -0.2)
    thetas = np.random.default_rng(70).uniform(0, 2 * np.pi, 69)
    for n, parity in ((70, 0), (69, 1)):
        inp = reck_input(70, n)
        exact = mobius_energy_from_correlations(
            problem, pairwise_spin_moments(inp, thetas, parity))
        shots = chain_sample_depth1_batch(build_reck_slices(70, 1, inp),
                                          thetas[None], 4000, 7)[0]
        drawn = problem.energies(parity_bits(shots, parity))
        stderr = drawn.std(ddof=1) / np.sqrt(len(drawn))
        assert abs(drawn.mean() - exact) < 5 * stderr
