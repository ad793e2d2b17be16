"""Seeded sampling of detection patterns.

Two routes: inverse-CDF categorical draws over an explicit distribution,
and a sequential sampler for depth-1 meshes that draws patterns gate by
gate without ever building the output distribution.  In the depth-1
cascade each gate freezes one output mode, and conditioning on its
measured count collapses the carried mode to a definite Fock state, so a
chain of two-mode blocks samples exactly.  Per gate, the sampler tabulates
the outcome CDF of every (angle pair, photon total) that occurs, from
columns of `two_mode_block`, and each shot's outcome is the number of
entries of its CDF row that do not exceed its uniform draw.

An explicit distribution is a pattern array with an aligned probability
vector, for a sector `basis.patterns` with `state.probabilities()` in
canonical order.  Both routes return uint16 pattern rows.
"""

from __future__ import annotations

import numpy as np

from .interferometer import two_mode_block_column

_MASS_TOL = 1e-9


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int, None, or SeedSequence into a SeedSequence.

    A SeedSequence is copied with its spawn counter, so spawning from the
    result never advances the caller's object.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned)
    return np.random.SeedSequence(seed)


def sample_patterns(patterns, probs, n_samples: int,
                    stream_seed) -> np.ndarray:
    """Draw n_samples i.i.d. rows of `patterns`, row k with mass probs[k].

    Inverse-CDF over the rows in the order given; identical seeds give
    identical draws.  Returns uint16 rows of shape (n_samples, M).
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    patterns = np.asarray(patterns, dtype=np.uint16)
    probs = np.asarray(probs, dtype=float)
    if patterns.ndim != 2 or probs.shape != (len(patterns),):
        raise ValueError(f"need one probability per row of a 2-D pattern "
                         f"array, got {probs.shape} and {patterns.shape}")
    total = probs.sum()
    if abs(total - 1.0) > _MASS_TOL:
        raise ValueError(
            f"probabilities sum to {total!r}, expected 1 within {_MASS_TOL}"
        )
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(stream_seed)
    return patterns[np.searchsorted(cdf, rng.random(n_samples), side="right")]


def chain_sample_depth1_batch(input_pattern, theta_rows, n_samples: int,
                              stream_seed, psis=None) -> np.ndarray:
    """Depth-1 chain sampling for a batch of angle vectors.

    theta_rows has shape (R, M-1), one gate angle per nearest-neighbour
    pair in firing order (pair (M-2, M-1) first).  Each row draws from an
    independent seeded stream, so results do not depend on batching.
    Returns uint16 patterns of shape (R, n_samples, M).
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    inp = tuple(int(v) for v in input_pattern)
    m = len(inp)
    theta_rows = np.asarray(theta_rows, dtype=float)
    if theta_rows.ndim != 2 or theta_rows.shape[1] != m - 1:
        raise ValueError(
            f"theta batch must have shape (R, {m - 1}), got {theta_rows.shape}"
        )
    rows = theta_rows.shape[0]
    if rows == 0:
        return np.zeros((0, n_samples, m), dtype=np.uint16)
    if psis is None:
        psi_rows = np.zeros_like(theta_rows)
    else:
        psi_rows = np.asarray(psis, dtype=float)
        if psi_rows.shape != theta_rows.shape:
            raise ValueError("psi batch must match the theta batch shape")

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
        # cdf[k, t, :t+1]: outcome CDF of |fresh, t - fresh> under angle
        # pair k, padded with +inf
        span = int(totals.max()) + 1
        cdf = np.full((len(angle_codes), span, span), np.inf)
        occurring = np.flatnonzero(np.bincount(totals.ravel()))
        for k, (theta, psi) in enumerate(angle_codes):
            for t in occurring:
                col = two_mode_block_column(int(t), fresh, theta, psi)
                row = np.cumsum(np.abs(col) ** 2)
                row[-1] = max(row[-1], 1.0)
                cdf[k, t, :t + 1] = row
        # the count of row entries <= u is searchsorted(row, u, "right")
        u = uniforms[:, gate_idx, :]
        start = (row_code[:, None] * span + totals) * span
        new_carry = np.zeros_like(carry)
        for level in range(span):
            new_carry += cdf.take(start + level) <= u
        out[:, :, mode + 1] = (totals - new_carry).astype(np.uint16)
        carry = new_carry
    out[:, :, 0] = carry.astype(np.uint16)
    return out
