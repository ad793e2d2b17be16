"""Seeded sampling of detection patterns, and the exact depth-1 chain.

Two sampling routes: inverse-CDF categorical draws over an explicit
distribution, and a sequential sampler for depth-1 meshes that draws
patterns gate by gate without ever building the output distribution.  In
the depth-1 cascade each gate freezes one output mode, and conditioning on
its measured count collapses the carried mode to a definite Fock state, so
a chain of two-mode blocks samples exactly.  A single slice commutes its
phases past the detectors, so the chain takes splitter angles alone.
`gate_outcome_table` gives the outcome probabilities of one gate for every
(angle, photon total) that occurs, from one contraction over the cached
eigenbasis table of the photon totals (`interferometer._column_product`).
The sampler reads its cumulative sum: each shot's
outcome is the number of entries of its CDF row that do not exceed its
uniform draw.

The same table drives `depth1_parity_masses`, the exact parity-bit
distribution of a depth-1 mesh: a forward pass over (bit-prefix code,
carried photon count), one pair of batched matmuls per gate, that never
enumerates a Fock sector.

An explicit distribution is a pattern array with an aligned probability
vector: a sector `basis.patterns` with `state.probabilities()` in
canonical order, or the 2^M parity bit strings with their code masses.
Both sampling routes return uint16 rows.
"""

from __future__ import annotations

import numpy as np

from .interferometer import (_angle_rows, _column_product, _spin_table,
                             build_reck_slices)

_MASS_TOL = 1e-9
# The exact depth-1 pass is sized in units of 2^M (n+1) floats per row (its
# last gate holds 3/4 of one); meshes beyond M = n = 20 (176 MB per unit)
# are refused.
_MASS_ENTRIES_CAP = 21 << 20
# `gate_outcome_table` builds its columns in chunks of angles whose
# product stays below this many bytes.
_PRODUCT_BYTES = 1 << 24


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
    if (probs < 0).any():
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if not abs(total - 1.0) <= _MASS_TOL:
        raise ValueError(
            f"probabilities sum to {total!r}, expected 1 within {_MASS_TOL}"
        )
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(stream_seed)
    return patterns[np.searchsorted(cdf, rng.random(n_samples), side="right")]


def gate_outcome_table(fresh: int, totals, thetas):
    """Outcome probabilities of one depth-1 gate under R rows' angles.

    The gate's first mode brings `fresh` photons and the carried mode the
    rest of the pair's photon total t.  For the k-th distinct angle among
    thetas, table[k, t, u] is the probability
    |<u, t-u| U_k |fresh, t-fresh>|^2 that u photons go on in the carried
    mode and t - u stay in the frozen one, for every t in `totals`; the
    entries u > t and the rows of totals not listed are zero.  Returns the
    (K, T, T) table, T = max(totals) + 1, and each row's angle index k.
    """
    angles, row_code = np.unique(thetas, return_inverse=True)
    totals = np.asarray(totals, dtype=np.int64)
    top = int(totals.max())
    lams, vecs, _ = _spin_table(top)
    lams, vecs = lams[totals], vecs[totals]
    table = np.zeros((len(angles), top + 1, top + 1))
    # the product holds one complex (T, T) block per angle and total
    step = max(1, _PRODUCT_BYTES // vecs.nbytes)
    for start in range(0, len(angles), step):
        chunk = slice(start, start + step)
        table[chunk, totals] = np.abs(_column_product(
            lams, vecs, fresh, angles[chunk])) ** 2
    return table, row_code


def _depth1_thetas(circuit, theta_rows) -> np.ndarray:
    """Checked (R, M-1) theta rows of a circuit laid out as the depth-1
    mesh of `build_reck_slices`, the gate order both engines rely on."""
    layout = [(g.i, g.j) for g in circuit.gates]
    if circuit.depth != 1 or layout != [
            (g.i, g.j) for g in build_reck_slices(circuit.num_modes, 1).gates]:
        raise ValueError(
            f"the depth-1 engines need the gates of build_reck_slices"
            f"({circuit.num_modes}, 1) in order, got a depth-"
            f"{circuit.depth} circuit of {len(layout)} gates")
    return _angle_rows(circuit, theta_rows)[0]


def chain_sample_depth1_batch(circuit, theta_rows, n_samples: int,
                              stream_seed) -> np.ndarray:
    """Depth-1 chain sampling for a batch of angle vectors.

    theta_rows has shape (R, M-1), one angle per gate of the depth-1
    `circuit` in its firing order (pair (M-2, M-1) first).  Each row draws
    from an independent seeded stream, so results do not depend on
    batching.  Returns uint16 patterns of shape (R, n_samples, M).
    """
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    theta_rows = _depth1_thetas(circuit, theta_rows)
    m, inp = circuit.num_modes, circuit.input
    rows = theta_rows.shape[0]
    if rows == 0:
        return np.zeros((0, n_samples, m), dtype=np.uint16)

    root = as_seed_sequence(stream_seed)
    uniforms = np.empty((rows, m - 1, n_samples))
    for r, child in enumerate(root.spawn(rows)):
        uniforms[r] = np.random.default_rng(child).random((m - 1, n_samples))

    out = np.zeros((rows, n_samples, m), dtype=np.uint16)
    # the last mode is the first carry; gate g freezes its mode j
    carry = np.full((rows, n_samples), inp[-1], dtype=np.int64)
    for g, gate in enumerate(circuit.gates):
        fresh = inp[gate.i]
        totals = carry + fresh
        # cdf[k, t, :t+1]: outcome CDF of |fresh, t - fresh> under angle
        # k, padded with +inf
        table, row_code = gate_outcome_table(
            fresh, np.flatnonzero(np.bincount(totals.ravel())),
            theta_rows[:, g])
        cdf = np.cumsum(table, axis=2)
        span = cdf.shape[1]
        levels = np.arange(span)
        cdf[:, levels[:, None] < levels] = np.inf
        cdf[:, levels, levels] = np.maximum(cdf[:, levels, levels], 1.0)
        # the count of row entries <= u is searchsorted(row, u, "right")
        u = uniforms[:, g, :]
        start = (row_code[:, None] * span + totals) * span
        new_carry = np.zeros_like(carry)
        for level in range(span):
            new_carry += cdf.take(start + level) <= u
        out[:, :, gate.j] = (totals - new_carry).astype(np.uint16)
        carry = new_carry
    out[:, :, 0] = carry.astype(np.uint16)  # the last gate's mode i
    return out


def depth1_parity_masses(circuit, theta_rows, parity: int) -> np.ndarray:
    """Exact parity-bit distribution of a depth-1 mesh, per angle row.

    Returns shape (R, 2^M): entry [r, code] is the probability that row r
    detects a pattern whose `parity.parity_codes` code (parity bits flipped
    when parity = 1, the first mode most significant) is `code`.  Gate g
    of `circuit` freezes mode j = M-1-g, the bit of weight 2^g, so a pass
    carries mass[r, prefix code, carry] over the g frozen bits so far and
    the photon count of the carried mode; each gate multiplies it by the
    `gate_outcome_table` of its row's angle, split by the parity of the
    frozen count.  The final carry is mode 0, the top bit.

    A gate is two batched matmuls, one per value b of the frozen bit, each
    written into the half of a preallocated output whose codes carry that
    bit; the bit sits ahead of the prefix, so nothing is transposed or
    copied.  The last gate holds its input and its output mass,
    3 2^(M-2) (n+1) floats or 6 (n+1) 2^M bytes per row; with the tables,
    16 (n+1) 2^M bytes per row bound the pass, and callers bound it by
    passing rows in chunks.  Each matmul multiplies one row's own
    matrices, of shapes that do not depend on the batch, so a row's masses
    are bit-identical whatever other rows share the call.
    """
    if parity not in (0, 1):
        raise ValueError(f"parity variant must be 0 or 1, got {parity}")
    theta_rows = _depth1_thetas(circuit, theta_rows)
    m, n, inp = circuit.num_modes, circuit.num_photons, circuit.input
    if (n + 1) << m > _MASS_ENTRIES_CAP:
        raise ValueError(
            f"exact depth-1 masses of {m} modes and {n} photons need "
            f"{(n + 1) << m} floats per row, refusing more than "
            f"{_MASS_ENTRIES_CAP}")
    rows = theta_rows.shape[0]
    levels = np.arange(n + 1)
    mass = np.zeros((rows, 1, n + 1))
    mass[:, 0, inp[-1]] = 1.0
    for g, gate in enumerate(circuit.gates):
        fresh = inp[gate.i]
        table, row_code = gate_outcome_table(
            fresh, range(fresh, n + 1), theta_rows[:, g])
        # table[k, c, u] for carry c in and u out; a carry above n - fresh
        # never occurs
        carries = n + 1 - fresh
        table = table[:, fresh:]
        frozen_bit = ((levels[:carries, None] + fresh - levels) & 1) ^ parity
        steps = table[row_code]
        new = np.empty((rows, 2, 1 << g, n + 1))
        for b in (0, 1):
            np.matmul(mass[:, :, :carries], steps * (frozen_bit == b),
                      out=new[:, b])
        mass = new.reshape(rows, 2 << g, n + 1)
    top_bit = (levels & 1) ^ parity
    out = np.empty((rows, 2, 1 << (m - 1)))
    for b in (0, 1):
        np.matmul(mass, (top_bit == b).astype(float), out=out[:, b])
    return out.reshape(rows, 1 << m)
