"""Seeded sampling of detection patterns, and the exact depth-1 chain.

Two sampling routes: inverse-CDF draws of indices into an explicit
distribution (`sample_indices`; `sample_patterns` gathers their rows),
and a sequential sampler for depth-1 meshes that draws patterns gate by
gate without ever building the output distribution.  In the depth-1
cascade each gate freezes one output mode, and conditioning on its
measured count collapses the carried mode to a definite Fock state, so
a chain of two-mode blocks samples exactly.  A single slice commutes its
phases past the detectors, so the chain takes splitter angles alone.
`gate_outcome_table` gives the outcome probabilities of one gate for every
(angle, photon total) asked for, each total from its own unpadded block,
and `_gate_tables` builds them for both depth-1 engines, one call per
distinct `fresh` photon count over all rows' angles.  The sampler builds
them once per call, up to a top it raises as the totals grow, and reads
their cumulative sums: each shot's outcome is the number of entries of
its CDF row that do not exceed its uniform draw, found by binary lifting
over the row padded with +inf to a power-of-two width.

The same tables, up to the photon count n, drive `depth1_parity_masses`,
the exact parity-bit distribution of a depth-1 mesh: a forward pass over
(bit-prefix code, carried photon count), one pair of matmuls per gate and
row, that never enumerates a Fock sector.
`depth1_shift_masses`, the one entry point of the shift-rule stencil,
builds the tables of one angle vector and of its raised and lowered
rows in one call, runs that pass on the vector, keeping the mass ahead
of each gate, and returns its masses with an iterator over the 2(M-1)
shifted rows: one backward sweep that builds no table and yields the
rows gate by gate, never holding more than one gate's two rows.

An explicit distribution is a pattern array with an aligned probability
vector: a sector `basis.patterns` with `state.probabilities()` in
canonical order, or the 2^M code masses, each index its own code.  Both
sampling routes return uint16 rows.
"""

from __future__ import annotations

import itertools

import numpy as np

from .interferometer import _angle_rows, two_mode_block_column
from .dyck import _check_int
from .parity import _check_masses, _check_variant

# The exact depth-1 pass is sized in units of 2^M (n+1) floats per row (its
# last gate holds 3/4 of one); meshes beyond M = n = 20 (176 MB per unit)
# are refused.
_MASS_ENTRIES_CAP = 21 << 20
# `gate_outcome_table` builds each total's columns in chunks of angles
# whose product stays below this many bytes.
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


def _check_samples(n_samples: int) -> None:
    """The sample count every sampler refuses: a non-int or below one."""
    _check_int("sample count", n_samples)
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")


def sample_indices(probs, n_samples: int, stream_seed) -> np.ndarray:
    """Draw n_samples i.i.d. int64 indices, index k with mass probs[k]:
    the one inverse-CDF draw, over the entries in the order given;
    identical seeds give identical draws."""
    _check_samples(n_samples)
    probs = np.asarray(probs, dtype=float)
    if probs.ndim != 1:
        raise ValueError(f"need a 1-D mass vector, got shape {probs.shape}")
    _check_masses(probs)
    cdf = np.cumsum(probs)
    cdf[-1] = max(cdf[-1], 1.0)
    rng = np.random.default_rng(stream_seed)
    return np.searchsorted(cdf, rng.random(n_samples), side="right")


def sample_patterns(patterns, probs, n_samples: int,
                    stream_seed) -> np.ndarray:
    """The uint16 rows of `patterns` at the `sample_indices` of `probs`."""
    patterns = np.asarray(patterns, dtype=np.uint16)
    if patterns.ndim != 2 or np.shape(probs) != (len(patterns),):
        raise ValueError(f"need one probability per row of a 2-D pattern "
                         f"array, got {np.shape(probs)} and {patterns.shape}")
    return patterns[sample_indices(probs, n_samples, stream_seed)]


def gate_outcome_table(fresh: int, totals, thetas):
    """Outcome probabilities of one depth-1 gate under R rows' angles.

    The gate's first mode brings `fresh` photons and the carried mode the
    rest of the pair's photon total t.  For the k-th distinct angle among
    thetas, table[k, t, u] is the probability
    |<u, t-u| U_k |fresh, t-fresh>|^2 that u photons go on in the carried
    mode and t - u stay in the frozen one, for every t in `totals`; the
    entries u > t and the rows of totals not listed are zero.  Returns the
    (K, T, T) table, T = max(totals) + 1, and each row's angle index k.
    Each total is squared from its own `two_mode_block_column`, so an
    entry depends on (fresh, t, u, angle) alone.
    """
    angles, row_code = np.unique(thetas, return_inverse=True)
    totals = np.asarray(totals, dtype=np.int64)
    top = int(totals.max())
    table = np.zeros((len(angles), top + 1, top + 1))
    for t in totals.tolist():
        # the product holds one complex (t+1, t+1) block per angle
        step = max(1, _PRODUCT_BYTES // (16 * (t + 1) ** 2))
        for start in range(0, len(angles), step):
            chunk = slice(start, start + step)
            table[chunk, t, :t + 1] = np.abs(
                two_mode_block_column(t, fresh, angles[chunk])) ** 2
    return table, row_code


def _gate_tables(circuit, theta_rows, top: int):
    """Outcome tables to total top: a dict of one `gate_outcome_table` per
    `fresh` count over all rows' angles at its gates, and codes[r, g], row
    r's angle index at gate g.  No entry depends on the batch or top."""
    fresh = np.array([circuit.input[gate.i] for gate in circuit.gates])
    tables, codes = {}, np.empty(theta_rows.shape, dtype=np.int64)
    for count in sorted(set(fresh.tolist())):
        gates = fresh == count
        tables[count], index = gate_outcome_table(
            count, range(count, max(count, top) + 1),
            theta_rows[:, gates].ravel())
        codes[:, gates] = index.reshape(len(theta_rows), gates.sum())
    return tables, codes


def _depth1_thetas(circuit, theta_rows) -> np.ndarray:
    """Checked (R, M-1) theta rows of a circuit laid out as the depth-1
    mesh of `build_reck_slices`, pairs (M-2, M-1) down to (0, 1), the gate
    order both engines rely on."""
    layout = [(g.i, g.j) for g in circuit.gates]
    if circuit.depth != 1 or layout != [
            (j, j + 1) for j in range(circuit.num_modes - 2, -1, -1)]:
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
    batching.  Returns uint16 patterns of shape (R, n_samples, M), a
    transposed view of a gate-major (M, R, n_samples) buffer that each gate
    fills one frozen mode at a time.  Besides it, the call holds the
    R (M-1) n_samples float uniforms of all gates, and per `fresh` count
    a table and a padded CDF, K (top+1) (top+1+width) floats for K distinct
    angles, rebuilt at top = min(n, t | 7) when a total t passes top.
    """
    _check_samples(n_samples)
    theta_rows = _depth1_thetas(circuit, theta_rows)
    m, inp = circuit.num_modes, circuit.input
    rows = theta_rows.shape[0]
    if rows == 0:
        return np.zeros((0, n_samples, m), dtype=np.uint16)

    root = as_seed_sequence(stream_seed)
    uniforms = np.empty((rows, m - 1, n_samples))
    for r, child in enumerate(root.spawn(rows)):
        np.random.default_rng(child).random(out=uniforms[r])

    # gate-major, so gate g writes its frozen mode j as one plane
    out = np.empty((m, rows, n_samples), dtype=np.uint16)
    # the last mode is the first carry; gate g freezes its mode j
    carry = np.full((rows, n_samples), inp[-1], dtype=np.int64)
    top = -1
    for g, gate in enumerate(circuit.gates):
        fresh = inp[gate.i]
        totals = carry + fresh
        most = int(totals.max())
        if most > top:
            # a larger top leaves every entry already read as it was
            top = min(circuit.num_photons, most | 7)
            cdfs, codes = _gate_tables(circuit, theta_rows, top)
            for key, table in cdfs.items():
                # cdf[k, t]: total t's outcome CDF under angle k, >= 1 from
                # u = t on, +inf up to a power-of-two width; drops the table
                span = table.shape[1]
                cdf = np.full((len(table), span,
                               1 << (span - 1).bit_length()), np.inf)
                np.maximum(np.cumsum(table, axis=2),
                           np.triu(np.ones((span, span))),
                           out=cdf[:, :, :span])
                cdfs[key] = cdf
        cdf, row_code = cdfs[fresh], codes[:, g]
        span, width = cdf.shape[1:]
        # each row is non-decreasing, so binary lifting finds the count
        # of its entries <= u, searchsorted(row, u, "right"); a count never
        # exceeds its total, so the probes start at the largest power of
        # two <= most, log2(most) + 1 of them
        flat = cdf.ravel()
        u = uniforms[:, g, :]
        start = (row_code[:, None] * span + totals) * width
        pos = start.copy()
        step = (1 << most.bit_length()) >> 1
        while step:
            pos += (flat[step - 1:].take(pos) <= u) * step
            step >>= 1
        carry = pos - start
        np.subtract(totals, carry, out=out[gate.j], casting="unsafe")
    out[0] = carry  # the last gate's mode i
    return out.transpose(1, 2, 0)


def _depth1_tables(circuit, theta_rows, parity: int):
    """Outcome tables of every gate of the exact depth-1 passes.

    Entry g of the returned list pairs gate g's table, split by its frozen
    bit, with each row's index k into it: for carry c in and u out,
    table[k, b, c, u] is `gate_outcome_table`[k, c + fresh, u] when the
    c + fresh - u photons left in the frozen mode give parity bit b, and
    0 otherwise: the `_gate_tables` of totals up to n, split.  Refuses
    meshes beyond M = n = 20.
    """
    _check_variant(parity)
    theta_rows = _depth1_thetas(circuit, theta_rows)
    m, n = circuit.num_modes, circuit.num_photons
    if (n + 1) << m > _MASS_ENTRIES_CAP:
        raise ValueError(
            f"exact depth-1 masses of {m} modes and {n} photons need "
            f"{(n + 1) << m} floats per row, refusing more than "
            f"{_MASS_ENTRIES_CAP}")
    levels = np.arange(n + 1)
    tables, codes = _gate_tables(circuit, theta_rows, n)
    for count, table in tables.items():
        # a carry above n - fresh never occurs
        frozen = (levels[:n + 1 - count, None] + count - levels) & 1
        tables[count] = table[:, None, count:] * (
            frozen ^ parity == [[[0]], [[1]]])
    return [(tables[circuit.input[gate.i]], codes[:, g])
            for g, gate in enumerate(circuit.gates)]


def _forward_masses(circuit, tables):
    """Yield one row's mass[0, prefix code, carry] before each gate, then
    after the last one: shape (1, 2^g, n+1) ahead of gate g, (1, 2^(M-1),
    n+1) at the end.  Gate g writes each value b of its frozen bit into
    the half of a preallocated output whose codes carry that bit, by one
    matmul; the bit sits ahead of the prefix, so nothing is transposed."""
    n = circuit.num_photons
    mass = np.zeros((1, 1, n + 1))
    mass[:, 0, circuit.input[-1]] = 1.0
    for g, (table, codes) in enumerate(tables):
        yield mass
        steps = table[codes]
        carries = steps.shape[2]
        new = np.empty((1, 2, 1 << g, n + 1))
        for b in (0, 1):
            np.matmul(mass[:, :, :carries], steps[:, b], out=new[:, b])
        mass = new.reshape(1, 2 << g, n + 1)
    yield mass


def _top_bit(n: int, parity: int) -> np.ndarray:
    """(2, n+1) indicator that a final carry of u photons in mode 0 gives
    the top parity bit b."""
    return ((np.arange(n + 1) & 1) ^ parity == np.arange(2)[:, None]
            ).astype(float)


def depth1_parity_masses(circuit, theta_rows, parity: int) -> np.ndarray:
    """Exact parity-bit distribution of a depth-1 mesh, per angle row.

    Returns shape (R, 2^M): entry [r, code] is the probability that row r
    detects a pattern whose `parity.parity_codes` code (parity bits flipped
    when parity = 1, the first mode most significant) is `code`.  Gate g
    of `circuit` freezes mode j = M-1-g, the bit of weight 2^g, so a pass
    carries mass[r, prefix code, carry] over the g frozen bits so far and
    the photon count of the carried mode; each gate multiplies it by the
    outcome table of its row's angle, split by the parity of the frozen
    count.  The final carry is mode 0, the top bit.

    The gate tables of all rows are built at once, then each row's pass
    runs alone on its slice of them.  A pass holds at most its last gate's
    input and output mass, 3 2^(M-2) (n+1) floats or 6 (n+1) 2^M bytes,
    and 16 (n+1) 2^M bytes bound it.  Table entries do not depend on their
    batch, and a pass multiplies one row's own matrices, so a row's masses
    are bit-identical whatever other rows share the call.
    """
    tables = _depth1_tables(circuit, theta_rows, parity)
    out = []
    for r in range(len(tables[0][1])):
        row = [(table, codes[r:r + 1]) for table, codes in tables]
        for mass in _forward_masses(circuit, row):
            pass  # keep the mass after the last gate
        out.append(_read_out(circuit, mass, parity))
    return np.array(out).reshape(len(out), 1 << circuit.num_modes)


def _read_out(circuit, mass, parity: int) -> np.ndarray:
    """(R, 2^M) code masses from the (R, 2^(M-1), n+1) mass after the last
    gate, the final carry giving the top bit."""
    rows = len(mass)
    top_bit = _top_bit(circuit.num_photons, parity)
    out = np.empty((rows, 2, 1 << (circuit.num_modes - 1)))
    for b in (0, 1):
        np.matmul(mass, top_bit[b], out=out[:, b])
    return out.reshape(rows, 1 << circuit.num_modes)


def depth1_shift_masses(circuit, thetas, parity: int):
    """Exact parity masses of one depth-1 row and of its shift stencil.

    Returns the (1, 2^M) `depth1_parity_masses` of `thetas`, bit for bit,
    and an iterator of (g, masses) over the gates g = M-2, ..., 0:
    masses[0] is the row of `thetas` with angle g raised by pi/2,
    masses[1] with it lowered by pi/2, up to summation order.  A shifted
    row differs from the base row only in gate g's table, so its masses
    contract the base row's forward mass ahead of gate g, gate g's
    shifted table split by its frozen bit, and after[s, u], the
    probability that the base row's later gates give the bits above gate
    g the code s from carry u.  The call builds the tables of `thetas`
    and of its raised and lowered rows in one `_depth1_tables` call (48
    (M-1) (n+1)^2 bytes; about 0.15 ms at M = 11 for the shifted rows) and
    runs the base row's pass on row 0, keeping the mass ahead of every
    gate; the iterator's backward sweep builds no table: it folds gate g
    into `after` once its rows are out, and writes every gate's rows into
    one (2, 2^M) buffer that the next gate overwrites.  The forward masses
    (4 (n+1) 2^M bytes in all) and `after` hold at most 2^(M-1) (n+1)
    floats each.  Refuses the meshes `depth1_parity_masses` refuses, at
    the call.
    """
    thetas = _depth1_thetas(circuit, [thetas])[0]  # refused as one row
    tables = _depth1_tables(circuit, np.stack(
        [thetas, thetas + np.pi / 2, thetas - np.pi / 2]), parity)
    sweep = _forward_masses(circuit, [(t, codes[:1]) for t, codes in tables])
    forward = list(itertools.islice(sweep, len(tables)))
    return (_read_out(circuit, next(sweep), parity),
            _shift_sweep(circuit, parity, tables, forward))


def _shift_sweep(circuit, parity: int, tables, forward):
    """The backward sweep of `depth1_shift_masses` over the `_depth1_tables`
    of its base, raised and lowered rows and the base row's masses
    `forward` ahead of each gate, which it consumes; it builds no table."""
    after = _top_bit(circuit.num_photons, parity)
    out = np.empty(2 << circuit.num_modes)
    for g in reversed(range(len(tables))):
        cols = after.shape[1]
        table, codes = tables[g]
        rows = table[codes, :, :, :cols]
        step, steps = rows[0], rows[1:]
        carries = step.shape[1]
        ahead = forward.pop()[0]
        # masses[shift, code above gate g, bit of gate g, prefix code]
        masses = out.reshape(2, len(after), 2, 1 << g)
        for b in (0, 1):
            np.matmul(after, (ahead[:, :carries] @ steps[:, b])
                      .swapaxes(1, 2), out=masses[:, :, b])
        yield g, out.reshape(2, -1)
        if g:
            folded = np.empty((len(after), 2, carries))
            for b in (0, 1):
                np.matmul(after, step[b].T, out=folded[:, b])
            after = folded.reshape(-1, carries)
