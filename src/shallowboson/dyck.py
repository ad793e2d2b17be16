"""Lattice-path counting: Dyck paths, staircase paths and their bijection.

A Dyck path of length k runs from height delta1 to height delta2 in unit
up/down steps and never dips below zero.  The closed-form count is the
ballot-style difference of two binomials.  Words are rows of 0/1 steps
(1 = U, 0 = D).  Enumeration unranks the lexicographically ordered words
in fixed-size blocks of rows from a table of completion counts, one
vectorised step per column.  The staircase image of a Dyck word lives on
the grid whose x axis counts detectors and whose y axis counts cumulative
detected photons, which is the form used to enumerate reachable
detection patterns of sliced meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

# rows unranked per block: bounds each call's temporaries to a few
# hundred kilobytes whatever the family size (the output itself is
# count x k bytes)
_BLOCK_ROWS = 1 << 14
_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class DyckSpec:
    """Path length k with start height delta1 and end height delta2."""

    k: int
    delta1: int
    delta2: int

    def __post_init__(self):
        if self.k < 0 or self.delta1 < 0 or self.delta2 < 0:
            raise ValueError(f"negative Dyck parameters: {self}")
        if (self.k + self.delta2 - self.delta1) % 2 != 0:
            raise ValueError(
                f"k + delta2 - delta1 must be even, got {self}"
            )


def _binom0(n: int, k: int) -> int:
    """Binomial coefficient that is 0 for out-of-range lower index."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def dyck_count(spec: DyckSpec) -> int:
    """Closed-form size of the path family described by `spec`."""
    k, d1, d2 = spec.k, spec.delta1, spec.delta2
    up = (k + d2 - d1) // 2
    reflected = (k - d2 - d1 - 2) // 2
    return _binom0(k, up) - _binom0(k, reflected)


def catalan_number(m: int) -> int:
    """C_m = binom(2m, m) * 2 / (2 + 2m)."""
    if m < 0:
        raise ValueError(f"Catalan index must be >= 0, got {m}")
    return comb(2 * m, m) * 2 // (2 + 2 * m)


def enumerate_dyck_paths(spec: DyckSpec) -> np.ndarray:
    """All words of the family, in lexicographic order (D < U).

    Words are returned as one (count, k) uint8 array of step rows, 1 for
    U and 0 for D.  Row r of the ordered family is unranked column by
    column: at height h with s steps left the word continues with D iff r
    is below the number of completions after that D, else with U, and r
    drops by that number.  Raises ValueError if a completion count does
    not fit int64.
    """
    table = _completion_table(spec)
    k = spec.k
    total = int(table[k, spec.delta1 + 1])
    words = np.empty((total, k), dtype=np.uint8)
    for start in range(0, total, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, total)
        rank = np.arange(start, stop, dtype=np.int64)
        height = np.full(stop - start, spec.delta1, dtype=np.int64)
        for col in range(k):
            # table column `height` holds the completions after a D step
            down = table[k - col - 1][height]
            up = rank >= down
            np.subtract(rank, down, out=rank, where=up)
            height += up
            height -= ~up
            words[start:stop, col] = up
    return words


def _completion_table(spec: DyckSpec) -> np.ndarray:
    """int64 table[s, h + 1]: words of s steps from height h to delta2.

    Only words that never go below zero count; column 0 stands for height
    -1 and stays 0.  Heights stop at max(delta1, delta2) + k: paths that
    would climb above are dropped, which leaves exact every entry a word
    of the family can reach.  Rows are summed in uint64, which holds the
    sum of two int64 entries, and a row with an entry beyond int64 is
    refused before it is used, so the table never wraps around.
    """
    k, d2 = spec.k, spec.delta2
    width = max(spec.delta1, d2) + k + 2
    table = np.zeros((k + 1, width), dtype=np.uint64)
    table[0, d2 + 1] = 1
    for s in range(1, k + 1):
        table[s, 1:-1] = table[s - 1, :-2] + table[s - 1, 2:]
        if table[s].max() > _INT64_MAX:
            raise ValueError(
                f"{spec} is too large to enumerate: its completion counts "
                f"exceed int64"
            )
    return table.view(np.int64)


def dyck_heights(word, spec: DyckSpec) -> np.ndarray:
    """(k+1,) height profile of a step row, validating the family rules."""
    word = np.asarray(word)
    if word.shape != (spec.k,):
        raise ValueError(
            f"word shape {word.shape} does not match k={spec.k}"
        )
    if not np.isin(word, (0, 1)).all():
        raise ValueError(f"steps must be 0 (D) or 1 (U), got {word}")
    steps = 2 * word.astype(np.int64) - 1
    heights = spec.delta1 + np.concatenate(([0], np.cumsum(steps)))
    if heights.min() < 0:
        raise ValueError(f"word {word} dips below zero")
    if heights[-1] != spec.delta2:
        raise ValueError(
            f"word {word} ends at height {heights[-1]}, expected "
            f"{spec.delta2}"
        )
    return heights


def staircase_path(word, spec: DyckSpec) -> np.ndarray:
    """Map a Dyck step row to its (k+1, 2) staircase points.

    The affine image of the reflect-and-rotate transform: the point after
    t steps is (#U so far, #D so far), i.e. U becomes a unit step right
    (advance one detector) and D a unit step up (one detected photon).
    """
    dyck_heights(word, spec)  # validates length, steps, heights, end point
    up = np.asarray(word, dtype=np.int64)
    moves = np.stack([up, 1 - up], axis=1)
    return np.concatenate([np.zeros((1, 2), np.int64), moves.cumsum(axis=0)])


def staircase_to_word(points, spec: DyckSpec) -> np.ndarray:
    """Inverse of :func:`staircase_path`; round-trips exactly."""
    points = np.asarray(points, dtype=np.int64)
    if points.ndim != 2 or points.shape[1] != 2:
        raise ValueError(f"points must be (n, 2), got shape {points.shape}")
    moves = np.diff(points, axis=0)
    right = (moves == (1, 0)).all(axis=1)
    bad = ~right & ~(moves == (0, 1)).all(axis=1)
    if bad.any():
        t = int(np.argmax(bad))
        raise ValueError(f"not a staircase step: {points[t].tolist()} -> "
                         f"{points[t + 1].tolist()}")
    word = right.astype(np.uint8)
    dyck_heights(word, spec)
    return word


def staircase_endpoint_heights(points, spec: DyckSpec) -> tuple[int, int]:
    """Recover (delta1, delta2) from a staircase path of the given family.

    The Dyck height after t steps is delta1 + x_t - y_t, so the start and
    end heights follow from pure coordinate arithmetic.
    """
    (x0, y0), (x1, y1) = np.asarray(points)[[0, -1]].tolist()
    return spec.delta1 + x0 - y0, spec.delta1 + x1 - y1


def catalan_dyck_spec(num_modes: int, num_photons: int, depth: int) -> DyckSpec:
    """Dyck family whose paths enumerate the depth-i reachable patterns.

    For one photon per mode (n = M) or one trailing empty mode (n = M-1)
    the staircase polygon of the first `depth` mesh slices has k = M+n-1,
    start height depth + 1 + (n - M) and end height start + (M-1) - n.
    Meshes, reachable bases and coverage reports range-check (M, n, depth)
    here alone.
    """
    m, n = num_modes, num_photons
    if m < 2:
        raise ValueError(f"mesh needs at least 2 modes, got {m}")
    if n not in (m, m - 1):
        raise ValueError(
            f"photon number must be M or M-1, got n={n} for M={m}"
        )
    if not 1 <= depth <= m - 1:
        raise ValueError(f"depth must be in [1, {m - 1}], got {depth}")
    delta1 = depth + 1 + (n - m)
    delta2 = delta1 + (m - 1) - n
    return DyckSpec(k=m + n - 1, delta1=delta1, delta2=delta2)
