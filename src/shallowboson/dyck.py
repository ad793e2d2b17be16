"""Lattice-path counting: Dyck paths, staircase paths and their bijection.

A Dyck path of length k runs from height delta1 to height delta2 in unit
up/down steps and never dips below zero.  The closed-form count is the
ballot-style difference of two binomials.  Words are rows of 0/1 steps
(1 = U, 0 = D).  Enumeration meets in the middle: the few valid first
halves and the second-half family of each height a first half ends at
are unranked from tables of completion counts as integer codes, one
vectorised step per column, and the ordered family is assembled from
the two code tables in fixed-size blocks of rows.  The staircase image
of a Dyck word lives on the grid whose x axis counts detectors and whose
y axis counts cumulative detected photons, which is the form used to
enumerate reachable detection patterns of sliced meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from numbers import Integral

import numpy as np

# rows assembled per block: bounds each block's temporaries to about a
# megabyte whatever the family size (the output itself is count x k
# bytes, the half tables O(k 2^(k/2)) codes)
_BLOCK_ROWS = 1 << 14
_INT64_MAX = np.iinfo(np.int64).max


def _check_int(name: str, value) -> None:
    """Refuse a count that is not an int (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class DyckSpec:
    """Path length k with start height delta1 and end height delta2."""

    k: int
    delta1: int
    delta2: int

    def __post_init__(self):
        for name in ("k", "delta1", "delta2"):
            _check_int(f"Dyck parameter {name}", getattr(self, name))
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
    U and 0 for D.  A word is read as a binary number, U = 1 and the
    first step most significant, so numeric order is lexicographic order.
    The word splits into a prefix of a = k // 2 steps and a suffix of
    b = k - a steps.  The prefixes that reach a height from which delta2
    can still be reached are unranked in order, and so is, in one
    batched pass, the suffix family of each height a prefix ends at.
    Row r of a family is unranked column by column: at height h with s
    steps left the word continues with D iff r is below the number of
    completions after that D, else with U, and r drops by that number.
    Both halves are left-aligned uint64 codes, so the half tables hold
    O(k 2^(k/2)) codes for a family of up to 2^k words.  The family is
    each prefix followed by every suffix of its end height: blocks of
    rows take their prefixes by one np.repeat and their suffixes by one
    index gather, and np.unpackbits turns each row's 128-bit code into
    its k steps.  Raises ValueError if a completion count does not fit
    int64.
    """
    k, d1 = spec.k, spec.delta1
    a = k // 2
    b = k - a
    target = np.zeros(max(d1, spec.delta2) + k + 2, dtype=np.uint64)
    target[spec.delta2 + 1] = 1
    table = _completion_table(spec, target, k)
    words = np.empty((int(table[k, d1 + 1]), k), dtype=np.uint8)
    # prefixes: a steps from delta1 to any height that b steps complete
    heads = _completion_table(spec, table[b] > 0, a)
    count = int(heads[a, d1 + 1])
    prefix, end = _unrank(heads, np.arange(count, dtype=np.int64),
                          np.full(count, d1, dtype=np.int64))
    # suffixes: the family of each end height, the families concatenated
    heights, family = np.unique(end, return_inverse=True)
    sizes = table[b, heights + 1]
    offsets = np.cumsum(sizes) - sizes
    suffix, _ = _unrank(table[:b + 1],
                        np.arange(sizes.sum()) - np.repeat(offsets, sizes),
                        np.repeat(heights, sizes))
    # output rows of each prefix, and the suffix index less the row index
    spans = table[b, end + 1]
    stops = np.cumsum(spans)
    shift = offsets[family] - (stops - spans)
    # a row's code: its first 64 steps, then the rest, big-endian
    code = np.empty((min(len(words), _BLOCK_ROWS), 2), dtype=">u8")
    lead, trail = np.uint64(a), np.uint64(64 - a)
    for start in range(0, len(words), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(words))
        # the prefixes holding rows start to stop - 1, and their rows here
        lo, hi = np.searchsorted(stops, (start, stop - 1), side="right")
        at = slice(lo, hi + 1)
        rows = (np.minimum(stops[at], stop)
                - np.maximum(stops[at] - spans[at], start))
        tail = suffix[np.repeat(shift[at], rows) + np.arange(start, stop)]
        block = code[:stop - start]
        block[:, 0] = np.repeat(prefix[at], rows) | tail >> lead
        block[:, 1] = tail << trail
        words[start:stop] = np.unpackbits(block.view(np.uint8), axis=1,
                                          count=k)
    return words


def _unrank(table: np.ndarray, rank: np.ndarray, height: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Left-aligned uint64 codes of the words of the given ranks.

    Word r from height h is the r-th of those counted by table[s, h + 1],
    s = len(table) - 1 steps; returns the codes and the end heights.
    `rank` and `height` are updated in place.
    """
    steps = len(table) - 1
    code = np.zeros(len(rank), dtype=np.uint64)
    for col in range(steps):
        # table column `height` holds the completions after a D step
        down = table[steps - col - 1][height]
        up = rank >= down
        np.subtract(rank, down, out=rank, where=up)
        height += up
        height -= ~up
        code <<= np.uint64(1)
        code |= up
    return code << np.uint64(64 - steps), height


def _completion_table(spec: DyckSpec, target: np.ndarray, steps: int
                      ) -> np.ndarray:
    """int64 table[s, h + 1]: words of s <= steps steps from height h.

    Only words that never go below zero and stop at a height flagged in
    `target` (indexed like a table row) count; column 0 stands for height
    -1 and stays 0.  Heights stop at max(delta1, delta2) + k: paths that
    would climb above are dropped, which leaves exact every entry a word
    of the family can reach.  Rows are summed in uint64, which holds the
    sum of two int64 entries, and a row with an entry beyond int64 is
    refused before it is used, so the table never wraps around.
    """
    table = np.zeros((steps + 1, len(target)), dtype=np.uint64)
    table[0] = target
    for s in range(1, steps + 1):
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
    Meshes, reachable bases and coverage reports check the types and
    ranges of (M, n, depth) here alone.
    """
    m, n = num_modes, num_photons
    _check_int("mode count", m)
    _check_int("photon number", n)
    _check_int("depth", depth)
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
