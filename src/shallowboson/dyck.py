"""Lattice-path counting: Dyck paths, staircase paths and their bijection.

A Dyck path of length k runs from height delta1 to height delta2 in unit
up/down steps and never dips below zero.  The closed-form count is the
ballot-style difference of two binomials.  Enumeration unranks the
lexicographically ordered words in fixed-size blocks of rows from a table
of completion counts, one vectorised step per column.  The staircase
image of a Dyck word lives on the grid whose x axis counts detectors and
whose y axis counts cumulative detected photons, which is the form used
to enumerate reachable detection patterns of sliced meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

# rows unranked per block: bounds each call's temporaries to a few
# hundred kilobytes whatever the family size
_BLOCK_ROWS = 1 << 14
_INT64_MAX = np.iinfo(np.int64).max
_D, _U, _NL = ord("D"), ord("U"), ord("\n")


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


def enumerate_dyck_paths(spec: DyckSpec) -> list[str]:
    """All U/D words of the family, in lexicographic order (D < U).

    Row r of the ordered family is unranked column by column: at height h
    with s steps left the word continues with D iff r is below the number
    of completions after that D, else with U, and r drops by that number.
    Raises ValueError if a completion count does not fit int64.
    """
    table = _completion_table(spec)
    k = spec.k
    total = int(table[k, spec.delta1 + 1])
    paths: list[str] = []
    for start in range(0, total, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, total - start)
        rank = np.arange(start, start + rows, dtype=np.int64)
        height = np.full(rows, spec.delta1, dtype=np.int64)
        buf = np.empty((rows, k + 1), dtype=np.uint8)  # one word per row
        for col in range(k):
            # table column `height` holds the completions after a D step
            down = table[k - col - 1][height]
            up = rank >= down
            np.subtract(rank, down, out=rank, where=up)
            height += up
            height -= ~up
            buf[:, col] = up
        buf *= _U - _D
        buf += _D
        buf[:, k] = _NL
        # the trailing newline is cut so that split yields `rows` words
        paths.extend(str(buf.reshape(-1)[:-1].data, "ascii").split("\n"))
    return paths


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


def dyck_heights(word: str, spec: DyckSpec) -> list[int]:
    """Height profile of a word, validating the never-below-zero rule."""
    if len(word) != spec.k:
        raise ValueError(
            f"word length {len(word)} does not match k={spec.k}"
        )
    heights = [spec.delta1]
    for step in word:
        if step == "U":
            heights.append(heights[-1] + 1)
        elif step == "D":
            heights.append(heights[-1] - 1)
        else:
            raise ValueError(f"invalid step {step!r} in Dyck word")
        if heights[-1] < 0:
            raise ValueError(f"word {word} dips below zero")
    if heights[-1] != spec.delta2:
        raise ValueError(
            f"word {word} ends at height {heights[-1]}, expected "
            f"{spec.delta2}"
        )
    return heights


def staircase_path(word: str, spec: DyckSpec) -> list[tuple[int, int]]:
    """Map a Dyck word to its staircase path.

    The affine image of the reflect-and-rotate transform: the point after
    t steps is (#U so far, #D so far), i.e. U becomes a unit step right
    (advance one detector) and D a unit step up (one detected photon).
    """
    dyck_heights(word, spec)  # validates length, heights and end point
    points = [(0, 0)]
    x = y = 0
    for step in word:
        if step == "U":
            x += 1
        else:
            y += 1
        points.append((x, y))
    return points


def staircase_to_word(points: list[tuple[int, int]], spec: DyckSpec) -> str:
    """Inverse of :func:`staircase_path`; round-trips exactly."""
    word = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if (x1 - x0, y1 - y0) == (1, 0):
            word.append("U")
        elif (x1 - x0, y1 - y0) == (0, 1):
            word.append("D")
        else:
            raise ValueError(f"not a staircase step: {(x0, y0)} -> {(x1, y1)}")
    joined = "".join(word)
    dyck_heights(joined, spec)
    return joined


def staircase_endpoint_heights(points: list[tuple[int, int]], spec: DyckSpec
                               ) -> tuple[int, int]:
    """Recover (delta1, delta2) from a staircase path of the given family.

    The Dyck height after t steps is delta1 + x_t - y_t, so the start and
    end heights follow from pure coordinate arithmetic.
    """
    x0, y0 = points[0]
    x1, y1 = points[-1]
    start = spec.delta1 + x0 - y0
    end = spec.delta1 + x1 - y1
    return start, end


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
