"""Enumeration and indexing of the bosonic Fock basis of an (M, n) sector.

A detection pattern is an M-tuple of non-negative photon counts summing to
the sector photon number n (a weak M-composition of n).  The canonical
order is the recursion that reads a pattern as the first differences of a
staircase path: first count v = n, n-1, ..., 0, then the narrower sector
of n - v photons.  It is reverse-lexicographic, so (n, 0, ..., 0) always
has index 0, and stable across runs and platforms; one read-only uint16
array, filled in place by the recursion, holds it.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

Pattern = tuple[int, ...]

# Practical cap: dense enumeration above this is refused outright (it
# also keeps every pattern index far inside int64).
_ENUMERATION_CAP = 50_000_000
# Patterns store photon counts as uint16.
_MAX_PHOTONS = np.iinfo(np.uint16).max


def sector_size(num_modes: int, num_photons: int) -> int:
    """Number of weak M-compositions of n, i.e. binom(n + M - 1, n)."""
    if num_modes < 1:
        raise ValueError(f"mode count must be >= 1, got {num_modes}")
    if num_photons < 0:
        raise ValueError(f"photon number must be >= 0, got {num_photons}")
    return comb(num_photons + num_modes - 1, num_photons)


class SectorBasis:
    """All detection patterns of an (M, n) sector in canonical order.

    Patterns are stored as one uint16 row per basis state, so sectors of
    more than 65535 photons are refused.  Lookup in both
    directions (pattern -> index, index -> pattern) is exact and
    round-trips over the whole sector.
    """

    def __init__(self, num_modes: int, num_photons: int):
        size = sector_size(num_modes, num_photons)
        if num_photons > _MAX_PHOTONS:
            raise ValueError(
                f"sector ({num_modes}, {num_photons}) holds more photons "
                f"than a uint16 pattern entry stores ({_MAX_PHOTONS})")
        if size > _ENUMERATION_CAP:
            raise ValueError(
                f"sector ({num_modes}, {num_photons}) has {size} patterns, "
                f"refusing to enumerate more than {_ENUMERATION_CAP}"
            )
        self.num_modes = num_modes
        self.num_photons = num_photons
        self.size = size
        # binom table of the ranking formula
        self._binom_by_k = _binom_table(num_photons + num_modes,
                                        num_modes).T.copy()
        self.patterns = _enumerate_patterns(num_modes, num_photons)
        self.patterns.flags.writeable = False

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for row in self.patterns:
            yield tuple(int(v) for v in row)

    def pattern(self, index: int) -> Pattern:
        if not 0 <= index < self.size:
            raise ValueError(
                f"index {index} outside sector of size {self.size}"
            )
        return tuple(int(v) for v in self.patterns[index])

    def index(self, pattern) -> int:
        p = tuple(int(v) for v in pattern)
        if len(p) != self.num_modes or any(v < 0 for v in p):
            raise ValueError(f"pattern {p} does not belong to the sector")
        if sum(p) != self.num_photons:
            raise ValueError(
                f"pattern {p} has {sum(p)} photons, sector holds "
                f"{self.num_photons}"
            )
        return int(self.rank(np.asarray([p]))[0])

    def rank(self, patterns: np.ndarray) -> np.ndarray:
        """Vectorized canonical index of each row of `patterns`."""
        pats = np.asarray(patterns)
        if not np.can_cast(pats.dtype, np.int64):
            pats = pats.astype(np.int64)
        if pats.ndim == 1:
            pats = pats[None, :]
        m = self.num_modes
        # photons left for the columns after the ones ranked so far
        remaining = np.full(pats.shape[0], self.num_photons, dtype=np.int64)
        ranks = np.zeros(pats.shape[0], dtype=np.int64)
        for d in range(m - 1):
            k = m - 1 - d  # modes to the right of position d
            remaining -= pats[:, d]
            # binom(k - 1, k) = 0 stands for "no photons left after d"
            ranks += self._binom_by_k[k][np.maximum(remaining + (k - 1),
                                                    k - 1)]
        return ranks


def _binom_table(max_n: int, max_k: int) -> np.ndarray:
    table = np.zeros((max_n + 1, max_k + 1), dtype=np.int64)
    table[:, 0] = 1
    for i in range(1, max_n + 1):
        for j in range(1, min(i, max_k) + 1):
            table[i, j] = table[i - 1, j - 1] + table[i - 1, j]
    return table


def _enumerate_patterns(num_modes: int, num_photons: int) -> np.ndarray:
    """All weak compositions in canonical order, filled in place by the
    recursion: the last rows of the sector, whose leading counts are 0,
    hold the (w, n) sector in their last w columns, grown for w = 1..M.
    Its rows of first count v are the (w - 1, n) rows of first count >= v,
    the first sector_size(w - 1, n - v), with v moved from that count into
    the new column: one slice copy per v.  The v = 0 block is the
    (w - 1, n) sector itself, already in place."""
    size = sector_size(num_modes, num_photons)
    out = np.zeros((size, num_modes), dtype=np.uint16)
    out[-1, -1] = num_photons  # the one-mode sector
    for w in range(2, num_modes + 1):
        col = num_modes - w  # the new column
        narrower = out[size - sector_size(w - 1, num_photons):, col + 1:]
        row = size - sector_size(w, num_photons)
        for v in range(num_photons, 0, -1):
            block = out[row:row + sector_size(w - 1, num_photons - v)]
            block[:, col + 1:] = narrower[:len(block)]
            block[:, col + 1] -= v
            block[:, col] = v
            row += len(block)
    return out


@lru_cache(maxsize=64)
def enumerate_basis(num_modes: int, num_photons: int) -> SectorBasis:
    """Build the canonical basis of the (M, n) sector (cached, immutable)."""
    return SectorBasis(num_modes, num_photons)
