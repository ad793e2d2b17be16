"""Enumeration and indexing of the bosonic Fock basis of an (M, n) sector.

A detection pattern is an M-tuple of non-negative photon counts summing to
the sector photon number n (a weak M-composition of n).  The canonical
ordering is reverse-lexicographic on the count tuples, so (n, 0, ..., 0)
always has index 0 and the ordering is stable across runs and platforms.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

import numpy as np

Pattern = tuple[int, ...]

# Sector sizes are validated against 64-bit indexing before enumeration.
_MAX_SECTOR = 2**63 - 1
# Practical cap: dense enumeration above this is refused outright.
_ENUMERATION_CAP = 50_000_000


def sector_size(num_modes: int, num_photons: int) -> int:
    """Number of weak M-compositions of n, i.e. binom(n + M - 1, n)."""
    if num_modes < 1:
        raise ValueError(f"mode count must be >= 1, got {num_modes}")
    if num_photons < 0:
        raise ValueError(f"photon number must be >= 0, got {num_photons}")
    return comb(num_photons + num_modes - 1, num_photons)


class SectorBasis:
    """All detection patterns of an (M, n) sector in canonical order.

    Patterns are stored as one uint16 row per basis state.  Lookup in both
    directions (pattern -> index, index -> pattern) is exact and
    round-trips over the whole sector.
    """

    def __init__(self, num_modes: int, num_photons: int):
        size = sector_size(num_modes, num_photons)
        if size > _MAX_SECTOR:
            raise ValueError(
                f"sector ({num_modes}, {num_photons}) exceeds 64-bit indexing"
            )
        if size > _ENUMERATION_CAP:
            raise ValueError(
                f"sector ({num_modes}, {num_photons}) has {size} patterns, "
                f"refusing to enumerate more than {_ENUMERATION_CAP}"
            )
        self.num_modes = num_modes
        self.num_photons = num_photons
        self.size = size
        self.patterns = _enumerate_patterns(num_modes, num_photons)
        # binom table used by the vectorized ranking formula
        self._binom = _binom_table(num_photons + num_modes, num_modes)
        self._index_cache: dict[Pattern, int] | None = None

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
        if self._index_cache is None:
            self._index_cache = {}
        cached = self._index_cache.get(p)
        if cached is None:
            cached = int(self.rank(np.asarray([p]))[0])
            self._index_cache[p] = cached
        return cached

    def rank(self, patterns: np.ndarray) -> np.ndarray:
        """Vectorized canonical index of each row of `patterns`."""
        pats = np.asarray(patterns, dtype=np.int64)
        if pats.ndim == 1:
            pats = pats[None, :]
        m = self.num_modes
        remaining = self.num_photons - np.concatenate(
            [np.zeros((pats.shape[0], 1), dtype=np.int64),
             np.cumsum(pats[:, :-1], axis=1)],
            axis=1,
        )
        ranks = np.zeros(pats.shape[0], dtype=np.int64)
        for d in range(m - 1):
            k = m - 1 - d  # modes to the right of position d
            top = remaining[:, d] - pats[:, d] - 1 + k
            valid = top >= k  # remaining - p - 1 >= 0
            ranks += np.where(valid, self._binom[np.clip(top, 0, None), k], 0)
        return ranks


def _binom_table(max_n: int, max_k: int) -> np.ndarray:
    table = np.zeros((max_n + 1, max_k + 1), dtype=np.int64)
    table[:, 0] = 1
    for i in range(1, max_n + 1):
        for j in range(1, min(i, max_k) + 1):
            table[i, j] = table[i - 1, j - 1] + table[i - 1, j]
    return table


def _enumerate_patterns(num_modes: int, num_photons: int) -> np.ndarray:
    """All weak compositions in reverse-lexicographic order, column by column.

    Rows sharing a prefix are contiguous.  A prefix with r photons left
    continues with r, r-1, ..., 0 in the next mode, and value v spans as
    many rows as there are compositions of r - v into the modes after it.
    """
    size = sector_size(num_modes, num_photons)
    binom = _binom_table(num_photons + num_modes, num_modes)
    out = np.empty((size, num_modes), dtype=np.uint16)
    left = np.array([num_photons], dtype=np.int64)  # photons left per prefix
    for d in range(num_modes - 1):
        after = num_modes - 1 - d  # modes after column d
        spans = left + 1
        ends = np.cumsum(spans)
        first = np.repeat(left, spans)
        value = first - (np.arange(ends[-1]) - np.repeat(ends - spans, spans))
        left = first - value
        out[:, d] = np.repeat(value, binom[left + after - 1, after - 1])
    out[:, -1] = left
    return out


@lru_cache(maxsize=64)
def enumerate_basis(num_modes: int, num_photons: int) -> SectorBasis:
    """Build the canonical basis of the (M, n) sector (cached, immutable)."""
    return SectorBasis(num_modes, num_photons)
