"""Parity coarse-graining of detection patterns to qubit bit strings.

The two parity maps send a pattern to the componentwise photon-count
parity, optionally flipped (variant j = 1).  Coarse-graining sums the
probability masses of all patterns sharing a bit string.  Closed-form
multiplicity counts give the number of full-sector patterns behind each
canonical bit string, and the coverage verifier checks by enumeration
that the union of parity images charts the whole 2^M qubit basis.

Distributions are arrays: pattern rows (canonical order for a sector
basis) with an aligned probability vector.  Bit strings are int64 rows
coded with the first mode as the most significant bit (`parity_codes`
codes patterns, `codes_to_bits` decodes), and a coarse-grained
distribution is one (2^M,) vector indexed by that code.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .young import catalan_basis

Bits = tuple[int, ...]

_MASS_TOL = 1e-9
_MAX_DENSE_WIDTH = 26  # a 2^26 float vector is 512 MiB


def parity_bits(patterns, j: int = 0) -> np.ndarray:
    """Vectorised parity map: one int64 bit row per pattern row."""
    if j not in (0, 1):
        raise ValueError(f"parity variant must be 0 or 1, got {j}")
    return ((np.asarray(patterns) & 1) ^ j).astype(np.int64)


def parity_codes(patterns, j: int = 0) -> np.ndarray:
    """Integer code of each pattern's parity bits, first mode most
    significant, built one mode column at a time without an int64 bit
    matrix of the whole pattern array."""
    if j not in (0, 1):
        raise ValueError(f"parity variant must be 0 or 1, got {j}")
    patterns = np.asarray(patterns)
    width = patterns.shape[-1]
    if width > 63:
        raise ValueError(f"{width}-bit strings do not fit a 64-bit code")
    codes = np.zeros(patterns.shape[:-1], dtype=np.int64)
    for column in np.moveaxis(patterns, -1, 0):
        codes <<= 1
        codes |= (column & 1) ^ j
    return codes


def codes_to_bits(codes, width: int) -> np.ndarray:
    """Int64 rows of `width` bits, the first bit most significant: the
    parity bits of the patterns :func:`parity_codes` gave each code."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return (np.asarray(codes, dtype=np.int64)[:, None] >> shifts) & 1


def coarse_grain(patterns, probs=None, j: int = 0) -> np.ndarray:
    """Pattern masses summed per parity bit string, a (2^M,) vector
    indexed by code; probs=None counts the patterns (int entries)."""
    patterns = np.asarray(patterns)
    width = patterns.shape[-1]
    if width > _MAX_DENSE_WIDTH:
        raise ValueError(f"{width}-bit strings exceed the {_MAX_DENSE_WIDTH}"
                         "-bit limit of a dense mass vector")
    if probs is not None:
        probs = np.asarray(probs, dtype=float)
        if (probs < 0).any():
            raise ValueError("input masses must be non-negative")
        if not abs(probs.sum() - 1.0) <= _MASS_TOL:
            raise ValueError(f"input masses sum to {probs.sum()!r}, "
                             f"expected 1 within {_MASS_TOL}")
    return np.bincount(parity_codes(patterns, j), weights=probs,
                       minlength=1 << width)


def _check_range(num_modes: int, m: int) -> None:
    if not 0 <= m <= num_modes:
        raise ValueError(
            f"even-mode count m={m} outside [0, {num_modes}]"
        )


def upsilon0(num_modes: int, num_photons: int, m: int) -> int:
    """Patterns whose first m modes are even and last M-m odd.

    Counts the full-sector preimages of the canonical bit string
    (0,...,0,1,...,1) under the plain parity map; zero when the photon
    budget cannot fill M-m odd modes, a domain error when the photon
    total makes the binomial half-arguments non-integer.
    """
    _check_range(num_modes, m)
    if (num_photons - num_modes + m) % 2 != 0:
        raise ValueError(
            f"m={m} gives non-integer half-arguments for "
            f"(M={num_modes}, n={num_photons})"
        )
    lower = (num_photons - num_modes + m) // 2
    if lower < 0:
        return 0
    return comb((num_photons + num_modes + m) // 2 - 1, lower)


def upsilon0_prime(num_modes: int, num_photons: int, m: int) -> int:
    """Preimages of the bit string with m leading zeros under the flipped map.

    Equals upsilon0 with m -> M-m (the flipped map swaps the bit
    positions), including the error behaviour; for odd M the admissible
    m values of the two functions have opposite parity, which is the
    disjoint-ranges half of the coverage argument.
    """
    _check_range(num_modes, m)
    if (num_photons - m) % 2 != 0:
        raise ValueError(
            f"m={m} gives non-integer half-arguments for "
            f"(M={num_modes}, n={num_photons})"
        )
    lower = (num_photons - m) // 2
    if lower < 0:
        return 0
    return comb((num_photons + 2 * num_modes - m) // 2 - 1, lower)


def binom_identity_check(p: int, q: int, r: int) -> bool:
    """Vandermonde-style identity used by the multiplicity derivation."""
    if p < 0 or q < 0 or r < 0 or r > q:
        raise ValueError(f"need non-negative p, q, r with r <= q: {(p, q, r)}")
    lhs = sum(comb(p + s, s) * comb(q - s, r - s) for s in range(r + 1))
    return lhs == comb(p + q + 1, r)


@dataclass
class CoverageReport:
    """Which bit strings the parity images of a sliced mesh reach.

    per_config[(n, j)] counts the depth-i patterns of sector n behind each
    bit string under parity map j, an int vector indexed by code.
    """

    num_modes: int
    depth: int
    per_config: dict[tuple[int, int], np.ndarray]

    @property
    def multiplicities(self) -> np.ndarray:
        """Preimage count per bit string over all configurations."""
        return sum(self.per_config.values())

    def _bit_rows(self, mask) -> list[Bits]:
        codes = np.flatnonzero(mask)
        return list(map(tuple, codes_to_bits(codes, self.num_modes).tolist()))

    @property
    def covered(self) -> list[Bits]:
        return self._bit_rows(self.multiplicities > 0)

    @property
    def missing(self) -> list[Bits]:
        return self._bit_rows(self.multiplicities == 0)

    @property
    def is_complete(self) -> bool:
        return bool(self.multiplicities.all())


def verify_surjectivity(num_modes: int, depth: int,
                        photon_numbers, parities) -> CoverageReport:
    """Enumerate parity images of the depth-i patterns and report coverage.

    Inputs are the one-photon-per-mode patterns (padded with one zero for
    n = M-1); the report lists covered and missing bit strings and the
    preimage multiplicity per bit string, so the non-uniform weighting of
    the qubit basis stays inspectable.  `catalan_basis` range-checks
    (M, n, depth) and `parity_codes` the parity variants.
    """
    sectors = sorted(set(int(n) for n in photon_numbers), reverse=True)
    variants = sorted(set(int(j) for j in parities))
    if not sectors or not variants:
        raise ValueError("photon_numbers and parities must be non-empty")
    bases = {n: catalan_basis(num_modes, n, depth) for n in sectors}
    return CoverageReport(num_modes, depth, {
        (n, j): coarse_grain(bases[n], None, j)
        for n in sectors for j in variants})
