"""Lattice-path counting: Dyck paths, staircase paths and their bijection.

A Dyck path of length k runs from height delta1 to height delta2 in unit
up/down steps and never dips below zero.  The closed-form count is the
ballot-style difference of two binomials; enumeration is by backtracking.
The staircase image of a Dyck word lives on the grid whose x axis counts
detectors and whose y axis counts cumulative detected photons, which is
the form used to enumerate reachable detection patterns of sliced meshes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


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
    """All U/D words of the family, in lexicographic order (D < U)."""
    paths: list[str] = []
    _extend_paths(paths, [], spec.k, spec.delta1, spec.delta2)
    return paths


def _extend_paths(paths: list[str], word: list[str], steps_left: int,
                  height: int, d2: int) -> None:
    """Append every completion of `word` that ends at height d2.

    Not nested in its caller: a recursive closure is a reference cycle,
    which would keep each returned list alive until a cyclic collection.
    """
    if steps_left == 0:
        if height == d2:
            paths.append("".join(word))
        return
    # prune: the end height must stay reachable
    if abs(height - d2) > steps_left:
        return
    if height > 0:
        word.append("D")
        _extend_paths(paths, word, steps_left - 1, height - 1, d2)
        word.pop()
    word.append("U")
    _extend_paths(paths, word, steps_left - 1, height + 1, d2)
    word.pop()


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
    """
    m, n = num_modes, num_photons
    if n not in (m, m - 1):
        raise ValueError(
            f"photon number must be M or M-1, got n={n} for M={m}"
        )
    if not 1 <= depth <= m - 1:
        raise ValueError(f"depth must be in [1, {m - 1}], got {depth}")
    delta1 = depth + 1 + (n - m)
    delta2 = delta1 + (m - 1) - n
    return DyckSpec(k=m + n - 1, delta1=delta1, delta2=delta2)
