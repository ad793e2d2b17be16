from math import comb

import numpy as np
import pytest

from shallowboson.fock import (
    SectorBasis, _enumerate_patterns, enumerate_basis, sector_size,
)


def recursive_count(num_modes, num_photons):
    """Independent oracle: count weak compositions by direct recursion."""
    if num_modes == 1:
        return 1
    return sum(recursive_count(num_modes - 1, num_photons - first)
               for first in range(num_photons + 1))


@pytest.mark.parametrize("m", range(1, 9))
@pytest.mark.parametrize("n", range(0, 9))
def test_cardinality_matches_recursive_count(m, n):
    basis = enumerate_basis(m, n)
    assert len(basis) == recursive_count(m, n)
    assert len(basis) == comb(n + m - 1, n)


def test_single_mode_holds_all_photons():
    basis = enumerate_basis(1, 5)
    assert list(basis) == [(5,)]


def test_three_modes_two_photons_patterns():
    expected = {(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1),
                (0, 1, 1)}
    basis = enumerate_basis(3, 2)
    assert set(basis) == expected
    assert len(basis) == 6


def test_basis_is_cached():
    assert enumerate_basis(5, 4) is enumerate_basis(5, 4)
    assert enumerate_basis(5, 4) is not enumerate_basis(5, 5)


def test_first_canonical_pattern_has_index_zero():
    basis = enumerate_basis(4, 3)
    assert basis.pattern(0) == (3, 0, 0, 0)
    assert basis.index((3, 0, 0, 0)) == 0


def test_round_trip_over_full_sector():
    basis = enumerate_basis(4, 3)
    assert len(basis) == 20
    for idx in range(len(basis)):
        assert basis.index(basis.pattern(idx)) == idx


def test_index_out_of_range_rejected():
    basis = enumerate_basis(4, 3)
    with pytest.raises(ValueError):
        basis.pattern(20)
    with pytest.raises(ValueError):
        basis.pattern(-1)


def test_pattern_outside_sector_rejected():
    basis = enumerate_basis(4, 3)
    with pytest.raises(ValueError):
        basis.index((1, 1, 1, 1))
    with pytest.raises(ValueError):
        basis.index((3, 0, 0))


def test_zero_modes_rejected():
    with pytest.raises(ValueError):
        enumerate_basis(0, 3)
    with pytest.raises(ValueError):
        sector_size(0, 1)


def test_enumeration_deterministic():
    a = enumerate_basis(5, 4)
    b = SectorBasis(5, 4)
    assert np.array_equal(a.patterns, b.patterns)


def test_ordering_is_reverse_lexicographic():
    basis = enumerate_basis(3, 2)
    listed = list(basis)
    assert listed == sorted(listed, reverse=True)


def test_vectorized_rank_agrees_with_positions():
    basis = enumerate_basis(5, 5)
    ranks = basis.rank(basis.patterns)
    assert np.array_equal(ranks, np.arange(len(basis)))


def test_oversized_sector_refused():
    with pytest.raises(ValueError):
        SectorBasis(40, 40)


def recursive_patterns(num_modes, num_photons):
    """Oracle: the plain recursion, rebuilding every tail where it is used."""
    size = sector_size(num_modes, num_photons)
    out = np.zeros((size, num_modes), dtype=np.uint16)
    if num_modes == 1:
        out[0, 0] = num_photons
        return out
    row = 0
    for first in range(num_photons, -1, -1):
        tail = recursive_patterns(num_modes - 1, num_photons - first)
        out[row:row + len(tail), 0] = first
        out[row:row + len(tail), 1:] = tail
        row += len(tail)
    return out


def test_column_enumeration_matches_recursion():
    for m in range(1, 9):
        for n in range(0, 9):
            got = _enumerate_patterns(m, n)
            want = recursive_patterns(m, n)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), (m, n)
