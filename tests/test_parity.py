from collections import Counter
from math import comb

import numpy as np
import pytest

from shallowboson.fock import enumerate_basis
from shallowboson.interferometer import build_reck_slices, evolve, reck_input
from shallowboson.parity import (
    binom_identity_check, coarse_grain, codes_to_bits, parity_bits,
    parity_codes, upsilon0, upsilon0_prime, verify_surjectivity,
)
from shallowboson.problems import QuboProblem, benchmark_qubo6
from shallowboson.solver import ParityObjective
from shallowboson.young import catalan_basis

Bits = tuple[int, ...]


def parity_map(pattern, j: int = 0) -> Bits:
    """Componentwise parity of the photon counts, flipped when j = 1.

    The scalar reference for :func:`parity_bits`.
    """
    if j not in (0, 1):
        raise ValueError(f"parity variant must be 0 or 1, got {j}")
    return tuple((int(v) % 2) ^ j for v in pattern)


def bits_to_codes(bits) -> np.ndarray:
    """Integer code of each bit row, first bit most significant."""
    bits = np.asarray(bits, dtype=np.int64)
    width = bits.shape[-1]
    if width > 63:
        raise ValueError(f"{width}-bit strings do not fit a 64-bit code")
    return bits @ (1 << np.arange(width - 1, -1, -1, dtype=np.int64))


def brute_multiplicity(num_modes, num_photons, m):
    """Oracle: count patterns with the first m modes even, the rest odd."""
    return sum(
        1 for p in enumerate_basis(num_modes, num_photons)
        if all(v % 2 == 0 for v in p[:m]) and all(v % 2 == 1 for v in p[m:])
    )


def brute_multiplicity_flipped(num_modes, num_photons, m):
    """Oracle: count patterns with the first m modes odd, the rest even."""
    return sum(
        1 for p in enumerate_basis(num_modes, num_photons)
        if all(v % 2 == 1 for v in p[:m]) and all(v % 2 == 0 for v in p[m:])
    )


def test_parity_map_examples():
    for map_ in (parity_map, lambda p, j: tuple(parity_bits([p], j)[0])):
        assert map_((3, 0, 1, 0), 0) == (1, 0, 1, 0)
        assert map_((1, 2, 1, 0), 0) == (1, 0, 1, 0)
        assert map_((0,) * 6, 1) == (1,) * 6
        with pytest.raises(ValueError):
            map_((1, 0), 2)


def reference_coarse_grain(dist, j):
    """Oracle: the dict coarse-graining, parity_map summed in a Counter."""
    out = Counter()
    for pattern, mass in dist.items():
        out[parity_map(pattern, j)] += mass
    return out


def by_code(counter, width, dtype=float):
    """A bit string -> mass mapping as a (2^width,) vector indexed by code."""
    out = np.zeros(1 << width, dtype=dtype)
    for bits, mass in counter.items():
        out[bits_to_codes(bits)] = mass
    return out


def test_coarse_grain_point_mass():
    masses = coarse_grain([(3, 0, 1, 0)], [1.0], 0)
    assert masses.shape == (16,)
    assert masses.tolist() == by_code({(1, 0, 1, 0): 1.0}, 4).tolist()


def test_coarse_grain_uniform_sector():
    basis = enumerate_basis(4, 4)
    assert len(basis) == 35
    even_count = brute_multiplicity(4, 4, 4)
    grained = coarse_grain(basis.patterns, np.full(35, 1.0 / 35), 0)
    assert grained[0] == pytest.approx(even_count / 35, abs=1e-12)
    assert grained[0] == pytest.approx(upsilon0(4, 4, 4) / 35, abs=1e-12)


def test_coarse_grain_preserves_mass():
    rng = np.random.default_rng(0)
    basis = enumerate_basis(5, 4)
    weights = rng.random(len(basis))
    weights /= weights.sum()
    for j in (0, 1):
        assert coarse_grain(basis.patterns, weights, j).sum() == (
            pytest.approx(1.0, abs=1e-12))


def test_coarse_grain_rejects_unnormalized():
    with pytest.raises(ValueError):
        coarse_grain([(1, 0)], [0.7], 0)
    with pytest.raises(ValueError, match="sum to .*nan"):
        coarse_grain([(1, 0), (0, 1)], [np.nan, 1.0], 0)


def test_coarse_grain_rejects_negative_masses():
    # the masses sum to 1, and the grained vector would hold -0.5
    with pytest.raises(ValueError, match="non-negative"):
        coarse_grain([(1, 0), (0, 1)], [1.5, -0.5], 0)


def test_coarse_grain_refuses_wide_rows():
    # a 27-mode row would need a 2^27 vector; refused before allocating
    for probs in (None, [1.0]):
        with pytest.raises(ValueError, match="27-bit"):
            coarse_grain(np.ones((1, 27), dtype=np.uint16), probs)


def test_coarse_grain_matches_counter_oracle():
    rng = np.random.default_rng(21)
    for m in range(3, 7):
        for n in (m, m - 1):
            circ = build_reck_slices(m, 2, reck_input(m, n))
            k = len(circ.gates)
            state = evolve(circ, rng.uniform(0, 2 * np.pi, k),
                           rng.uniform(0, 2 * np.pi, k))
            probs = state.probabilities()
            dist = {p: float(v) for p, v in zip(state.basis, probs)}
            for j in (0, 1):
                got = coarse_grain(state.basis.patterns, probs, j)
                want = by_code(reference_coarse_grain(dist, j), m)
                assert got.shape == (2 ** m,)
                assert np.all(np.abs(got - want) <= 1e-15)
                counts = coarse_grain(state.basis.patterns, None, j)
                assert counts.dtype == np.int64
                assert np.array_equal(counts, by_code(reference_coarse_grain(
                    dict.fromkeys(dist, 1), j), m, int))


def test_parity_bits_match_scalar_map():
    patterns = enumerate_basis(5, 5).patterns
    for j in (0, 1):
        assert [tuple(row) for row in parity_bits(patterns, j).tolist()] == [
            parity_map(p, j) for p in patterns.tolist()]
    with pytest.raises(ValueError):
        parity_bits(patterns, 2)


def test_parity_bits_are_uint8():
    patterns = np.array([[3, 0, 2], [1, 1, 256]], dtype=np.uint16)
    for j in (0, 1):
        bits = parity_bits(patterns, j)
        assert bits.dtype == np.uint8
        assert bits.tolist() == [[1 ^ j, j, j], [1 ^ j, 1 ^ j, j]]
    assert parity_bits([[5, 2]]).dtype == np.uint8


@pytest.mark.parametrize("variant", [True, False, 1.0, np.float64(0)],
                         ids=["True", "False", "1.0", "float64(0)"])
def test_parity_variant_must_be_an_int(variant):
    patterns = np.array([[1, 0, 2]])
    with pytest.raises(ValueError, match="parity variant"):
        parity_bits(patterns, variant)
    with pytest.raises(ValueError, match="parity variant"):
        parity_codes(patterns, variant)
    with pytest.raises(ValueError, match="parity variant"):
        ParityObjective(QuboProblem(benchmark_qubo6()), 6, variant, 1)


def test_bit_codes_round_trip():
    codes = np.arange(2 ** 6)
    bits = codes_to_bits(codes, 6)
    assert bits[1].tolist() == [0, 0, 0, 0, 0, 1]
    assert np.array_equal(bits_to_codes(bits), codes)
    assert np.array_equal(parity_codes(bits), codes)  # 0/1 counts are bits
    with pytest.raises(ValueError):
        bits_to_codes(np.zeros((1, 64), dtype=np.int64))


def test_parity_codes_match_bit_codes():
    for m in range(1, 9):
        for n in range(m + 1):
            patterns = enumerate_basis(m, n).patterns
            for j in (0, 1):
                assert np.array_equal(
                    parity_codes(patterns, j),
                    bits_to_codes(parity_bits(patterns, j)))
    samples = catalan_basis(5, 4, 1).reshape(6, 7, 5)  # any leading shape
    assert np.array_equal(parity_codes(samples, 1),
                          bits_to_codes(parity_bits(samples, 1)))
    with pytest.raises(ValueError):
        parity_codes(np.zeros((1, 64), dtype=np.uint16))
    with pytest.raises(ValueError):
        parity_codes(samples, 2)


def test_multiplicity_examples():
    assert upsilon0(4, 4, 2) == brute_multiplicity(4, 4, 2) == 4
    assert upsilon0(4, 4, 4) == brute_multiplicity(4, 4, 4) == 10
    assert upsilon0(6, 0, 6) == 1
    assert upsilon0_prime(4, 4, 2) == brute_multiplicity_flipped(4, 4, 2) == 4


def test_prime_is_substitution_at_boundary():
    # upsilon0_prime(M, n, 0) plays upsilon0(M, n, M): the two calls agree
    # in value when admissible and in raising when the half-arguments are
    # non-integer (here both are ill-posed for M = n = 3)
    with pytest.raises(ValueError):
        upsilon0_prime(3, 3, 0)
    with pytest.raises(ValueError):
        upsilon0(3, 3, 3)
    assert upsilon0_prime(4, 4, 0) == upsilon0(4, 4, 4)


def test_inadmissible_parity_rejected():
    with pytest.raises(ValueError):
        upsilon0(4, 4, 1)
    with pytest.raises(ValueError):
        upsilon0(4, 4, 5)
    with pytest.raises(ValueError):
        upsilon0_prime(4, 3, 0)


@pytest.mark.parametrize("m", range(2, 8))
def test_multiplicities_match_brute_force(m):
    for n in (m - 1, m):
        start = (m + n) % 2
        total = 0
        for k in range(start, m + 1, 2):
            value = upsilon0(m, n, k)
            assert value == brute_multiplicity(m, n, k)
            assert upsilon0_prime(m, n, m - k) == value
            total += comb(m, k) * value
        assert total == comb(n + m - 1, n)
        # the flipped map's own admissible classes, counted directly
        for k in range(n % 2, m + 1, 2):
            assert upsilon0_prime(m, n, k) == brute_multiplicity_flipped(
                m, n, k)


def test_binomial_identity():
    assert binom_identity_check(0, 0, 0)
    assert binom_identity_check(2, 5, 3)  # both sides comb(8, 3) = 56
    assert all(binom_identity_check(p, q, r)
               for p in range(13) for q in range(13) for r in range(q + 1))
    with pytest.raises(ValueError):
        binom_identity_check(1, 2, 3)


def test_depth1_coverage_is_complete():
    report = verify_surjectivity(4, 1, {3, 4}, {0, 1})
    assert report.is_complete
    assert len(report.covered) == 16
    assert report.missing == []


def test_full_depth_odd_modes_even_photons():
    report = verify_surjectivity(5, 4, {4}, {0, 1})
    assert report.is_complete


def test_single_parity_covers_half():
    report = verify_surjectivity(4, 3, {4}, {0})
    assert len(report.covered) == 8
    assert all(sum(b) % 2 == 0 for b in report.covered)
    assert report.missing == sorted(
        b for b in map(tuple, codes_to_bits(np.arange(16), 4).tolist())
        if sum(b) % 2 == 1)


def test_coverage_counts_match_counter_oracle():
    report = verify_surjectivity(5, 2, {4, 5}, {0, 1})
    total = Counter()
    for n in (4, 5):
        for j in (0, 1):
            want = Counter(parity_map(p, j) for p in catalan_basis(5, n, 2))
            assert report.per_config[(n, j)].dtype == np.int64
            assert np.array_equal(report.per_config[(n, j)],
                                  by_code(want, 5, int))
            total.update(want)
    assert np.array_equal(report.multiplicities, by_code(total, 5, int))
    assert report.covered == sorted(total)


def test_empty_configuration_rejected():
    with pytest.raises(ValueError):
        verify_surjectivity(4, 1, set(), {0})
    with pytest.raises(ValueError):
        verify_surjectivity(4, 1, {4}, set())
    with pytest.raises(ValueError, match="photon number must be M or M-1"):
        verify_surjectivity(4, 1, {2}, {0})
    with pytest.raises(ValueError, match="at least 2 modes"):
        verify_surjectivity(1, 1, {1}, {0})
    with pytest.raises(ValueError, match=r"depth must be in \[1, 3\]"):
        verify_surjectivity(4, 4, {4}, {0})
    with pytest.raises(ValueError, match="parity variant"):
        verify_surjectivity(4, 1, {4}, {0, 2})


def test_surjectivity_refuses_non_int_inputs():
    # int() once read a photon number of 4.7 as 4 and a parity of 1.5 or
    # True as 1, and reported on configurations nobody asked for
    with pytest.raises(ValueError, match="photon number must be an int"):
        verify_surjectivity(4, 1, {4.7}, {0})
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="depth must be an int"):
            verify_surjectivity(4, bad, {4}, {0})
    for bad in (1.5, True, np.float64(0)):
        with pytest.raises(ValueError,
                           match="parity variant must be an int"):
            verify_surjectivity(4, 1, {4}, {bad})


def test_multiplicities_track_preimage_counts():
    report = verify_surjectivity(4, 1, {4}, {0})
    total_patterns = report.per_config[(4, 0)].sum()
    assert total_patterns == 28  # depth-1 reachable patterns of (4, 4)
    assert report.multiplicities.sum() == 28
