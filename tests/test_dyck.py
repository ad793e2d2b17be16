import gc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shallowboson import dyck
from shallowboson.dyck import (
    DyckSpec, catalan_dyck_spec, catalan_number, dyck_count, dyck_heights,
    enumerate_dyck_paths, staircase_endpoint_heights, staircase_path,
    staircase_to_word,
)

PROPERTY = settings(max_examples=80, derandomize=True, deadline=None,
                    database=None)


def recursive_dyck_paths(spec):
    """Oracle: backtracking, D before U, so in lexicographic order."""
    paths = []
    _extend_paths(paths, [], spec.k, spec.delta1, spec.delta2)
    return paths


def _extend_paths(paths, word, steps_left, height, d2):
    """Append every completion of `word` that ends at height d2."""
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


def as_step_rows(words, k):
    """Oracle words as (count, k) uint8 step rows, 1 for U and 0 for D."""
    return np.array([[step == "U" for step in word] for word in words],
                    dtype=np.uint8).reshape(len(words), k)


@st.composite
def dyck_specs(draw, max_k=14, max_delta=8):
    k = draw(st.integers(0, max_k))
    d1 = draw(st.integers(0, max_delta))
    d2 = draw(st.sampled_from(
        [d for d in range(max_delta + 1) if (k + d - d1) % 2 == 0]))
    return DyckSpec(k, d1, d2)


@pytest.mark.parametrize("spec,count", [
    (DyckSpec(8, 0, 0), 14),
    (DyckSpec(7, 2, 1), 28),
    (DyckSpec(6, 2, 2), 19),
    (DyckSpec(6, 1, 1), 14),
    (DyckSpec(6, 3, 3), 20),
])
def test_published_path_counts(spec, count):
    assert dyck_count(spec) == count


def test_parity_mismatch_rejected():
    with pytest.raises(ValueError):
        DyckSpec(7, 0, 0)
    with pytest.raises(ValueError):
        DyckSpec(6, 1, 2)


def test_single_path_family():
    words = enumerate_dyck_paths(DyckSpec(2, 0, 0))
    assert words.dtype == np.uint8 and words.tolist() == [[1, 0]]


def test_enumeration_matches_closed_form():
    for k in range(0, 13):
        for d1 in range(0, 5):
            for d2 in range(0, 5):
                if (k + d2 - d1) % 2:
                    continue
                spec = DyckSpec(k, d1, d2)
                paths = enumerate_dyck_paths(spec)
                assert paths.shape == (dyck_count(spec), k)
                rows = paths.tolist()
                assert rows == sorted(rows)


@PROPERTY
@given(dyck_specs())
@example(DyckSpec(0, 0, 0))
@example(DyckSpec(0, 3, 3))
@example(DyckSpec(2, 5, 1))   # empty: delta1 > k and delta2 out of reach
@example(DyckSpec(4, 7, 3))   # delta1 > k, one word
@example(DyckSpec(14, 8, 8))
@example(DyckSpec(69, 69, 0))  # the largest accepted family: 69 D steps
@example(DyckSpec(20, 1, 3))   # 90,440 words, several blocks
def test_enumeration_equals_recursive_oracle(spec):
    words = enumerate_dyck_paths(spec)
    assert words.dtype == np.uint8
    assert np.array_equal(
        words, as_step_rows(recursive_dyck_paths(spec), spec.k))


def test_enumeration_spans_several_blocks():
    # C_10 = 16,796 words: more rows than one unranking block holds
    spec = DyckSpec(20, 0, 0)
    assert np.array_equal(enumerate_dyck_paths(spec),
                          as_step_rows(recursive_dyck_paths(spec), 20))


@pytest.mark.parametrize("spec", [
    DyckSpec(12, 2, 2), DyckSpec(11, 0, 3), DyckSpec(13, 5, 0),
    DyckSpec(1, 0, 1), DyckSpec(0, 2, 2),
])
def test_blocks_split_prefixes_and_suffix_families(monkeypatch, spec):
    # blocks of 5 rows: prefixes straddle blocks and span whole blocks
    monkeypatch.setattr(dyck, "_BLOCK_ROWS", 5)
    assert np.array_equal(enumerate_dyck_paths(spec),
                          as_step_rows(recursive_dyck_paths(spec), spec.k))


@pytest.mark.parametrize("spec", [DyckSpec(70, 0, 0), DyckSpec(130, 0, 0)])
def test_enumeration_refuses_counts_beyond_int64(spec):
    with pytest.raises(ValueError, match="int64"):
        enumerate_dyck_paths(spec)


def test_enumeration_leaves_no_reference_cycle():
    # the result must be freed by reference counting alone
    gc.collect()
    gc.disable()
    try:
        enumerate_dyck_paths(DyckSpec(8, 0, 0))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_catalan_special_case():
    for m in range(0, 11):
        assert dyck_count(DyckSpec(2 * m, 0, 0)) == catalan_number(m)


def test_words_never_dip_below_zero():
    for word in enumerate_dyck_paths(DyckSpec(8, 1, 1)):
        heights = dyck_heights(word, DyckSpec(8, 1, 1))
        assert heights.shape == (9,) and heights.min() >= 0
        assert heights[0] == 1 and heights[-1] == 1


def test_staircase_round_trip():
    spec = DyckSpec(8, 0, 0)
    for word in enumerate_dyck_paths(spec):
        points = staircase_path(word, spec)
        assert points.shape == (9, 2)
        assert np.array_equal(staircase_to_word(points, spec), word)


def test_staircase_of_reference_word():
    spec = DyckSpec(8, 0, 0)
    points = staircase_path(as_step_rows(["UUDDUDUD"], 8)[0], spec).tolist()
    assert points[0] == [0, 0]
    assert points[-1] == [4, 4]
    # U advances a detector, D records a photon
    assert points[2] == [2, 0]
    assert points[4] == [2, 2]


def test_staircase_endpoints_recover_heights():
    for spec in (DyckSpec(7, 2, 1), DyckSpec(6, 1, 1), DyckSpec(9, 3, 2)):
        for word in enumerate_dyck_paths(spec)[:10]:
            points = staircase_path(word, spec)
            heights = staircase_endpoint_heights(points, spec)
            assert heights == (spec.delta1, spec.delta2)
            assert all(type(h) is int for h in heights)


def test_invalid_word_rejected():
    with pytest.raises(ValueError, match="does not match k=3"):
        staircase_path("UDX", DyckSpec(3, 1, 2))
    with pytest.raises(ValueError, match="dips below zero"):
        staircase_path([0, 0, 1, 1], DyckSpec(4, 1, 1))


@pytest.mark.parametrize("word,spec,message", [
    ([1, 0, 1], DyckSpec(4, 1, 1), r"shape \(3,\) does not match k=4"),
    ([[1, 0], [0, 1]], DyckSpec(4, 1, 1), "does not match k=4"),
    ([1, 2, 0, 0], DyckSpec(4, 1, 1), "steps must be 0"),
    ([0, 0, 1, 1], DyckSpec(4, 1, 1), "dips below zero"),
    ([1, 1, 1, 0], DyckSpec(4, 1, 1), "ends at height 3, expected 1"),
])
def test_dyck_heights_refusals(word, spec, message):
    with pytest.raises(ValueError, match=message):
        dyck_heights(np.array(word), spec)


@pytest.mark.parametrize("points,spec,message", [
    ([[0, 0], [1, 1], [1, 2]], DyckSpec(2, 0, 0),
     r"not a staircase step: \[0, 0\] -> \[1, 1\]"),
    ([[0, 0], [2, 0]], DyckSpec(1, 0, 1), "not a staircase step"),
    ([0, 1, 1, 1], DyckSpec(2, 0, 0), r"must be \(n, 2\)"),
    ([[0, 0], [1, 0]], DyckSpec(2, 0, 0), "does not match k=2"),
    ([[0, 0], [0, 1], [1, 1]], DyckSpec(2, 0, 0), "dips below zero"),
    ([[0, 0], [1, 0], [2, 0]], DyckSpec(2, 0, 0), "ends at height 2"),
])
def test_staircase_to_word_refusals(points, spec, message):
    with pytest.raises(ValueError, match=message):
        staircase_to_word(points, spec)


@pytest.mark.parametrize("m,n,depth,expected", [
    (4, 4, 1, (7, 2, 1)),
    (4, 3, 1, (6, 1, 1)),
    (4, 3, 2, (6, 2, 2)),
    (4, 3, 3, (6, 3, 3)),
])
def test_mesh_spec_parameters(m, n, depth, expected):
    spec = catalan_dyck_spec(m, n, depth)
    assert (spec.k, spec.delta1, spec.delta2) == expected


def test_mesh_spec_validation():
    with pytest.raises(ValueError):
        catalan_dyck_spec(4, 2, 1)
    with pytest.raises(ValueError):
        catalan_dyck_spec(4, 4, 0)
    with pytest.raises(ValueError):
        catalan_dyck_spec(4, 4, 4)
    with pytest.raises(ValueError, match="at least 2 modes, got 1"):
        catalan_dyck_spec(1, 1, 1)
    with pytest.raises(ValueError, match="at least 2 modes, got 0"):
        catalan_dyck_spec(0, 0, 1)


@pytest.mark.parametrize("bad", [1.5, 4.0, True, np.float64(2)])
def test_mesh_and_path_parameters_must_be_ints(bad):
    # a depth of 1.5 once passed the range check and gave
    # DyckSpec(k=7, delta1=2.5, delta2=1.5)
    for args, name in (((bad, 4, 1), "mode count"),
                       ((4, bad, 1), "photon number"),
                       ((4, 4, bad), "depth")):
        with pytest.raises(ValueError, match=f"^{name} must be an int"):
            catalan_dyck_spec(*args)
    for args, name in (((bad, 0, 0), "k"), ((4, bad, 0), "delta1"),
                       ((4, 0, bad), "delta2")):
        with pytest.raises(ValueError,
                           match=f"^Dyck parameter {name} must be an int"):
            DyckSpec(*args)
    # numpy ints are ints
    spec = catalan_dyck_spec(np.int64(4), np.int64(4), np.int64(1))
    assert spec == DyckSpec(np.int64(7), 2, 1) == DyckSpec(7, 2, 1)
