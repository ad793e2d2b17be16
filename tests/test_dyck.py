import gc

import pytest

from shallowboson.dyck import (
    DyckSpec, catalan_dyck_spec, catalan_number, dyck_count, dyck_heights,
    enumerate_dyck_paths, staircase_endpoint_heights, staircase_path,
    staircase_to_word,
)


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
    assert enumerate_dyck_paths(DyckSpec(2, 0, 0)) == ["UD"]


def test_enumeration_matches_closed_form():
    for k in range(0, 13):
        for d1 in range(0, 5):
            for d2 in range(0, 5):
                if (k + d2 - d1) % 2:
                    continue
                spec = DyckSpec(k, d1, d2)
                paths = enumerate_dyck_paths(spec)
                assert len(paths) == dyck_count(spec)
                assert paths == sorted(paths)


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
        assert min(heights) >= 0
        assert heights[0] == 1 and heights[-1] == 1


def test_staircase_round_trip():
    spec = DyckSpec(8, 0, 0)
    for word in enumerate_dyck_paths(spec):
        points = staircase_path(word, spec)
        assert staircase_to_word(points, spec) == word


def test_staircase_of_reference_word():
    spec = DyckSpec(8, 0, 0)
    points = staircase_path("UUDDUDUD", spec)
    assert points[0] == (0, 0)
    assert points[-1] == (4, 4)
    # U advances a detector, D records a photon
    assert points[2] == (2, 0)
    assert points[4] == (2, 2)


def test_staircase_endpoints_recover_heights():
    for spec in (DyckSpec(7, 2, 1), DyckSpec(6, 1, 1), DyckSpec(9, 3, 2)):
        for word in enumerate_dyck_paths(spec)[:10]:
            points = staircase_path(word, spec)
            assert staircase_endpoint_heights(points, spec) == (
                spec.delta1, spec.delta2)


def test_invalid_word_rejected():
    with pytest.raises(ValueError):
        staircase_path("UDX", DyckSpec(3, 1, 2))
    with pytest.raises(ValueError):
        staircase_path("DDUU", DyckSpec(4, 1, 1))


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
