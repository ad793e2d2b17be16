from itertools import combinations
from math import comb

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shallowboson import young
from shallowboson.dyck import catalan_dyck_spec, catalan_number, dyck_count
from shallowboson.fock import enumerate_basis
from shallowboson.young import (
    YoungLattice, box_bitstring_apply, catalan_basis, catalan_lattice,
    catalan_mu, count_boolean_sublattices, export_lattice_json,
    ferrers_to_pattern, lattice_text,
    ordinal_sum_decomposition, parity_distinctness_check, pattern_to_ferrers,
    vertex_to_pattern, young_lattice, young_lattice_size,
)


PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)


def _pattern_set(patterns):
    return set(map(tuple, patterns.tolist()))


def hand_built(mu, vertices):
    """A lattice from listed diagrams, in the given row order, no edges."""
    return YoungLattice(mu, np.array(vertices, dtype=np.int64),
                        np.empty((0, 2), dtype=np.int64))


def recursive_catalan_basis(num_modes, num_photons, depth):
    """Oracle: the prefix-floor filler, a list of tuples in canonical order.

    Each mode d takes every count from the photons left down to the floor
    (d+1) - depth - used that keeps the prefix sum reachable.
    """
    m, n = num_modes, num_photons
    out = []

    def fill(prefix, used):
        d = len(prefix)
        if d == m - 1:
            out.append(tuple(prefix) + (n - used,))
            return
        low = max(0, (d + 1) - depth - used)
        for v in range(n - used, low - 1, -1):
            prefix.append(v)
            fill(prefix, used + v)
            prefix.pop()

    fill([], 0)
    return out


def test_catalan_basis_equals_recursive_oracle():
    for m in range(2, 10):
        for n in (m, m - 1):
            ranker = enumerate_basis(m, n)
            for depth in range(1, m):
                basis = catalan_basis(m, n, depth)
                want = np.array(recursive_catalan_basis(m, n, depth),
                                dtype=np.uint16)
                assert basis.dtype == np.uint16 and basis.shape == want.shape
                assert np.array_equal(basis, want), (m, n, depth)
                # canonical sector order: strictly increasing ranks
                assert np.all(np.diff(ranker.rank(basis)) > 0)


def column_loop_catalan_basis(num_modes, num_photons, depth):
    """Oracle: the sector filtered by a running prefix sum per column."""
    patterns = enumerate_basis(num_modes, num_photons).patterns
    keep = np.ones(len(patterns), dtype=bool)
    prefix = np.zeros(len(patterns), dtype=np.int32)
    for d in range(num_modes - 1):
        prefix += patterns[:, d]
        keep &= prefix >= (d + 1) - depth
    return patterns[keep]


def test_catalan_basis_equals_column_loop_oracle():
    for m in range(2, 12):
        for n in (m, m - 1):
            for depth in range(1, m):
                basis = catalan_basis(m, n, depth)
                want = column_loop_catalan_basis(m, n, depth)
                assert basis.dtype == want.dtype
                assert basis.shape == want.shape
                assert basis.tobytes() == want.tobytes(), (m, n, depth)


def test_catalan_basis_results_are_fresh_arrays():
    sector = enumerate_basis(5, 5).patterns.copy()
    first = catalan_basis(5, 5, 4)  # depth M-1 reaches the whole sector
    assert np.array_equal(first, sector)
    want = catalan_basis(5, 5, 2)
    first[:] = 7
    catalan_basis(5, 5, 2)[:] = 7
    assert np.array_equal(catalan_basis(5, 5, 4), sector)
    assert np.array_equal(catalan_basis(5, 5, 2), want)
    assert np.array_equal(enumerate_basis(5, 5).patterns, sector)


def test_first_differences_example():
    assert ferrers_to_pattern((0, 0, 2, 3, 4)) == (0, 2, 1, 1)
    assert ferrers_to_pattern((0, 0, 0, 0)) == (0, 0, 0)


def test_first_differences_require_leading_zero():
    with pytest.raises(ValueError):
        ferrers_to_pattern((1, 2, 3))


def test_round_trip_over_lattice_vertices():
    lattice = young_lattice((2, 3, 4))
    assert lattice.vertices.shape == (28, 3)
    for vertex in lattice.vertices.tolist():
        extended = (0,) + tuple(vertex)
        assert pattern_to_ferrers(ferrers_to_pattern(extended)) == extended


@pytest.mark.parametrize("mu,size", [
    ((1, 2, 3), 14),
    ((2, 3, 4), 28),
    ((0,), 1),
])
def test_lattice_sizes(mu, size):
    assert len(young_lattice(mu)) == size
    assert young_lattice_size(mu) == size


@pytest.mark.parametrize("mu", [
    (), (0,), (0, 0), (1,) * 20, (0, 0, 3, 3), (2, 2, 4, 4), (1, 2, 3, 5),
    (3, 3, 3), (0, 1, 1, 4, 6)])
def test_lattice_size_counts_the_built_lattice(mu):
    assert young_lattice_size(mu) == len(young_lattice(mu))


def test_lattice_size_of_a_rectangle_is_a_binomial():
    # non-decreasing k-tuples in [0, h]: C(h + k, k), without a build
    assert young_lattice_size((15,) * 8) == comb(23, 8) == 490_314
    assert young_lattice_size((30,) * 10) == comb(40, 10) == 847_660_528


@pytest.mark.parametrize("mu", [(3, 2), (-1, 2)])
def test_lattice_size_validates_the_bound(mu):
    with pytest.raises(ValueError, match="diagram columns"):
        young_lattice_size(mu)


def test_non_int_inputs_are_refused():
    # int() once read (2, 3.7) as the (2, 3) bound, a Boolean order of 2.5
    # counted 0 sublattices and True counted the B_1 ones, and a depth of
    # 1.5 gave the depth-1 patterns
    for mu in ((2, 3.7), (2.0, 3), (True, 2)):
        with pytest.raises(ValueError, match="^diagram column must be an int"):
            young_lattice(mu)
        with pytest.raises(ValueError, match="^diagram column must be an int"):
            young_lattice_size(mu)
    lattice = young_lattice((2, 3, 4))
    for k in (2.5, True, 2.0):
        with pytest.raises(ValueError, match="^Boolean order must be an int"):
            count_boolean_sublattices(lattice, k)
    assert count_boolean_sublattices(lattice, np.int64(1)) == (
        count_boolean_sublattices(lattice, 1))
    for call in (catalan_basis, catalan_mu, catalan_lattice):
        with pytest.raises(ValueError, match="^depth must be an int"):
            call(4, 4, 1.5)
        with pytest.raises(ValueError, match="^photon number must be an int"):
            call(4, 4.0, 1)


def test_lattice_cover_edges_differ_by_one_box():
    lattice = young_lattice((2, 3))
    assert lattice.cover_edges.shape == (11, 2)
    for a, b in lattice.cover_edges.tolist():
        low, high = lattice.vertices[a].tolist(), lattice.vertices[b].tolist()
        assert sum(high) - sum(low) == 1
        assert all(h - l in (0, 1) for l, h in zip(low, high))


def test_lattice_closed_under_meet_and_join():
    lattice = young_lattice((2, 3, 4))
    for a, b in combinations(lattice.vertices, 2):
        assert lattice.meet(a, b) in lattice
        assert lattice.join(a, b) in lattice


@pytest.mark.parametrize("m,n,depth,size", [
    (4, 4, 1, 28),
    (4, 3, 2, 19),
    (4, 3, 1, 14),
])
def test_reachable_pattern_counts(m, n, depth, size):
    assert len(catalan_basis(m, n, depth)) == size


def test_reachable_patterns_match_closed_form():
    for m in range(2, 8):
        for n in (m, m - 1):
            for depth in range(1, m):
                basis = catalan_basis(m, n, depth)
                assert len(_pattern_set(basis)) == len(basis)
                assert len(basis) == dyck_count(catalan_dyck_spec(m, n, depth))


def test_reachable_patterns_strictly_nested():
    for m in range(2, 8):
        for n in (m, m - 1):
            previous = None
            for depth in range(1, m):
                current = _pattern_set(catalan_basis(m, n, depth))
                if previous is not None:
                    assert previous < current
                previous = current
            assert len(previous) == comb(n + m - 1, n)


def test_invalid_sector_rejected():
    with pytest.raises(ValueError):
        catalan_basis(4, 2, 1)
    with pytest.raises(ValueError):
        catalan_basis(4, 4, 0)


def test_polygon_bounds():
    assert catalan_mu(4, 4, 1) == (2, 3, 4)
    assert catalan_mu(4, 3, 1) == (1, 2, 3)
    assert catalan_mu(4, 3, 2) == (2, 3, 3)


def test_vertex_labels_enumerate_reachable_patterns():
    for m, n, depth in [(4, 4, 1), (4, 3, 1), (4, 3, 2), (5, 4, 2),
                        (3, 3, 1)]:
        lattice = catalan_lattice(m, n, depth)
        labels = [vertex_to_pattern(v, n) for v in lattice.vertices]
        assert len(set(labels)) == len(labels)  # injective
        assert set(labels) == _pattern_set(catalan_basis(m, n, depth))


def test_depth1_dimension_is_catalan():
    # |reachable(M, M-1, depth 1)| is the M-th Catalan number
    for m in range(2, 11):
        count = dyck_count(catalan_dyck_spec(m, m - 1, 1))
        assert count == catalan_number(m)
        ratio = count / comb(2 * (m - 1), m - 1)
        assert ratio == pytest.approx((2 / m) * (2 * m - 1) / (1 + m),
                                      rel=1e-12)


def test_box_bitstring_examples():
    top = (0, 1, 2, 3, 3)
    assert box_bitstring_apply(top, (0, 0, 0, 0, 0)) == top
    assert box_bitstring_apply(top, (0, 1, 1, 1, 0)) == (0, 0, 1, 2, 3)
    # every box bit string is admissible on the staircase top
    from itertools import product
    results = {box_bitstring_apply(top, (0,) + bits + (0,))
               for bits in product((0, 1), repeat=3)}
    assert len(results) == 8


def test_box_bitstring_validation():
    with pytest.raises(ValueError):
        box_bitstring_apply((0, 1, 2, 2), (1, 0, 0, 0))
    with pytest.raises(ValueError):
        box_bitstring_apply((0, 1, 1, 2), (0, 0, 1, 0))  # breaks monotony
    with pytest.raises(ValueError):
        box_bitstring_apply((0, 0, 1, 2), (0, 1, 0, 0))  # negative column


@pytest.mark.parametrize("m", [2, 4, 8, 10])
def test_parity_distinctness(m):
    assert parity_distinctness_check(m)


@pytest.mark.parametrize("m", range(2, 11))
def test_box_bitstrings_realize_half_the_qubit_basis(m):
    # the 2^(M-1) box-bit-string removals of the depth-1 top diagram are
    # themselves depth-1 patterns, and their parity images are distinct
    from itertools import product
    top = tuple(range(m)) + (m - 1,)
    basis = _pattern_set(catalan_basis(m, m - 1, 1))
    images = set()
    for free in product((0, 1), repeat=m - 1):
        lowered = box_bitstring_apply(top, (0,) + free + (0,))
        pattern = tuple(b - a for a, b in zip(lowered, lowered[1:]))[::-1]
        assert pattern in basis
        images.add(tuple(v % 2 for v in pattern))
    assert len(images) == 2 ** (m - 1)
    # hence the parity image of the depth-1 set covers at least half
    all_images = {tuple(v % 2 for v in p) for p in basis}
    assert len(all_images) >= 2 ** (m - 1)


def incomparable_pairs(lattice):
    """Oracle: B_2 sublattices are exactly the incomparable vertex pairs."""
    count = 0
    for a, b in combinations(lattice.vertices.tolist(), 2):
        le = all(x <= y for x, y in zip(a, b))
        ge = all(x >= y for x, y in zip(a, b))
        if not le and not ge:
            count += 1
    return count


def recursive_boolean_count(lattice, k, unit_boxes=False):
    """Oracle: per bottom vertex, backtrack over sets of pieces in order.

    A piece is the difference to a vertex above the bottom; a set grows by
    a piece of disjoint column support whose sums with every subset sum
    chosen so far are all vertices.
    """
    vertices = [tuple(v) for v in lattice.vertices.tolist()]
    vset = set(vertices)
    width = len(lattice.mu)
    total = 0
    for bottom in vertices:
        pieces = []
        for v in vertices:
            if v == bottom:
                continue
            delta = tuple(a - b for a, b in zip(v, bottom))
            if any(d < 0 for d in delta):
                continue
            if unit_boxes and sum(delta) != 1:
                continue
            supp = frozenset(c for c in range(width) if delta[c])
            pieces.append((delta, supp))
        pieces.sort()
        total += _extend_piece_sets(pieces, vset, 0, [bottom], frozenset(), k)
    return total


def _extend_piece_sets(pieces, vset, start, chosen_sums, used_support, left):
    if left == 0:
        return 1
    count = 0
    for idx in range(start, len(pieces)):
        delta, supp = pieces[idx]
        if supp & used_support:
            continue
        sums = [tuple(a + d for a, d in zip(s, delta)) for s in chosen_sums]
        if all(s in vset for s in sums):
            count += _extend_piece_sets(pieces, vset, idx + 1,
                                        chosen_sums + sums,
                                        used_support | supp, left - 1)
    return count


@st.composite
def young_bounds(draw):
    """A column bound of width <= 5 with entries <= 4."""
    return tuple(sorted(draw(st.lists(st.integers(0, 4), max_size=5))))


@PROPERTY
@given(young_bounds(), st.integers(1, 4), st.booleans())
def test_boolean_count_equals_recursive_oracle(mu, k, unit_boxes):
    lattice = young_lattice(mu)
    assert count_boolean_sublattices(lattice, k, unit_boxes) == (
        recursive_boolean_count(lattice, k, unit_boxes))


@pytest.mark.parametrize("budget", [1, 3, young._CANDIDATES])
@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(young_bounds(), st.integers(1, 4), st.booleans())
def test_boolean_count_does_not_depend_on_the_budget(budget, mu, k,
                                                     unit_boxes):
    # the budget sizes the bottom blocks and every candidate chunk; a
    # budget of 1 takes one bottom and one candidate at a time
    lattice = young_lattice(mu)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(young, "_CANDIDATES", budget)
        got = count_boolean_sublattices(lattice, k, unit_boxes)
    assert got == recursive_boolean_count(lattice, k, unit_boxes)


def test_boolean_count_memory_bound_and_larger_lattices():
    # counts as the earlier per-bottom counter gave them
    lattice = catalan_lattice(7, 7, 1)
    tracemalloc.start()
    try:
        b3 = count_boolean_sublattices(lattice, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b3 == 113_624
    assert peak <= 8_000_000
    assert count_boolean_sublattices(catalan_lattice(7, 7, 2), 2) == 568_217


@pytest.mark.parametrize("unit_boxes", [False, True])
def test_boolean_count_on_a_wide_chain(unit_boxes):
    # (1,)*64 bounds a 65-element chain: every comparable pair is a B_1,
    # the 64 covers are its single boxes, and a chain holds no B_2
    lattice = young_lattice((1,) * 64)
    assert len(lattice) == 65
    assert count_boolean_sublattices(lattice, 1, unit_boxes) == (
        64 if unit_boxes else comb(65, 2))
    assert count_boolean_sublattices(lattice, 2, unit_boxes) == 0
    assert recursive_boolean_count(lattice, 1, unit_boxes) == (
        64 if unit_boxes else comb(65, 2))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("unit_boxes", [False, True])
def test_boolean_count_ignores_zero_columns(k, unit_boxes):
    # thirty columns pinned at 0 leave a copy of the (3, 3, 3) lattice
    padded = young_lattice((0,) * 30 + (3,) * 3)
    plain = young_lattice((3, 3, 3))
    want = recursive_boolean_count(plain, k, unit_boxes)
    assert count_boolean_sublattices(padded, k, unit_boxes) == want
    assert recursive_boolean_count(padded, k, unit_boxes) == want


def test_boolean_count_checks_every_subset_sum():
    # two disjoint single boxes above (0, 0, 1) whose union is missing: a
    # hand-built vertex set need not be join-closed, so the sum is checked
    vertices = [(0, 0, 1), (0, 0, 2), (0, 1, 1)]
    broken = hand_built((0, 1, 2), vertices)
    assert count_boolean_sublattices(broken, 2) == 0
    closed = vertices + [(0, 1, 2)]
    square = hand_built((0, 1, 2), closed)
    assert count_boolean_sublattices(square, 2) == 1
    assert recursive_boolean_count(broken, 2) == 0
    assert recursive_boolean_count(square, 2) == 1


def test_young_lattice_leaves_no_reference_cycle():
    gc.collect()
    gc.disable()
    try:
        young_lattice((2, 3, 4))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_boolean_count_leaves_no_reference_cycle():
    lattice = young_lattice((2, 3, 4))
    gc.collect()
    gc.disable()
    try:
        count_boolean_sublattices(lattice, 3)
        count_boolean_sublattices(lattice, 2, unit_boxes=True)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_boolean_squares_in_depth1_lattice():
    lattice = young_lattice((1, 2, 3))
    assert count_boolean_sublattices(lattice, 2) == 21
    assert count_boolean_sublattices(lattice, 2) == incomparable_pairs(lattice)
    assert count_boolean_sublattices(lattice, 2, unit_boxes=True) == 9
    assert count_boolean_sublattices(lattice, 3) == 1
    assert count_boolean_sublattices(lattice, 3, unit_boxes=True) == 1


def test_boolean_counts_published_lattices():
    lattice = young_lattice((2, 3, 4))
    assert count_boolean_sublattices(lattice, 3, unit_boxes=True) == 4
    # the general sublattice count also admits taller removable pieces
    assert count_boolean_sublattices(lattice, 3) == 7
    small = young_lattice((2, 3))
    assert count_boolean_sublattices(small, 2) == 5
    assert count_boolean_sublattices(small, 2) == incomparable_pairs(small)
    assert count_boolean_sublattices(small, 2, unit_boxes=True) == 3


def test_ordinal_sum_examples():
    assert ordinal_sum_decomposition(catalan_lattice(3, 3, 1)).factors == [
        2, 2, 1]
    assert ordinal_sum_decomposition(catalan_lattice(2, 2, 1)).factors == [
        1, 1]
    empty = ordinal_sum_decomposition(young_lattice((0,)))
    assert empty.factors == [] and not empty.residual


def test_ordinal_sum_multiplicities():
    decomposition = ordinal_sum_decomposition(catalan_lattice(3, 3, 1))
    assert decomposition.multiplicities == {2: 2, 1: 1}
    assert not decomposition.residual


def test_ordinal_sum_residual_on_broken_chain():
    # bottom and top with no single-box path between them
    broken = hand_built((1, 1), [(1, 1), (0, 0)])
    decomposition = ordinal_sum_decomposition(broken)
    assert decomposition.residual
    assert decomposition.factors == []
    assert decomposition.residual_vertex == (1, 1)


def test_ordinal_sum_depth1_general():
    for m in range(2, 7):
        for n in (m, m - 1):
            decomposition = ordinal_sum_decomposition(
                catalan_lattice(m, n, 1))
            assert not decomposition.residual
            # glued factors cover a chain from bottom to top
            assert decomposition.factors[0] == m - 1 or m == 2


def test_exports_carry_three_labels():
    lattice = catalan_lattice(4, 4, 1)
    text = lattice_text(export_lattice_json(lattice, 4))
    assert text.count("vertex ") == 28
    assert "pattern=" in text and "bits=" in text and "diagram=" in text
    doc = export_lattice_json(lattice, 4)
    assert lattice_text(doc) == text
    assert len(doc["vertices"]) == 28
    assert all(len(v["pattern"]) == 4 for v in doc["vertices"])
    assert all(len(e) == 2 for e in doc["edges"])


def test_vertex_index_of_vertices_and_non_vertices():
    lattice = young_lattice((1, 2))
    assert lattice.vertices.tolist() == [[0, 0], [0, 1], [0, 2], [1, 1],
                                         [1, 2]]
    assert lattice.vertex_index(lattice.vertices).tolist() == [0, 1, 2, 3, 4]
    # decreasing columns, beyond the bound, negative, too tall
    rows = np.array([[1, 0], [0, 3], [-1, 0], [2, 2]])
    assert lattice.vertex_index(rows).tolist() == [-1, -1, -1, -1]
    assert (1, 1) in lattice and (1, 0) not in lattice
    assert (0, 1, 1) not in lattice  # another width is never a vertex


def test_non_integral_rows_are_not_vertices():
    lattice = young_lattice((2, 3))
    assert (1.5, 2) not in lattice and (1.0, 2.0) in lattice
    vertex = int(lattice.vertex_index(np.array([[1, 2]]))[0])
    rows = np.array([[1.7, 2.2], [1.0, 2.0], [1.0, 2.5], [np.nan, 1.0],
                     [np.inf, 1.0], [-np.inf, 0.0], [1e300, 1.0]])
    assert lattice.vertex_index(rows).tolist() == [
        -1, vertex, -1, -1, -1, -1, -1]
    assert lattice.vertex_index(np.empty((0, 2))).tolist() == []


def test_vertex_index_on_a_hand_built_lattice():
    # rows out of (size, columns) order, and not join-closed
    lattice = hand_built((0, 1, 2), [(0, 1, 1), (0, 0, 2), (0, 0, 1)])
    assert lattice.vertex_index(np.array([
        (0, 0, 1), (0, 1, 1), (0, 0, 2), (0, 1, 2)])).tolist() == [
            2, 0, 1, -1]
    assert lattice.top() == (0, 1, 1) and lattice.bottom() == (0, 0, 1)
    assert lattice.join((0, 0, 2), (0, 1, 1)) not in lattice


def test_empty_bound_has_one_empty_vertex():
    lattice = young_lattice(())
    assert lattice.vertices.shape == (1, 0)
    assert lattice.cover_edges.shape == (0, 2)
    assert lattice.vertex_index(np.empty((2, 0), dtype=np.int64)).tolist() \
        == [0, 0]
    assert () in lattice and (0,) not in lattice
    assert lattice.top() == lattice.bottom() == ()
    assert ordinal_sum_decomposition(lattice).factors == []
    assert export_lattice_json(lattice)["vertices"] == [
        {"diagram": [], "pattern": [0], "bits": "0"}]


def test_vertex_index_on_the_wide_chain():
    # vertex t of the chain is t zeros followed by ones
    lattice = young_lattice((1,) * 64)
    chain = np.tril(np.ones((65, 64), dtype=np.int64), -1)[:, ::-1]
    assert np.array_equal(lattice.vertices, chain)
    assert lattice.vertex_index(chain).tolist() == list(range(65))
    assert lattice.cover_edges.tolist() == [[t, t + 1] for t in range(64)]
    off = chain[1:63].copy()
    off[:, 0] = 1  # a 1 ahead of the row's zeros: never a vertex
    assert (lattice.vertex_index(off) == -1).all()
