"""Ferrers diagrams, Young lattices, box bit strings, Boolean sublattices.

Diagrams are written column-wise as non-decreasing integer tuples (the
reflected French convention); a Young lattice over a bound mu holds every
diagram contained in mu, ordered by inclusion, with componentwise min/max
as meet/join.  The reachable detection patterns of a sliced mesh are the
first differences of staircase paths inside a polygon, which makes them
the vertices of one of these lattices.  The mode axis of the circuit runs
opposite to the detector axis of the polygon, so pattern labels obtained
from diagrams are index-reversed relative to circuit patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate, product

import numpy as np

from .dyck import _check_int, catalan_dyck_spec
from .fock import enumerate_basis

Diagram = tuple[int, ...]


def _validate_diagram(columns) -> Diagram:
    cols = tuple(columns)
    for v in cols:
        _check_int("diagram column", v)
    cols = tuple(int(v) for v in cols)
    if any(v < 0 for v in cols):
        raise ValueError(f"diagram columns must be non-negative: {cols}")
    if any(a > b for a, b in zip(cols, cols[1:])):
        raise ValueError(f"diagram columns must be non-decreasing: {cols}")
    return cols


def ferrers_to_pattern(diagram) -> tuple[int, ...]:
    """First differences of an extended diagram prefixed with 0."""
    cols = _validate_diagram(diagram)
    if not cols or cols[0] != 0:
        raise ValueError(f"extended diagram must start with 0: {cols}")
    return tuple(b - a for a, b in zip(cols, cols[1:]))


def pattern_to_ferrers(pattern) -> Diagram:
    """Cumulative sums prefixed with 0; inverse of ferrers_to_pattern."""
    total = 0
    cols = [0]
    for v in pattern:
        if v < 0:
            raise ValueError(f"pattern entries must be non-negative: {pattern}")
        total += v
        cols.append(total)
    return tuple(cols)


@dataclass(eq=False)
class YoungLattice:
    """All diagrams contained in mu, with single-box cover edges.

    `vertices` is a (V, len(mu)) int64 array, one diagram per row, sorted
    by (size, columns); `cover_edges` is an (E, 2) array of (lower, upper)
    vertex indices.  Membership goes through :meth:`vertex_index` alone.
    """

    mu: Diagram
    vertices: np.ndarray
    cover_edges: np.ndarray

    def __len__(self) -> int:
        return len(self.vertices)

    def __contains__(self, diagram) -> bool:
        row = np.asarray(diagram)
        return (row.shape == (len(self.mu),)
                and self.vertex_index(row[None])[0] >= 0)

    @cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex byte records in sorted order, and the index of each."""
        records = _records(self.vertices)
        order = np.argsort(records)
        return records[order], order

    def vertex_index(self, rows) -> np.ndarray:
        """Vertex index of each len(mu)-column row, -1 for a non-vertex."""
        table, order = self._index
        rows = np.asarray(rows)
        if rows.dtype.kind not in "iu":  # int64 values or no vertex
            rows = rows.astype(float)
            ok = ((np.floor(rows) == rows) & (abs(rows) < 2.0 ** 63)).all(1)
            rows = np.where(ok[:, None], rows, -1)  # no diagram column is -1
        found = _records(rows)
        at = np.searchsorted(table, found).clip(max=len(table) - 1)
        return np.where(table[at] == found, order[at], -1)

    def meet(self, a: Diagram, b: Diagram) -> Diagram:
        return tuple(np.minimum(a, b).tolist())

    def join(self, a: Diagram, b: Diagram) -> Diagram:
        return tuple(np.maximum(a, b).tolist())

    def top(self) -> Diagram:
        return tuple(max(self.vertices.tolist(), key=lambda v: (sum(v), v)))

    def bottom(self) -> Diagram:
        return tuple(min(self.vertices.tolist(), key=lambda v: (sum(v), v)))


def young_lattice(mu) -> YoungLattice:
    """Lattice of all diagrams bounded columnwise by mu."""
    bound = _validate_diagram(mu)
    k = len(bound)
    # column by column: each prefix continues with every value from its
    # last column up to the bound (no recursive closure, so no cycle)
    rows = np.zeros((1, 0), dtype=np.int64)
    last = np.zeros(1, dtype=np.int64)
    for top in bound:
        spans = top + 1 - last
        ends = np.cumsum(spans)
        last = np.repeat(last + spans - ends, spans) + np.arange(ends[-1])
        rows = np.column_stack([np.repeat(rows, spans, axis=0), last])
    # rows are lexicographic already; a stable sort puts size first
    rows = rows[np.argsort(rows.sum(axis=1), kind="stable")]
    lattice = YoungLattice(bound, rows, np.empty((0, 2), dtype=np.int64))
    # one lookup per column keeps every temporary the size of `rows`
    upper = np.empty((len(rows), k), dtype=np.int64)
    for c, step in enumerate(np.eye(k, dtype=np.int64)):
        upper[:, c] = lattice.vertex_index(rows + step)
    lower, column = np.nonzero(upper >= 0)
    lattice.cover_edges = np.column_stack([lower, upper[lower, column]])
    return lattice


def young_lattice_size(mu) -> int:
    """Vertex count of `young_lattice(mu)`, without building it.

    A DP over columns: ends[h] counts the diagrams of the columns so far
    whose last column has height h, so it takes O(len(mu) * mu[-1]) steps.
    """
    ends = [1]  # the empty diagram
    for top in _validate_diagram(mu):
        ends = list(accumulate(ends + [0] * (top + 1 - len(ends))))
    return sum(ends)


def catalan_mu(num_modes: int, num_photons: int, depth: int) -> Diagram:
    """Column bound of the staircase polygon of the first `depth` slices."""
    m, n = num_modes, num_photons
    catalan_dyck_spec(m, n, depth)  # validates the (M, n, depth) combination
    return tuple(
        min(n, d + depth + (n - m)) for d in range(1, m)
    )


def catalan_basis(num_modes: int, num_photons: int, depth: int
                  ) -> np.ndarray:
    """Detection patterns reachable by the first `depth` mesh slices.

    Input is one photon per mode, padded with a trailing empty mode for
    n = M-1.  A pattern is reachable iff each prefix sum over modes
    0..d obeys sum >= (d+1) - depth; the reachable rows of the (M, n)
    sector are returned as a uint16 array of shape (count, M) in
    canonical (reverse-lexicographic) sector order.  The count equals the
    closed-form staircase-path count of catalan_dyck_spec(M, n, depth).

    The smallest depth that reaches each row of the sector is computed
    once per (M, n) and cached; a call keeps the rows whose reach depth
    is at most `depth` by one gather of whole rows viewed as byte
    records, so the result is a fresh array, never a view of the sector.
    """
    m, n = num_modes, num_photons
    catalan_dyck_spec(m, n, depth)  # validates
    patterns = enumerate_basis(m, n).patterns
    rows = _records(patterns, patterns.dtype)[_reach_depth(m, n) <= depth]
    return rows.view(patterns.dtype).reshape(len(rows), m)


@lru_cache(maxsize=64)
def _reach_depth(num_modes: int, num_photons: int) -> np.ndarray:
    """uint8 smallest reaching depth, max(0, max_d (d+1) - prefix_d), of
    each row of the (M, n) sector (read-only)."""
    patterns = enumerate_basis(num_modes, num_photons).patterns
    # running prefix sum, one column at a time: no (rows, M) temporaries;
    # int8 holds every value, as enumerable sectors have M, n <= 14
    reach = np.zeros(len(patterns), dtype=np.int8)
    prefix = np.zeros(len(patterns), dtype=np.int8)
    for d in range(num_modes - 1):
        prefix += patterns[:, d]
        np.maximum(reach, (d + 1) - prefix, out=reach)
    reach = reach.view(np.uint8)  # non-negative: the same bytes
    reach.flags.writeable = False
    return reach


def catalan_lattice(num_modes: int, num_photons: int, depth: int
                    ) -> YoungLattice:
    """Young lattice whose diagrams enumerate the depth-i patterns."""
    return young_lattice(catalan_mu(num_modes, num_photons, depth))


def vertex_to_pattern(vertex: Diagram, num_photons: int) -> tuple[int, ...]:
    """Circuit detection pattern labelling a polygon-lattice vertex.

    The vertex is extended with a leading 0 and the photon-count ceiling,
    differenced, and index-reversed (detectors are counted from the far
    end of the mode axis).
    """
    cols = tuple(int(v) for v in vertex)
    if cols and cols[-1] > num_photons:
        raise ValueError(
            f"vertex {cols} exceeds the photon ceiling {num_photons}"
        )
    diffs = ferrers_to_pattern((0,) + cols + (num_photons,))
    return diffs[::-1]


def box_bitstring_apply(top, box_bits) -> Diagram:
    """Remove the boxes flagged by a box bit string from a top diagram.

    The bit string carries the boundary zeros (0, s_1, ..., s_{k-1}, 0);
    the result must remain a valid diagram.
    """
    top = _validate_diagram(top)
    bits = tuple(int(b) for b in box_bits)
    if len(bits) != len(top):
        raise ValueError("box bit string length must match the diagram")
    if bits[0] != 0 or bits[-1] != 0:
        raise ValueError("box bit string must start and end with 0")
    if any(b not in (0, 1) for b in bits):
        raise ValueError("box bit string entries must be 0 or 1")
    lowered = tuple(t - b for t, b in zip(top, bits))
    if any(v < 0 for v in lowered) or any(
            a > b for a, b in zip(lowered, lowered[1:])):
        raise ValueError(
            f"removing {bits} from {top} leaves an invalid diagram {lowered}"
        )
    return lowered


def parity_distinctness_check(num_modes: int) -> bool:
    """All box bit strings keep distinct images under the parity map.

    The 2^(M-1) box bit strings of the top staircase diagram produce
    bit-difference sequences whose parity images must all differ; this is
    the constructive core of depth-1 surjectivity.
    """
    m = num_modes
    if m < 2:
        raise ValueError(f"need at least 2 modes, got {m}")
    base = (1,) * (m - 1) + (0,)  # first differences of the top diagram
    images = set()
    for free in product((0, 1), repeat=m - 1):
        s = (0,) + free + (0,)
        pattern = tuple(
            base[i] + (s[i] - s[i + 1]) for i in range(m)
        )
        images.add(tuple(v % 2 for v in pattern))
    return len(images) == 2 ** (m - 1)


# rows of each bottom block's dominance table, of each candidate chunk and
# of each vertex_index call of count_boolean_sublattices: bounds its
# temporaries whatever the lattice size
_CANDIDATES = 1 << 14


def count_boolean_sublattices(lattice: YoungLattice, k: int,
                              unit_boxes: bool = False) -> int:
    """Number of Boolean B_k sublattices of the lattice.

    A B_k sublattice is a bottom vertex plus k disjoint box sets (column
    intervals with pairwise disjoint column support) such that all 2^k
    subset removals from the top land on vertices; the 2^k elements are
    closed under meet and join and each sublattice is counted once.  With
    unit_boxes=True the box sets are restricted to single boxes, which is
    the plain remove-k-boxes counting.

    Bottoms are taken in blocks of about _CANDIDATES / len(vertices) rows;
    one dominance comparison of a block against all vertices gives every
    (bottom, piece) pair, a piece being the difference to a vertex above
    the bottom.  The pieces of a bottom are grouped by their packed column
    support, and only group pairs of one bottom with disjoint supports are
    expanded into piece pairs, so no candidate with overlapping supports is
    ever built; a pair is valid if bottom + p + q is a vertex.  For k >= 3
    the valid pairs of the block are kept as a CSR list per piece, and a
    set of pieces (in increasing group order, so each is found once) grows
    only along the valid pairs of its last piece, keeping a new piece if
    its support is disjoint from the set's and every new subset sum is a
    vertex.  Membership is exact for any vertex set and any width: each sum
    is looked up with :meth:`YoungLattice.vertex_index`, and no sum is
    skipped on the strength of join-closure, which a hand-built vertex set
    may lack.  Every temporary (dominance table, candidate chunk, grown
    subset sums) holds at most about _CANDIDATES rows; the CSR list holds
    the valid pairs of one block.
    """
    _check_int("Boolean order", k)
    if k < 1:
        raise ValueError(f"Boolean order must be >= 1, got {k}")
    vertices = lattice.vertices
    if len(vertices) < 2:
        return 0  # no vertex lies above another
    sizes = vertices.sum(axis=1)
    rows = max(1, _CANDIDATES // len(vertices))
    total = 0
    for lo in range(0, len(vertices), rows):
        bottoms = vertices[lo:lo + rows]
        # (bottom, vertex) dominance, one column at a time
        above = np.ones((len(bottoms), len(vertices)), dtype=bool)
        for column, low in zip(vertices.T, bottoms.T):
            above &= column >= low[:, None]
        gap = sizes - sizes[lo:lo + rows, None]
        above &= gap == 1 if unit_boxes else gap > 0
        below, tops = np.nonzero(above)
        if k == 1:
            total += len(below)
        elif len(below):
            total += _count_block(lattice, bottoms, below, tops, k)
    return total


def _spans(sizes: np.ndarray, budget: int):
    """(task, offset) for every offset < sizes[task], in task order, at
    most `budget` pairs at a time."""
    ends = np.cumsum(sizes)
    total = int(ends[-1]) if len(ends) else 0
    budget = max(1, budget)
    for lo in range(0, total, budget):
        flat = np.arange(lo, min(lo + budget, total))
        task = np.searchsorted(ends, flat, side="right")
        yield task, flat - (ends[task] - sizes[task])


def _count_block(lattice: YoungLattice, bottoms: np.ndarray,
                 below: np.ndarray, tops: np.ndarray, k: int) -> int:
    """B_k sets over one block of bottoms; piece i is vertex tops[i] minus
    bottom below[i]."""
    vertices = lattice.vertices
    pieces = np.take(vertices, tops, axis=0)
    pieces -= np.take(bottoms, below, axis=0)
    support = np.packbits(pieces > 0, axis=1)
    # sort by (bottom, support): a group is a run of equal supports
    order = np.lexsort((*support.T[::-1], below))
    below, tops = below[order], tops[order]
    pieces = np.take(pieces, order, axis=0)
    support = np.take(support, order, axis=0)
    first = np.ones(len(below), dtype=bool)
    first[1:] = (below[1:] != below[:-1]) | (
        support[1:] != support[:-1]).any(axis=1)
    start = np.flatnonzero(first)
    count = np.diff(start, append=len(below))
    # one past the last group of each group's bottom
    end = np.searchsorted(below[start], below[start], side="right")
    found, pairs = 0, []
    for g1, off in _spans(end - np.arange(len(start)) - 1, _CANDIDATES):
        g2 = g1 + 1 + off
        apart = ~(support[start[g1]] & support[start[g2]]).any(axis=1)
        g1, g2 = g1[apart], g2[apart]
        for t, off in _spans(count[g1] * count[g2], _CANDIDATES):
            p = start[g1[t]] + off // count[g2[t]]
            q = start[g2[t]] + off % count[g2[t]]
            sums = np.take(vertices, tops[p], axis=0)
            sums += np.take(pieces, q, axis=0)
            ok = lattice.vertex_index(sums) >= 0
            if k == 2:
                found += int(np.count_nonzero(ok))
            else:
                pairs.append((p[ok], q[ok]))
    if k == 2 or not pairs:
        return found
    # valid pairs as CSR rows: the later pieces q of each piece p
    p, q = (np.concatenate(side) for side in zip(*pairs))
    order = np.argsort(p, kind="stable")
    p, q = p[order], q[order]
    ptr = np.zeros(len(pieces) + 1, dtype=np.int64)
    np.cumsum(np.bincount(p, minlength=len(pieces)), out=ptr[1:])
    block = (lattice, pieces, support, ptr, q)
    chunk = max(1, _CANDIDATES >> 2)
    for lo in range(0, len(p), chunk):
        a, b = p[lo:lo + chunk], q[lo:lo + chunk]
        # subset sums in bit order: bottom, + a, + b, + a + b
        sums = np.empty((len(a), 4, pieces.shape[1]), dtype=np.int64)
        sums[:, 1] = np.take(vertices, tops[a], axis=0)
        sums[:, 2] = np.take(vertices, tops[b], axis=0)
        np.subtract(sums[:, 1], np.take(pieces, a, axis=0), out=sums[:, 0])
        np.add(sums[:, 1], np.take(pieces, b, axis=0), out=sums[:, 3])
        found += _grow(block, sums, b, support[a] | support[b], k - 2)
    return found


def _grow(block, sums: np.ndarray, last: np.ndarray, used: np.ndarray,
          left: int) -> int:
    """Ways to add `left` more pieces to each set, given its (2^j, width)
    subset sums, its last piece and its packed support, along the CSR
    list of valid pairs of the last piece."""
    lattice, pieces, support, ptr, later = block
    width = sums.shape[2]
    found = 0
    for s, off in _spans(ptr[last + 1] - ptr[last],
                         _CANDIDATES // sums.shape[1]):
        new = later[ptr[last[s]] + off]
        apart = ~(used[s] & support[new]).any(axis=1)
        s, new = s[apart], new[apart]
        grown = np.take(sums, s, axis=0)
        grown += np.take(pieces, new, axis=0)[:, None, :]
        ok = (lattice.vertex_index(grown.reshape(-1, width)) >= 0).reshape(
            grown.shape[:2]).all(axis=1)
        if left == 1:
            found += int(np.count_nonzero(ok))
        elif ok.any():
            s, new = s[ok], new[ok]
            sets = np.concatenate([np.take(sums, s, axis=0), grown[ok]],
                                  axis=1)
            found += _grow(block, sets, new, used[s] | support[new], left - 1)
    return found


def _records(rows: np.ndarray, dtype=np.int64) -> np.ndarray:
    """View rows, cast to `dtype`, as opaque byte records.

    Records are equal iff the rows are; they sort and search in one byte
    order, which is all a binary-search membership test needs, and a
    gather of records moves whole rows at once.
    """
    rows = np.ascontiguousarray(rows, dtype=dtype)
    record = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    if not rows.shape[1]:  # zero-width rows have no bytes to view
        return np.zeros(len(rows), dtype=record)
    return rows.view(record).reshape(len(rows))


@dataclass
class OrdinalSumDecomposition:
    """Chain of Boolean factors peeled from the top of a lattice."""

    factors: list[int]          # Boolean orders, top factor first
    residual: bool              # True if peeling got stuck above the bottom
    residual_vertex: Diagram | None = None

    @property
    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for f in self.factors:
            out[f] = out.get(f, 0) + 1
        return out


def ordinal_sum_decomposition(lattice: YoungLattice) -> OrdinalSumDecomposition:
    """Peel maximal Boolean factors off the top, glued at shared vertices.

    Each step removes the full layer of individually removable boxes of
    the current top; the factor is Boolean iff every subset removal is a
    vertex.  A single-vertex lattice decomposes into nothing; a failed
    subset check stops with a residual flag and the partial factor list.
    """
    bottom, current = np.array([lattice.bottom(), lattice.top()],
                               dtype=np.int64)
    factors: list[int] = []
    while (current != bottom).any():
        lowered = current - np.eye(len(lattice.mu), dtype=np.int64)
        removable = np.flatnonzero(lattice.vertex_index(lowered) >= 0)
        # every subset of the removable layer, the full layer last
        r = len(removable)
        subsets = (np.arange(1 << r)[:, None] >> np.arange(r)) & 1
        probes = np.repeat(current[None, :], 1 << r, axis=0)
        probes[:, removable] -= subsets
        if not r or (lattice.vertex_index(probes) < 0).any():
            return OrdinalSumDecomposition(factors, True,
                                           tuple(current.tolist()))
        factors.append(r)
        current = probes[-1]
    return OrdinalSumDecomposition(factors, False)


def lattice_text(doc: dict) -> str:
    """Graph description of an :func:`export_lattice_json` document: one
    labelled vertex per line (diagram, detection pattern, parity bit
    string of the pattern) plus cover edges."""
    lines = [
        f"vertex {t} diagram={','.join(map(str, v['diagram']))} "
        f"pattern={','.join(map(str, v['pattern']))} bits={v['bits']}"
        for t, v in enumerate(doc["vertices"])
    ]
    lines += [f"edge {a} {b}" for a, b in doc["edges"]]
    return "\n".join(lines) + "\n"


def export_lattice_json(lattice: YoungLattice, num_photons: int | None = None
                        ) -> dict:
    """Labelled vertices (diagram, pattern, bits) and indexed cover edges."""
    ceiling = num_photons if num_photons is not None else (
        lattice.mu[-1] if lattice.mu else 0)
    vertices = []
    for v in lattice.vertices.tolist():
        pattern = vertex_to_pattern(v, ceiling)
        vertices.append({
            "diagram": list(v),
            "pattern": list(pattern),
            "bits": "".join(str(x % 2) for x in pattern),
        })
    return {
        "mu": list(lattice.mu),
        "vertices": vertices,
        "edges": lattice.cover_edges.tolist(),
    }
