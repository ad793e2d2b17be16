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
from functools import cached_property
from itertools import accumulate, product

import numpy as np

from .dyck import catalan_dyck_spec
from .fock import enumerate_basis

Diagram = tuple[int, ...]


def _validate_diagram(columns) -> Diagram:
    cols = tuple(int(v) for v in columns)
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
        row = np.asarray(diagram, dtype=np.int64)
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
    """
    m, n = num_modes, num_photons
    catalan_dyck_spec(m, n, depth)  # validates
    patterns = enumerate_basis(m, n).patterns
    # running prefix sum, one column at a time: no (rows, M) temporaries
    keep = np.ones(len(patterns), dtype=bool)
    prefix = np.zeros(len(patterns), dtype=np.int32)
    for d in range(m - 1):
        prefix += patterns[:, d]
        keep &= prefix >= (d + 1) - depth
    return patterns[keep]


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


# entries of one (sets x pieces) candidate matrix: bounds the temporaries
# of count_boolean_sublattices whatever the lattice size
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

    For each bottom vertex one array comparison against all vertices
    gives the candidate pieces (differences to the vertices above it) and
    their column supports as packed bitmasks.  Sets of pieces, taken in
    increasing piece order so that each is found once, grow one order at
    a time over a (sets x pieces) candidate matrix: a piece joins a set
    if its support is disjoint from the set's and every new subset sum is
    a vertex.  Membership is exact for any vertex set and any width: each
    sum is looked up with :meth:`YoungLattice.vertex_index`.  No sum is
    skipped on the strength of join-closure, which a hand-built vertex set
    may lack.  Sets are extended in chunks, depth first, so that each
    candidate matrix holds about _CANDIDATES entries.
    """
    if k < 1:
        raise ValueError(f"Boolean order must be >= 1, got {k}")
    vertices = lattice.vertices
    if len(vertices) < 2:
        return 0  # no vertex lies above another
    total = 0
    for bottom in vertices:
        delta = vertices - bottom
        size = delta.sum(axis=1)
        keep = (delta >= 0).all(axis=1) & (
            size == 1 if unit_boxes else size > 0)
        pieces = delta[keep]
        if len(pieces) >= k:
            total += _count_piece_sets(lattice, bottom, pieces, k)
    return total


def _records(rows: np.ndarray) -> np.ndarray:
    """View int64 rows as opaque byte records.

    Records are equal iff the rows are; they sort and search in one byte
    order, which is all a binary-search membership test needs.
    """
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    record = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    if not rows.shape[1]:  # zero-width rows have no bytes to view
        return np.zeros(len(rows), dtype=record)
    return rows.view(record).reshape(len(rows))


def _count_piece_sets(lattice: YoungLattice, bottom: np.ndarray,
                      pieces: np.ndarray, k: int) -> int:
    """k-sets of pieces with disjoint supports and all subset sums vertices.

    A partial set is the (2^j, width) array of its subset sums (bottom
    first), its last piece index and its packed support; sets are kept in
    chunks on an explicit stack.
    """
    count, width = 0, pieces.shape[1]
    support = np.packbits(pieces > 0, axis=1)
    order = np.arange(len(pieces))
    chunk = max(1, _CANDIDATES // len(pieces))
    stack = [(bottom[None, None, :], np.array([-1]),
              np.zeros((1, support.shape[1]), dtype=np.uint8))]
    while stack:
        sums, last, used = stack.pop()
        candidate = order > last[:, None]
        candidate &= ~(used[:, None, :] & support).any(axis=2)
        sets, new = np.nonzero(candidate)
        grown = sums[sets] + pieces[new][:, None, :]
        found = lattice.vertex_index(grown.reshape(-1, width))
        ok = (found >= 0).reshape(grown.shape[:2]).all(axis=1)
        if sums.shape[1] << 1 == 1 << k:  # the grown sets have k pieces
            count += int(np.count_nonzero(ok))
            continue
        sets, new = sets[ok], new[ok]
        sums = np.concatenate([sums[sets], grown[ok]], axis=1)
        used = used[sets] | support[new]
        for lo in range(0, len(new), chunk):
            stack.append((sums[lo:lo + chunk], new[lo:lo + chunk],
                          used[lo:lo + chunk]))
    return count


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


def export_lattice_text(lattice: YoungLattice, num_photons: int | None = None
                        ) -> str:
    """:func:`lattice_text` of the lattice's labelled document."""
    return lattice_text(export_lattice_json(lattice, num_photons))


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
