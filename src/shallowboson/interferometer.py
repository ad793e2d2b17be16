"""Sliced triangular meshes and exact Fock-state evolution.

The elementary gate couples two modes with a beam-splitter angle theta and
a phase psi.  Its action on the annihilation operators is fixed to

    [a_i, a_j] -> e^{-i psi/2} [[cos(t/2) e^{i psi}, sin(t/2) e^{i psi}],
                                [-sin(t/2),          cos(t/2)        ]] [a_i, a_j]

and everything downstream (Fock blocks, shift-rule gradients) relies on
this convention, including the global e^{-i psi/2} factor.

Within a fixed photon total m on the two coupled modes, the gate is an
(m+1) x (m+1) unitary block; photon number is conserved, so a state never
leaves its (M, n) sector.  The block is built in the Schwinger spin
representation: the pair |p, m-p> is the spin-m/2 state with
J_z = p - m/2, and the gate is exp(-i theta J_y) exp(-i psi J_z), the
phase acting on the input index p.

One table, `_spin_table(top)`, holds the J_y eigenbases of the photon
totals 0..top, zero-padded to (T, T, T), T = top + 1, and two products
read it.  `_block_product` builds whole blocks by batched matmul: the
read-only stack of every total of one (theta, psi) that `apply_gate`
slices, memoised so that a gate met again with the same angles, as on
every branch of a shift stencil, builds nothing; `two_mode_block` is its
one-total case.  `two_mode_block_column` builds one phase-free input
column of one total, unpadded, for many splitter angles, for the depth-1
engines; its sum runs over the contiguous last axis, so an entry depends
neither on the other angles of the call nor on other totals.  Stacks
built with that sum took 422 us against 47 us at top 11 (2-core x86) and
moved every depth >= 2 result in its last bits, hence two products.
`apply_gate` checks the norm only of states it did not make.

One kernel applies a gate, `_gate_kernel`: one gather reads the amplitudes
of the gate's orbits (the patterns that differ only in how a photon total
splits over the pair), grouped by total, one matmul per total multiplies
its span by the total's block, and one scatter writes the images back.
`apply_gate` feeds it every orbit of the sector.
`evolve_batch` feeds it the circuit's live-orbit plan (`_live_plan`,
built once per input pattern and gate layout): per gate only the orbits
that meet the support of the gates before it.  The support starts as the
input pattern and each gate adds every orbit that meets it.  It does not
depend on the angles, since an orbit of zeros has a zero image for every
(theta, psi), so skipping the other orbits is exact; for a depth-d mesh
the final support is the Catalan basis `young.catalan_basis(M, n, d)`.
Both plans take their blocks from the stack of the sector's top total,
and a total that keeps one orbit of several keeps a zero orbit beside it,
as numpy sends a one-row matmul down BLAS's matrix-vector path, which
rounds differently; so a live image equals the dense one bit for bit.

`evolve_batch` evolves many angle rows of one circuit as a depth-first walk
over their common gate prefixes: at each gate the live rows are grouped by
their (theta, psi) value, the smaller groups branch off first, and the
largest group continues.  A branch starts from a copy of its parent's
vector; along a line of the walk the kernel steps the vector in place,
exact since it is zero off the plan of the gate it enters.  Every row
still goes through exactly the gate applications `evolve` would make for
it, but a shared prefix is applied once.  On a parameter-shift stencil
(rows that each differ from a base vector in one gate) the walk holds at
most two state vectors at a time, the parent and one branch, beside one
gate's gathered amplitudes and images; its 2G rows over G gates cost
G - 1 + G(G + 1) gate applications instead of 2G * G, 2G - 1 of them
into a branch copy and the rest in place.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dyck import _check_int, catalan_dyck_spec
from .fock import SectorBasis, Pattern, enumerate_basis

_NORM_TOL = 1e-9


def two_mode_transfer(theta: float, psi: float) -> np.ndarray:
    """2x2 single-particle transfer matrix of one gate."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    phase = np.exp(-1j * psi / 2.0)
    return phase * np.array(
        [[c * np.exp(1j * psi), s * np.exp(1j * psi)],
         [-s, c]],
        dtype=complex,
    )


@lru_cache(maxsize=32)
def _spin_table(top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only J_y eigenvalues (T, T), eigenbases (T, T, T) and their
    adjoints of the totals m = 0..top, zero-padded to T = top + 1; totals
    up to m equal `_spin_table(m)`'s bit for bit.  J_y = (J_+ - J_-) / 2i with
    <p+1| J_+ |p> = sqrt((p+1)(m-p)) for J_+ = a_i^dag a_j has the exact
    spectrum -m/2 ... m/2, so lam is set to that; the unit gaps between
    eigenvalues keep V well conditioned."""
    size = top + 1
    lams = np.zeros((size, size))
    vecs = np.zeros((size, size, size), dtype=complex)
    for m in range(size):
        step = np.sqrt(np.arange(1.0, m + 1) * np.arange(m, 0, -1)) / 2j
        lams[m, :m + 1] = np.arange(m + 1) - m / 2.0
        vecs[m, :m + 1, :m + 1] = np.linalg.eigh(
            np.diag(step, -1) - np.diag(step, 1))[1]
    adjoints = vecs.conj().swapaxes(1, 2)
    lams.flags.writeable = vecs.flags.writeable = False
    adjoints.flags.writeable = False
    return lams, vecs, adjoints


def _block_product(lams, vecs, adjoints, theta: float, psi: float):
    """Blocks V e^{-i theta lam} V^dag diag(e^{-i psi lam}) of a stack of
    eigenbases; zero-padded rows and columns stay zero."""
    rotation = (vecs * np.exp(-1j * theta * lams)[:, None, :]) @ adjoints
    return rotation * np.exp(-1j * psi * lams)[:, None, :]


def two_mode_block(m: int, theta: float, psi: float) -> np.ndarray:
    """Fock-space block of the gate for two-mode photon total m.

    Entry [u, p] is the amplitude <u, m-u| U |p, m-p>.  The block is
    exp(-i theta J_y) diag_p(e^{-i psi (p - m/2)}): the rotation is
    V e^{-i theta lam} V^dag in the J_y eigenbasis of total m, read
    unpadded from `_spin_table(m | 7)` (a sweep over totals builds one
    table per eight), and the phase acts on the input index p.
    """
    lams, vecs, adjoints = _spin_table(m | 7)
    one = np.s_[m:m + 1, :m + 1, :m + 1]
    return _block_product(lams[one[:2]], vecs[one], adjoints[one],
                          theta, psi)[0]


@lru_cache(maxsize=64)
def _block_stack(top: int, theta: float, psi: float) -> np.ndarray:
    """Read-only (T, T, T) stack of the gate's blocks for photon totals
    0..top: stack[m, :m+1, :m+1] is two_mode_block(m, theta, psi), the rest
    is zero.  One batched product; across a shift stencil a gate meets at
    most three angle pairs per sector."""
    stack = _block_product(*_spin_table(top), theta, psi)
    stack.flags.writeable = False
    return stack


def two_mode_block_column(m: int, p: int, thetas) -> np.ndarray:
    """Column p of the photon-total-m block for K splitter angles at once.

    Row k of the (K, m+1) result is two_mode_block(m, thetas[k], 0)[:, p],
    the image of the input |p, m-p>; a phase would only scale it by a unit
    number.  Read unpadded from `_spin_table(m | 7)` as `two_mode_block`
    is, each entry is one sum of m+1 terms over the contiguous last axis,
    so it depends on (m, p, theta) alone; a matmul would send a lone angle
    down numpy's matrix-vector path, which rounds differently.
    """
    lams, vecs, _ = _spin_table(m | 7)
    lams, vecs = lams[m, :m + 1], vecs[m, :m + 1, :m + 1]
    thetas = np.asarray(thetas, dtype=float)
    weights = np.exp(-1j * thetas[:, None] * lams) * vecs[p].conj()
    return (vecs * weights[:, None, :]).sum(axis=-1)


@dataclass(frozen=True)
class TwoModeGate:
    """Beam splitter plus phase between modes i < j."""

    i: int
    j: int
    theta: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        if not 0 <= self.i < self.j:
            raise ValueError(f"gate modes must satisfy 0 <= i < j, got {self}")
        if not (math.isfinite(self.theta) and math.isfinite(self.psi)):
            raise ValueError(f"gate angles must be finite, got {self}")


@dataclass
class CircuitSpec:
    """Gate list of the first `depth` diagonal slices of the mesh."""

    num_modes: int
    depth: int
    gates: list[TwoModeGate]
    input: Pattern

    def __post_init__(self):
        self.input = tuple(int(v) for v in self.input)
        if len(self.input) != self.num_modes:
            raise ValueError("input pattern length must equal the mode count")
        if any(v < 0 for v in self.input):
            raise ValueError("input pattern must be non-negative")
        for g in self.gates:
            if g.j >= self.num_modes:
                raise ValueError(f"gate {g} outside {self.num_modes} modes")

    @property
    def num_photons(self) -> int:
        return sum(self.input)


def reck_input(num_modes: int, num_photons: int) -> Pattern:
    """One photon per mode, padded with one trailing empty mode for n = M-1."""
    _check_int("mode count", num_modes)
    _check_int("photon number", num_photons)
    if num_photons == num_modes:
        return (1,) * num_modes
    if num_photons == num_modes - 1:
        return (1,) * (num_modes - 1) + (0,)
    raise ValueError(
        f"supported photon numbers are M and M-1, got n={num_photons}"
    )


def build_reck_slices(num_modes: int, depth: int,
                      input_pattern: Pattern | None = None) -> CircuitSpec:
    """Gate layout of the first `depth` diagonal slices of the triangle.

    Slice s couples the mode pairs (j, j+1) for j = M-2 down to s-1, so
    slice 1 is the full nearest-neighbour cascade (M-1 gates), each deeper
    slice adds one gate fewer, and depth M-1 realizes the complete mesh
    with M(M-1)/2 gates.  Angles are placeholders bound later.
    `catalan_dyck_spec` checks the types and ranges of (M, n, depth).
    """
    if input_pattern is None:
        input_pattern = reck_input(num_modes, num_modes)
    spec = CircuitSpec(num_modes, depth, [], input_pattern)
    catalan_dyck_spec(num_modes, spec.num_photons, depth)
    if any(v > 1 for v in spec.input):
        raise ValueError(
            f"mesh input must hold at most one photon per mode, got "
            f"{spec.input}")
    spec.gates = [
        TwoModeGate(j, j + 1)
        for s in range(1, depth + 1)
        for j in range(num_modes - 2, s - 2, -1)
    ]
    return spec


class QuantumState:
    """Normalized state of an (M, n) sector, dense over the sector basis.

    States made by `from_pattern` or `apply_gate` are unit by construction
    and marked so: `apply_gate` checks the norm of any other state before
    it evolves it, and `probabilities` checks every state it reads out.
    """

    def __init__(self, basis: SectorBasis, vector: np.ndarray):
        if vector.shape != (basis.size,):
            raise ValueError("state vector does not match the basis size")
        self.basis = basis
        self.vector = vector
        self._unit = False

    @property
    def sector(self) -> tuple[int, int]:
        return (self.basis.num_modes, self.basis.num_photons)

    @classmethod
    def from_pattern(cls, basis: SectorBasis, pattern) -> "QuantumState":
        vec = np.zeros(basis.size, dtype=complex)
        vec[basis.index(pattern)] = 1.0
        state = cls(basis, vec)
        state._unit = True
        return state

    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))

    def probabilities(self) -> np.ndarray:
        """Born-rule probabilities, aligned with `basis.patterns`."""
        probs = np.abs(self.vector) ** 2
        norm = np.sqrt(probs.sum())
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise RuntimeError(
                f"state norm {norm:.3e} deviates beyond {_NORM_TOL}")
        return probs


@lru_cache(maxsize=256)
def _gate_orbits(num_modes: int, num_photons: int, i: int, j: int):
    """Gate-application index structures of one sector and mode pair: the
    read-only sector order that groups each photon total's orbits, and the
    photon totals with their [start, stop) spans in it, as lists of ints."""
    basis = enumerate_basis(num_modes, num_photons)
    pats = basis.patterns  # uint16; only the photon totals are widened
    u = pats[:, i]
    m = u.astype(np.int64) + pats[:, j]
    reps = pats.copy()
    reps[:, i] = 0
    reps[:, j] = m
    # one unique int64 key per pattern: photon total, orbit, then u
    order = np.argsort((m * basis.size + basis.rank(reps))
                       * (num_photons + 1) + u)
    order.flags.writeable = False
    counts = np.bincount(m, minlength=num_photons + 1)
    m_values = np.flatnonzero(counts)
    stops = np.cumsum(counts)[m_values]
    return (order, m_values.tolist(), (stops - counts[m_values]).tolist(),
            stops.tolist())


def _gate_kernel(vector, out, orbits, top: int, theta: float, psi: float):
    """Write into `out` the image under one gate of `vector`'s amplitudes
    on `orbits`, (order, totals, starts, stops) as `_gate_orbits` gives
    them: one gather of every orbit, per photon total one matmul by its
    block from the total's span of the gathered amplitudes into the same
    span of the images, one scatter.  The gather ends before the scatter
    starts, so `out` may be `vector`; positions off `orbits` keep what
    `out` held.  The blocks are slices of the stack of totals 0..top, the
    sector's photon number, whatever totals `orbits` holds: stack entries
    depend on its padding."""
    order, m_values, starts, stops = orbits
    stack = _block_stack(top, float(theta), float(psi))
    amps = vector[order]
    images = np.empty_like(amps)
    for m, s, e in zip(m_values, starts, stops):
        np.matmul(amps[s:e].reshape(-1, m + 1), stack[m, :m + 1, :m + 1].T,
                  out=images[s:e].reshape(-1, m + 1))
    out[order] = images
    return out


def apply_gate(state: QuantumState, gate: TwoModeGate) -> QuantumState:
    """Evolve a state through one gate, grouping by two-mode photon total."""
    if gate.j >= state.basis.num_modes:
        raise ValueError(f"gate {gate} outside {state.basis.num_modes} modes")
    if not state._unit:
        state.probabilities()  # the one norm check
    orbits = _gate_orbits(*state.sector, gate.i, gate.j)
    out = QuantumState(state.basis, _gate_kernel(
        state.vector, np.empty_like(state.vector), orbits,
        state.basis.num_photons, gate.theta, gate.psi))
    out._unit = True  # a unitary image of a unit state
    return out


@lru_cache(maxsize=8)  # a run reads two, one per sector
def _live_plan(input_pattern: Pattern, pairs: tuple[tuple[int, int], ...]):
    """Per gate of a circuit with this input and these (i, j) mode pairs,
    the orbits of `_gate_orbits` that meet the support of the gates before
    it, in the same form, read-only.

    The support starts as the input pattern, and each gate adds every
    orbit that meets it.  An orbit outside it holds only zeros, whatever
    the angles, and its image is zero, so a gate that skips it is exact.
    Where a total keeps one orbit of several, one of its zero orbits stays
    beside it: numpy sends a one-row matmul down BLAS's matrix-vector
    path, which rounds differently from the rows of a matrix product.
    The plan holds 8 bytes per live amplitude per gate: 15 MB for the
    depth-2 mesh at M = n = 11.
    """
    num_modes, num_photons = len(input_pattern), sum(input_pattern)
    basis = enumerate_basis(num_modes, num_photons)
    alive = np.zeros(basis.size, dtype=bool)
    alive[basis.index(input_pattern)] = True
    plan = []
    for i, j in pairs:
        order, m_values, starts, stops = _gate_orbits(num_modes, num_photons,
                                                      i, j)
        widths = np.add(m_values, 1)
        counts = np.subtract(stops, starts) // widths  # orbits per total
        sizes = np.repeat(widths, counts)
        live = np.logical_or.reduceat(alive[order], np.cumsum(sizes) - sizes)
        mask = np.repeat(live, sizes)
        alive[order] = mask  # the support after the gate
        firsts = np.cumsum(counts) - counts  # each total's first orbit
        kept = np.add.reduceat(live, firsts, dtype=np.int64)
        lone = np.flatnonzero((kept == 1) & (counts > 1))
        if len(lone):
            # the first orbit, or the second where the first is the live one
            live[firsts[lone] + live[firsts[lone]]] = True
            kept[lone] = 2
            mask = np.repeat(live, sizes)
        live_order = order[mask]
        live_order.flags.writeable = False
        spans = np.cumsum(kept * widths)
        own = np.flatnonzero(kept)
        plan.append((live_order, [m_values[t] for t in own],
                     (spans - kept * widths)[own].tolist(),
                     spans[own].tolist()))
    return tuple(plan)


def _angle_rows(circuit: CircuitSpec, theta_rows, psi_rows=None):
    """Checked (rows, gates) theta and psi arrays; None: the gates' psis."""
    num_gates = len(circuit.gates)
    thetas = np.asarray(theta_rows, dtype=float)
    if thetas.ndim != 2 or thetas.shape[1] != num_gates:
        raise ValueError(
            f"theta rows of shape {thetas.shape} for {num_gates} gates")
    if psi_rows is None:
        psis = np.broadcast_to([g.psi for g in circuit.gates], thetas.shape)
    else:
        psis = np.asarray(psi_rows, dtype=float)
        if psis.shape != thetas.shape:
            raise ValueError(
                f"psi rows of shape {psis.shape} for theta rows of shape "
                f"{thetas.shape}")
    for name, rows in (("theta", thetas), ("psi", psis)):
        if not np.isfinite(rows).all():
            raise ValueError(f"{name} angles must be finite")
    return thetas, psis


def evolve(circuit: CircuitSpec, thetas, psis=None) -> QuantumState:
    """Apply the circuit's gates in order to its input basis state."""
    thetas, psis = _angle_rows(circuit, [thetas],
                               None if psis is None else [psis])
    if circuit.depth == 1 and psis.any():
        # accepted, but a single slice commutes its phases past the
        # detectors: the output distribution does not depend on them
        warnings.warn(
            "phase angles on a depth-1 mesh do not affect the output "
            "distribution", stacklevel=2)
    return next(evolve_batch(circuit, thetas, psis))[1]


def evolve_batch(circuit: CircuitSpec, theta_rows, psi_rows=None):
    """Yield (row, state) once per angle row, sharing common gate prefixes.

    Rows come out in walk order, not row order; rows with equal angles
    share one state object.  psi_rows=None keeps the circuit's own phases.
    """
    num_gates = len(circuit.gates)
    thetas, psis = _angle_rows(circuit, theta_rows, psi_rows)
    angles = np.stack([thetas, psis], axis=-1).tolist()  # [row][gate] pairs
    basis = enumerate_basis(circuit.num_modes, circuit.num_photons)
    plan = _live_plan(circuit.input,
                      tuple((gate.i, gate.j) for gate in circuit.gates))

    def step(vector, out, g, theta, psi):
        # off the plan of gate g the input is zero, and so is `out`
        return _gate_kernel(vector, out, plan[g], basis.num_photons, theta,
                            psi)

    def walk(vector, rows, g):
        while g < num_gates:
            groups: dict[tuple, list[int]] = {}
            for r in rows:
                groups.setdefault(tuple(angles[r][g]), []).append(r)
            ordered = sorted(groups.items(), key=lambda kv: len(kv[1]))
            for (theta, psi), branch in ordered[:-1]:
                yield from walk(step(vector, vector.copy(), g, theta, psi),
                                branch, g + 1)
            (theta, psi), rows = ordered[-1]
            vector = step(vector, vector, g, theta, psi)
            g += 1
        state = QuantumState(basis, vector)
        state._unit = True  # a unitary image of a unit state
        for r in rows:
            yield r, state

    if len(thetas):
        yield from walk(
            QuantumState.from_pattern(basis, circuit.input).vector,
            range(len(thetas)), 0)


def support(state: QuantumState) -> np.ndarray:
    """Pattern rows carrying positive probability, in canonical order.

    Unreachable patterns keep exactly zero amplitude under the blockwise
    evolution (their orbits never receive mass), so strict positivity
    separates them without a tolerance.
    """
    return state.basis.patterns[state.probabilities() > 0]


def single_particle_transfer(circuit: CircuitSpec, thetas, psis=None
                             ) -> np.ndarray:
    """M x M matrix V with U a_k U^dag = sum_l V_kl a_l."""
    thetas, psis = _angle_rows(circuit, [thetas],
                               None if psis is None else [psis])
    m = circuit.num_modes
    v = np.eye(m, dtype=complex)
    for gate, theta, psi in zip(circuit.gates, thetas[0], psis[0]):
        t = two_mode_transfer(theta, psi)
        step = np.eye(m, dtype=complex)
        step[np.ix_([gate.i, gate.j], [gate.i, gate.j])] = t
        v = v @ step
    return v


def schwinger_expectation(circuit: CircuitSpec, thetas, coeffs: np.ndarray,
                          psis=None) -> float:
    """Expectation of the bilinear observable sum_ij o_ij a_i^dag a_j.

    Computed from the single-particle transfer matrix alone; the Fock
    space is never expanded.  A Hermitian coefficient matrix guarantees a
    real value.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m = circuit.num_modes
    if coeffs.shape != (m, m):
        raise ValueError(f"coefficient matrix must be {m}x{m}")
    if not np.max(np.abs(coeffs - coeffs.conj().T)) <= _NORM_TOL:
        raise ValueError("coefficient matrix must be Hermitian")
    v = single_particle_transfer(circuit, thetas, psis)
    w = v.conj().T  # U^dag a U = W a
    value = 0.0
    for k, occ in enumerate(circuit.input):
        if occ:
            col = w[:, k]
            value += occ * np.real(col.conj() @ coeffs @ col)
    return float(value)
