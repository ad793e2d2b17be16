"""Variational loop: parity objectives, shift-rule gradients, descent.

A run performs four independent gradient descents, one per combination
of photon sector (n = M or M-1) and parity variant (j = 0 or 1), each
with its own seeded angle initialization, and tracks the best bit string
ever observed across every evaluation.  Objectives are exact or the mean
of N_s fresh seeded bit strings per parameter vector; sampled depth 1
chain-samples patterns, every other row reads the (2^M,) code masses of
its parity bits, sharing gate prefixes across a batch (`evolve_batch`).
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
from dataclasses import dataclass, asdict, fields
from functools import cached_property

import numpy as np

from .fock import enumerate_basis
from .interferometer import build_reck_slices, reck_input, evolve_batch
from .parity import Bits, codes_to_bits, parity_bits, parity_codes
from .sampling import (as_seed_sequence, chain_sample_depth1_batch,
                       depth1_parity_masses, sample_patterns)

_TWO_PI = 2.0 * np.pi
_SUPPORT_TOL = 1e-12
# Exact rows are read out in chunks of at most this many bytes of mass
# arrays, or one row when a row needs more.
_CHUNK_BYTES = 1 << 26
_CODE_CHUNK = 1 << 16


# accepted types per annotated field type; a bool is neither int nor float
_KINDS = {"int": (int,), "float": (int, float), "bool": (bool,)}


@dataclass
class SolverConfig:
    """Knobs of the variational run; samples=None selects exact mode."""

    depth: int = 1
    samples: int | None = None
    eta: float = 0.1
    max_iterations: int = 100
    plateau_tolerance: float = 1e-4
    plateau_window: int = 20
    master_seed: int = 0
    optimize_phases: bool = False
    target_energy: float | None = None

    def __post_init__(self):
        for spec in fields(self):  # types as annotated, floats finite
            kind, _, optional = spec.type.partition(" | ")
            value = getattr(self, spec.name)
            if isinstance(value, np.generic):
                value = value.item()
                setattr(self, spec.name, value)
            if value is None and optional:
                continue
            if (not isinstance(value, _KINDS[kind])
                    or isinstance(value, bool) != (kind == "bool")
                    or (kind == "float"
                        and not abs(value) <= sys.float_info.max)):
                raise ValueError(f"{spec.name} must be of type {spec.type}"
                                 f"{' and finite' if kind == 'float' else ''}"
                                 f", got {value!r}")
        for name, low in (("samples", 1), ("max_iterations", 1),
                          ("plateau_window", 1), ("master_seed", 0)):
            value = getattr(self, name)
            if value is not None and value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if self.eta <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.eta}")
        if self.optimize_phases and self.depth == 1:
            # one slice commutes its phases past the detectors
            raise ValueError("optimize_phases needs depth >= 2, got depth=1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SolverResult:
    """Best configuration found plus per-descent learning curves."""

    e_min: float
    b_min: Bits
    learning_curves: dict[str, list[tuple[int, float, float]]]
    final_angles: dict[str, list[float]]
    converged: dict[str, float]
    evaluation_count: int
    master_seed: int
    config: dict

    def to_json(self) -> str:
        doc = {
            "e_min": self.e_min,
            "b_min": "".join(map(str, self.b_min)),
            "learning_curves": {
                tag: [[it, e, best] for it, e, best in curve]
                for tag, curve in self.learning_curves.items()
            },
            "final_angles": self.final_angles,
            "converged": self.converged,
            "evaluation_count": self.evaluation_count,
            "master_seed": self.master_seed,
            "config": self.config,
        }
        return json.dumps(doc, sort_keys=True)

    def write_curves_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["config_tag", "iteration", "energy",
                             "best_energy"])
            for tag in sorted(self.learning_curves):
                for it, energy, best in self.learning_curves[tag]:
                    writer.writerow([tag, it, repr(energy), repr(best)])


class ParityObjective:
    """Energy of one (sector, parity) configuration as a function of angles.

    Wraps the mesh of the requested depth with its one-photon-per-mode
    input, and owns the parameter vector: gate angles, then one phase per
    gate with optimize_phases.  Phases reach only the dense engine of
    depth >= 2; one slice commutes them past the detectors.  Exact mode
    reduces each row's masses over all 2^M parity bit strings against the
    energy of every bit string: the carry-chain pass at depth 1, the dense
    state coarse-grained at depth >= 2.  Sampled mode draws N_s bit
    strings per row: parity bits of chain-sampled patterns at depth 1,
    inverse-CDF draws over the same 2^M masses at depth >= 2.

    Exact depth 1 holds the input and output mass of its last gate,
    6 (n+1) 2^M bytes per angle row (132 MB at M = n = 20); rows are read
    out in chunks budgeted at 16 (n+1) 2^M bytes each, which covers the
    outcome tables too, and `depth1_parity_masses` refuses meshes beyond
    M = 20.
    """

    def __init__(self, problem, num_photons: int, parity: int,
                 depth: int, samples: int | None = None,
                 optimize_phases: bool = False):
        self.problem = problem
        self.num_modes = problem.num_bits
        self.num_photons = num_photons
        self.parity = parity
        self.depth = depth
        self.samples = samples
        self.optimize_phases = optimize_phases
        self.circuit = build_reck_slices(
            self.num_modes, depth, reck_input(self.num_modes, num_photons))
        self.num_gates = len(self.circuit.gates)
        self.num_parameters = (2 if optimize_phases else 1) * self.num_gates

    @cached_property
    def _code_energies(self) -> np.ndarray:
        """Energy of every bit string, indexed by its code: row `code` of
        `codes_to_bits`, the order of `parity_codes`."""
        m, size = self.num_modes, 1 << self.num_modes
        return np.concatenate([
            np.asarray(self.problem.energies(codes_to_bits(
                np.arange(s, min(s + _CODE_CHUNK, size)), m)), dtype=float)
            for s in range(0, size, _CODE_CHUNK)])

    @cached_property
    def _pattern_codes(self) -> np.ndarray:
        """Parity code of every pattern of the dense sector, in its order."""
        basis = enumerate_basis(self.num_modes, self.num_photons)
        return parity_codes(basis.patterns, self.parity)

    def value(self, angles, stream_seed=None):
        """Objective value plus the best observed (energy, bit string)."""
        energies, best_e, best_b = self.value_batch(
            np.atleast_2d(np.asarray(angles, dtype=float)), stream_seed)
        return float(energies[0]), best_e, best_b

    def value_batch(self, angle_rows: np.ndarray, stream_seed=None):
        """Per-row objectives plus the best observed (energy, bit string).

        The best is taken over all rows, the first row on ties.  Exact
        rows reduce their parity-bit masses; stream_seed is unused.
        Sampled rows each draw from an independent child stream of
        stream_seed, at depth >= 2 from those masses.  Either way results
        are identical whether rows are evaluated batched or one at a time.
        """
        rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
        if rows.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected rows of {self.num_parameters} parameters"
            )
        if self.samples is None:
            return self._exact_batch(rows)
        n_s, m = self.samples, self.num_modes
        if self.depth == 1:
            flat = parity_bits(chain_sample_depth1_batch(
                self.circuit, self._split(rows)[0], n_s, stream_seed),
                self.parity).reshape(-1, m)
        else:
            bits = codes_to_bits(np.arange(1 << m), m).astype(np.uint16)
            children = as_seed_sequence(stream_seed).spawn(len(rows))
            flat = np.concatenate([
                sample_patterns(bits, masses, n_s, child)
                for masses, child in zip(self._masses(rows), children)
            ]).astype(np.int64)
        e_flat = self.problem.energies(flat)
        e_rows = e_flat.reshape(rows.shape[0], n_s)
        energies = e_rows.mean(axis=1)
        best_flat = int(np.argmin(e_flat))
        best_bits = tuple(int(b) for b in flat[best_flat])
        return energies, float(e_flat[best_flat]), best_bits

    def shift_gradient(self, angles, stream_seed=None):
        """Shift-rule gradient plus the best observed (energy, bit string).

        Component k is (E(x + pi/2 e_k) - E(x - pi/2 e_k)) / 2 from one
        `value_batch` call over 2p rows: row 2k shifts parameter k up,
        row 2k+1 down, and sampled rows draw from those child streams.
        """
        angles = np.asarray(angles, dtype=float)
        p = self.num_parameters
        if angles.shape != (p,):
            raise ValueError(
                f"expected {p} parameters, got shape {angles.shape}")
        shifts = np.kron(np.eye(p), [[np.pi / 2], [-np.pi / 2]])
        energies, best_e, best_b = self.value_batch(angles + shifts,
                                                    stream_seed)
        return (energies[0::2] - energies[1::2]) / 2.0, best_e, best_b

    def _split(self, rows):
        """Theta rows, and phase rows with optimize_phases (else None)."""
        phases = rows[:, self.num_gates:] if self.optimize_phases else None
        return rows[:, :self.num_gates], phases

    def _masses(self, rows) -> np.ndarray:
        """(R, 2^M) parity masses of the rows, indexed by code."""
        thetas, phases = self._split(rows)
        if self.depth == 1:
            return depth1_parity_masses(self.circuit, thetas, self.parity)
        masses = np.empty((len(rows), 1 << self.num_modes))
        for r, state in evolve_batch(self.circuit, thetas, phases):
            masses[r] = np.bincount(self._pattern_codes,
                                    weights=state.probabilities(),
                                    minlength=1 << self.num_modes)
        return masses

    def _exact_batch(self, rows):
        """Energy and lowest observed bit string of every row."""
        energies = np.empty(len(rows))
        best = np.empty(len(rows), dtype=np.int64)
        # a dense row holds one array of 2^M floats; a depth-1 row holds
        # 3/4 (n+1) of them at its last gate, budgeted as 2 (n+1) with the
        # outcome tables
        row_bytes = 8 << self.num_modes
        if self.depth == 1:
            row_bytes *= 2 * (self.num_photons + 1)
        step = max(1, _CHUNK_BYTES // row_bytes)
        for start in range(0, len(rows), step):
            chunk = slice(start, start + step)
            # masses first: a refused mesh builds no 2^M energy table
            masses = self._masses(rows[chunk])
            e_codes = self._code_energies
            energies[chunk] = np.einsum("rk,k->r", masses, e_codes)
            best[chunk] = np.argmin(
                np.where(masses > _SUPPORT_TOL, e_codes, np.inf), axis=1)
        e_codes = self._code_energies
        code = best[int(np.argmin(e_codes[best]))]
        return energies, float(e_codes[code]), tuple(
            int(b) for b in codes_to_bits([code], self.num_modes)[0])


def gradient_step(angles, gradient, eta: float) -> np.ndarray:
    """Plain descent update, angles reduced mod 2*pi."""
    if eta <= 0:
        raise ValueError(f"learning rate must be > 0, got {eta}")
    return (np.asarray(angles, dtype=float)
            - eta * np.asarray(gradient, dtype=float)) % _TWO_PI


def finite_difference_gradient(objective: ParityObjective, angles,
                               index: int, epsilon: float = 1e-5,
                               scheme: str = "forward",
                               stream_seed=None) -> float:
    """Numerical derivative, forward by default, central on request.

    A simulation-only oracle: experimentally this would demand
    epsilon-accurate hardware tuning, which is the reason the shift rule
    is the solver default.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    angles = np.asarray(angles, dtype=float)
    shifted = angles.copy()
    seeds = (as_seed_sequence(stream_seed).spawn(2)
             if objective.samples is not None else (None, None))
    if scheme == "forward":
        shifted[index] += epsilon
        return (objective.value(shifted, seeds[0])[0]
                - objective.value(angles, seeds[1])[0]) / epsilon
    if scheme == "central":
        shifted[index] += epsilon
        back = angles.copy()
        back[index] -= epsilon
        return (objective.value(shifted, seeds[0])[0]
                - objective.value(back, seeds[1])[0]) / (2 * epsilon)
    raise ValueError(f"unknown scheme {scheme!r}")


def run_variational(problem, config: SolverConfig) -> SolverResult:
    """Four seeded descents over (sector, parity); best bit string wins.

    Angle vectors start uniform on [0, 2*pi) from per-descent streams
    derived from the master seed, every sampled evaluation consumes its
    own child stream, and a descent stops at max_iterations or when its
    running best improves by less than plateau_tolerance over the sliding
    plateau window.  An optional target energy halts the whole run as soon
    as the tracked best configuration reaches it.
    """
    m = problem.num_bits
    curves: dict[str, list[tuple[int, float, float]]] = {}
    finals: dict[str, list[float]] = {}
    converged: dict[str, float] = {}
    e_min = np.inf
    b_min: Bits = ()
    eval_count = 0
    target = (-np.inf if config.target_energy is None
              else config.target_energy)

    for (sector_tag, n), j in itertools.product(enumerate((m, m - 1)),
                                                (0, 1)):
        if e_min <= target:
            break
        tag = f"n={n},j={j}"
        objective = ParityObjective(
            problem, n, j, config.depth, config.samples,
            config.optimize_phases)
        p = objective.num_parameters
        ss = np.random.SeedSequence(
            config.master_seed, spawn_key=(sector_tag, j))
        init_child, eval_root = ss.spawn(2)
        angles = np.random.default_rng(init_child).uniform(0, _TWO_PI, p)

        def next_seed():
            return eval_root.spawn(1)[0]

        curve: list[tuple[int, float, float]] = []
        running_best = np.inf
        window = config.plateau_window
        for it in range(config.max_iterations):
            energy, seen_e, seen_b = objective.value(angles, next_seed())
            if seen_e < e_min:
                e_min, b_min = seen_e, seen_b
            running_best = min(running_best, energy)
            curve.append((it, float(energy), float(running_best)))
            if e_min <= target:
                break
            if (len(curve) > window and curve[-window - 1][2]
                    - curve[-1][2] < config.plateau_tolerance):
                break

            grad, seen_e, seen_b = objective.shift_gradient(angles,
                                                            next_seed())
            if seen_e < e_min:
                e_min, b_min = seen_e, seen_b
            # evaluations in exact mode, shots in sampled mode
            eval_count += 2 * p * (config.samples or 1)
            angles = gradient_step(angles, grad, config.eta)

        curves[tag] = curve
        finals[tag] = [float(a) for a in angles]
        converged[tag] = curve[-1][1]

    return SolverResult(
        e_min=float(e_min),
        b_min=b_min,
        learning_curves=curves,
        final_angles=finals,
        converged=converged,
        evaluation_count=eval_count,
        master_seed=config.master_seed,
        config=config.to_dict(),
    )
