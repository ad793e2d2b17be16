"""Variational loop: parity objectives, shift-rule gradients, descent.

A run performs four independent gradient descents, one per combination
of photon sector (n = M or M-1) and parity variant (j = 0 or 1), each
with its own seeded angle initialization, and tracks the best bit string
ever observed across every evaluation.  Objectives are evaluated either
exactly (full output distribution) or from N_s seeded samples; every
shifted parameter vector draws fresh samples, while the states of one
batch of vectors share their common gate prefixes (`evolve_batch`).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, asdict

import numpy as np

from .fock import enumerate_basis
from .interferometer import build_reck_slices, reck_input, evolve_batch
from .parity import Bits, parity_bits, parity_groups
from .sampling import (as_seed_sequence, chain_sample_depth1_batch,
                       sample_patterns)

_TWO_PI = 2.0 * np.pi
_SUPPORT_TOL = 1e-12


def objective_energy(bit_dist: dict[Bits, float], energy_fn) -> float:
    """Probability-weighted energy sum of a bit-string distribution."""
    total = sum(bit_dist.values())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"bit-string masses sum to {total!r}, expected 1")
    return float(sum(mass * energy_fn(bits) for bits, mass in bit_dist.items()))


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
        if self.samples is not None and self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.eta <= 0:
            raise ValueError(f"learning rate must be > 0, got {self.eta}")
        if self.max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.plateau_window < 1:
            raise ValueError(
                f"plateau_window must be >= 1, got {self.plateau_window}"
            )

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
    input; exact mode evolves the full state, sampled mode draws N_s
    patterns per evaluation (chain sampling at depth 1, categorical
    sampling over the canonical-order probability vector otherwise).
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
        self._exact_tables = None

    def _exact_setup(self):
        """Per-sector reduction tables: basis row -> bit-string group."""
        if self._exact_tables is None:
            basis = enumerate_basis(self.num_modes, self.num_photons)
            inverse, uniq_bits = parity_groups(basis.patterns, self.parity)
            e_uniq = np.asarray(self.problem.energies(uniq_bits), dtype=float)
            self._exact_tables = (inverse, uniq_bits, e_uniq)
        return self._exact_tables

    def value(self, angles, stream_seed=None):
        """Objective value plus the best observed (energy, bit string)."""
        energies, best_e, best_b = self.value_batch(
            np.atleast_2d(np.asarray(angles, dtype=float)), stream_seed)
        return float(energies[0]), best_e, best_b

    def value_batch(self, angle_rows: np.ndarray, stream_seed=None):
        """Per-row objectives plus the best observed (energy, bit string).

        The best is taken over all rows, the first row on ties.  Exact
        rows are evolved together by `evolve_batch` and reduced from their
        full distributions; stream_seed is unused.  Sampled rows each draw
        from an independent child stream of stream_seed, so results are
        identical whether rows are evaluated batched or one at a time.
        """
        rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
        if rows.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected rows of {self.num_parameters} parameters"
            )
        thetas = rows[:, :self.num_gates]
        psis = rows[:, self.num_gates:] if self.optimize_phases else None
        if self.samples is None:
            return self._exact_batch(thetas, psis)
        n_s = self.samples
        if self.depth == 1:
            pats = chain_sample_depth1_batch(
                self.circuit.input, thetas, n_s, stream_seed, psis=psis)
        else:
            children = as_seed_sequence(stream_seed).spawn(len(rows))
            pats = np.empty((len(rows), n_s, self.num_modes), np.uint16)
            for r, state in evolve_batch(self.circuit, thetas, psis):
                pats[r] = sample_patterns(state.basis.patterns,
                                          state.probabilities(), n_s,
                                          children[r])
        flat = parity_bits(pats, self.parity).reshape(-1, self.num_modes)
        e_flat = self.problem.energies(flat)
        e_rows = e_flat.reshape(rows.shape[0], n_s)
        energies = e_rows.mean(axis=1)
        best_flat = int(np.argmin(e_flat))
        best_bits = tuple(int(b) for b in flat[best_flat])
        return energies, float(e_flat[best_flat]), best_bits

    def _exact_batch(self, thetas, psis):
        """Energy and lowest observed bit-string group of every row."""
        inverse, uniq_bits, e_uniq = self._exact_setup()
        energies = np.empty(len(thetas))
        best_pos = np.empty(len(thetas), dtype=np.int64)
        for r, state in evolve_batch(self.circuit, thetas, psis):
            mass = np.bincount(inverse, weights=state.probabilities(),
                               minlength=len(e_uniq))
            energies[r] = mass @ e_uniq
            observed = mass > _SUPPORT_TOL
            best_pos[r] = np.argmin(np.where(observed, e_uniq, np.inf))
        best = best_pos[int(np.argmin(e_uniq[best_pos]))]
        return energies, float(e_uniq[best]), tuple(
            int(b) for b in uniq_bits[best])


def gradient_step(angles, gradient, eta: float) -> np.ndarray:
    """Plain descent update, angles reduced mod 2*pi."""
    if eta <= 0:
        raise ValueError(f"learning rate must be > 0, got {eta}")
    return (np.asarray(angles, dtype=float)
            - eta * np.asarray(gradient, dtype=float)) % _TWO_PI


def parameter_shift_gradient(objective: ParityObjective, angles,
                             index: int, stream_seed=None) -> float:
    """Exact shift-rule derivative: (E(x + pi/2) - E(x - pi/2)) / 2."""
    angles = np.asarray(angles, dtype=float)
    if not 0 <= index < angles.size:
        raise ValueError(f"parameter index {index} out of range")
    plus = angles.copy()
    minus = angles.copy()
    plus[index] += np.pi / 2
    minus[index] -= np.pi / 2
    if objective.samples is None:
        e_plus = objective.value(plus)[0]
        e_minus = objective.value(minus)[0]
    else:
        children = as_seed_sequence(stream_seed).spawn(2)
        e_plus = objective.value(plus, children[0])[0]
        e_minus = objective.value(minus, children[1])[0]
    return (e_plus - e_minus) / 2.0


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


def _descent_tags(num_modes: int):
    for sector_tag, n in enumerate((num_modes, num_modes - 1)):
        for j in (0, 1):
            yield sector_tag, n, j


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
    if m < 2:
        raise ValueError(f"problems need at least 2 bits, got {m}")
    curves: dict[str, list[tuple[int, float, float]]] = {}
    finals: dict[str, list[float]] = {}
    converged: dict[str, float] = {}
    e_min = np.inf
    b_min: Bits = ()
    eval_count = 0
    target = (-np.inf if config.target_energy is None
              else config.target_energy)

    for sector_tag, n, j in _descent_tags(m):
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
        best_hist: list[float] = []
        running_best = np.inf
        for it in range(config.max_iterations):
            energy, seen_e, seen_b = objective.value(angles, next_seed())
            if seen_e < e_min:
                e_min, b_min = seen_e, seen_b
            running_best = min(running_best, energy)
            best_hist.append(running_best)
            curve.append((it, float(energy), float(running_best)))
            if e_min <= target:
                break
            if (len(best_hist) > config.plateau_window
                    and best_hist[-config.plateau_window - 1]
                    - best_hist[-1] < config.plateau_tolerance):
                break

            shifted = np.repeat(angles[None, :], 2 * p, axis=0)
            for k in range(p):
                shifted[2 * k, k] += np.pi / 2
                shifted[2 * k + 1, k] -= np.pi / 2
            e_shift, seen_e, seen_b = objective.value_batch(
                shifted, next_seed())
            if seen_e < e_min:
                e_min, b_min = seen_e, seen_b
            # evaluations in exact mode, shots in sampled mode
            eval_count += 2 * p * (config.samples or 1)
            grad = (e_shift[0::2] - e_shift[1::2]) / 2.0
            angles = gradient_step(angles, grad, config.eta)

        curves[tag] = curve
        finals[tag] = [float(a) for a in angles]
        converged[tag] = curve[-1][1] if curve else float("nan")

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
