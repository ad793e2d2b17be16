"""Variational loop: parity objectives, shift-rule gradients, descent.

A run performs four independent gradient descents, one per combination
of photon sector (n = M or M-1) and parity variant (j = 0 or 1), each
with its own seeded angle initialization, and tracks the best bit string
ever observed across every evaluation.  Objectives are exact or the mean
of N_s fresh seeded bit strings per parameter vector; sampled depth 1
chain-samples patterns, every other row reads the (2^M,) code masses of
its parity bits, sharing gate prefixes across a batch (`evolve_batch`).
One read-out serves every such mass row: exact rows reduce it, sampled
rows draw N_s codes from it (`sample_indices`); both read the energy of
every bit string from one declared cache per problem (`_code_energies`).
Each descent step is one `Evaluation`: the objective at its angles, then
once their shift-rule gradient.  At exact depth 1 the evaluation holds the
base row's pass, and the gradient reads the stencil rows gate by gate
from one backward sweep over it (`depth1_shift_masses`), not one pass per
shifted row.  Phase parameters need depth >= 2.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
from dataclasses import dataclass, asdict, fields
from functools import lru_cache

import numpy as np

from .fock import enumerate_basis
from .interferometer import build_reck_slices, reck_input, evolve_batch
from .parity import (Bits, _check_variant, codes_to_bits, parity_bits,
                     parity_codes)
from .sampling import (as_seed_sequence, chain_sample_depth1_batch,
                       depth1_parity_masses, depth1_shift_masses,
                       sample_indices)

_TWO_PI = 2.0 * np.pi
_SUPPORT_TOL = 1e-12
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
        doc = asdict(self)
        doc["b_min"] = "".join(map(str, self.b_min))
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
    gate with optimize_phases.  Its settings are checked as `SolverConfig`
    checks them, before any work.  Every row but a sampled depth-1 one is
    read out from its masses over all 2^M parity bit strings: the
    carry-chain pass at depth 1, the dense state coarse-grained at depth
    >= 2.  Exact mode reduces them against the energy of every bit string
    (`_code_energies`); sampled mode at depth >= 2 draws N_s codes per row
    from them and reads the same energies.  Sampled depth 1 scores the
    parity bits of chain-sampled patterns instead.

    Each mass row goes from its engine to the scorer on its own, so its
    energy does not depend on the rows that share its batch.  Exact depth
    1 builds the gate tables of all rows at once, 16 (M-1) (n+1)^2 bytes
    per row, then runs one pass per row within 16 (n+1) 2^M bytes (its
    last gate holds 6 (n+1) 2^M, 132 MB at M = n = 20), keeping 8 2^M
    bytes of masses per row, and
    `depth1_parity_masses` refuses meshes beyond M = 20.  Its shift
    stencil stays within the same budget: it holds the base row's forward
    masses, one backward table and one gate's two rows of 2^M masses,
    about 8 (n+1) 2^M + 16 2^M bytes.  The `Evaluation` that `evaluate`
    returns holds the unstarted `depth1_shift_masses` stencil of its
    angles, the base row's gate tables and forward masses, about
    4 (n+1) 2^M bytes, until its `gradient` runs the backward sweep.
    """

    def __init__(self, problem, num_photons: int, parity: int,
                 depth: int, samples: int | None = None,
                 optimize_phases: bool = False):
        SolverConfig(depth=depth, samples=samples,
                     optimize_phases=optimize_phases)  # the config's checks
        _check_variant(parity)
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

    def evaluate(self, angles, stream_seed=None) -> Evaluation:
        """The objective at one (p,) parameter vector as an `Evaluation`,
        its sampled rows drawn from stream_seed."""
        base, shifted = self._scorers(angles)
        energies, best_e, best_b = base(stream_seed)
        return Evaluation(float(energies[0]), (best_e, best_b), shifted)

    def value(self, angles, stream_seed=None):
        """Objective value plus the best observed (energy, bit string)."""
        evaluation = self.evaluate(angles, stream_seed)
        return evaluation.energy, *evaluation.best

    def value_batch(self, angle_rows: np.ndarray, stream_seed=None):
        """Per-row objectives plus the best observed (energy, bit string).

        The best is taken over all rows, the first row then shot on ties.
        Exact rows reduce their parity-bit masses one row at a time;
        stream_seed is unused.  Sampled rows each draw from an independent
        child stream of stream_seed: codes from those masses at depth >= 2,
        chain-sampled patterns at depth 1.  Either way results are
        identical whether rows are evaluated batched or one at a time.
        """
        rows = np.atleast_2d(np.asarray(angle_rows, dtype=float))
        if rows.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected rows of {self.num_parameters} parameters"
            )
        if not len(rows):
            raise ValueError(f"need at least one row, got {len(rows)}")
        if self.samples is None or self.depth > 1:
            return self._score_masses(self._masses(rows), len(rows),
                                      stream_seed)
        flat = parity_bits(chain_sample_depth1_batch(
            self.circuit, rows, self.samples, stream_seed),
            self.parity).reshape(-1, self.num_modes)
        e_flat = self.problem.energies(flat)
        best = int(np.argmin(e_flat))
        return (e_flat.reshape(len(rows), -1).mean(axis=1),
                float(e_flat[best]), tuple(int(b) for b in flat[best]))

    def shift_gradient(self, angles, stream_seed=None):
        """Shift-rule gradient plus the best observed (energy, bit string)
        of one (p,) parameter vector, the unshifted row unscored: component
        k is (E(x + pi/2 e_k) - E(x - pi/2 e_k)) / 2 over 2p rows, row 2k
        shifting parameter k up and row 2k+1 down; the best is taken over
        all rows, the first row on ties."""
        return _shift_rule(*self._scorers(angles)[1](stream_seed))

    def _scorers(self, angles):
        """Scorers of the row of `angles` and of its 2p shift-rule rows,
        each giving `value_batch`'s triple from a stream seed.  Exact depth
        1 runs the base row's `depth1_shift_masses` pass here and reads the
        stencil rows from its backward sweep; else each is a `value_batch`."""
        angles = self._parameters(angles)
        p = self.num_parameters
        if self.samples is None and self.depth == 1:
            masses, stencil = depth1_shift_masses(self.circuit, angles,
                                                  self.parity)
            return (lambda seed: self._score_masses(enumerate(masses), 1),
                    lambda seed: self._score_masses(
                        ((2 * g + s, row) for g, pair in stencil
                         for s, row in enumerate(pair)), 2 * p))
        return (lambda seed: self.value_batch(angles[None], seed),
                lambda seed: self.value_batch(angles + np.kron(
                    np.eye(p), [[np.pi / 2], [-np.pi / 2]]), seed))

    def _parameters(self, angles) -> np.ndarray:
        """A copy of `angles` as one float vector of the p parameters."""
        angles = np.array(angles, dtype=float)
        if angles.shape != (self.num_parameters,):
            raise ValueError(f"expected {self.num_parameters} parameters, "
                             f"got shape {angles.shape}")
        return angles

    def _masses(self, rows):
        """Yield (r, (2^M,) parity masses of row r, indexed by code) once
        per row: depth-1 rows in order, from one `depth1_parity_masses`
        call, dense rows in the order `evolve_batch` finishes them."""
        if self.depth == 1:
            yield from enumerate(depth1_parity_masses(self.circuit, rows,
                                                      self.parity))
            return
        g = self.num_gates
        phases = rows[:, g:] if self.optimize_phases else None
        codes = _sector_codes(self.num_modes, self.num_photons, self.parity)
        for r, state in evolve_batch(self.circuit, rows[:, :g], phases):
            yield r, np.bincount(codes, weights=state.probabilities(),
                                 minlength=1 << self.num_modes)

    def _score_masses(self, rows, num_rows: int, stream_seed=None):
        """`value_batch` of `num_rows` rows from the (r, (2^M,) code masses
        of row r) pairs that cover them, in any order, each scored alone
        against `_code_energies`: an exact row reduces its masses and
        observes its lowest supported code; a sampled row averages the
        energies of N_s codes drawn from its child stream, observing the
        lowest."""
        energies = np.empty(num_rows)
        best = np.empty(num_rows, dtype=np.int64)
        children = (None if self.samples is None
                    else as_seed_sequence(stream_seed).spawn(num_rows))
        for r, masses in rows:
            # masses first: a refused mesh builds no 2^M energy table
            e_codes = _code_energies(self.problem)
            if children is None:
                energies[r] = np.einsum("k,k->", masses, e_codes)
                best[r] = np.argmin(
                    np.where(masses > _SUPPORT_TOL, e_codes, np.inf))
                continue
            drawn = sample_indices(masses, self.samples, children[r])
            e_drawn = e_codes[drawn]
            energies[r] = e_drawn.mean()
            best[r] = drawn[e_drawn.argmin()]
        code = best[int(np.argmin(e_codes[best]))]
        return energies, float(e_codes[code]), tuple(
            int(b) for b in codes_to_bits([code], self.num_modes)[0])


class Evaluation:
    """`ParityObjective.evaluate`'s `energy` and `best` observed (energy,
    bit string) at one parameter vector, then once their `gradient`."""

    def __init__(self, energy: float, best: tuple[float, Bits], shifted):
        self.energy = energy
        self.best = best
        self._shifted = shifted  # the stencil scorer, until it runs

    def gradient(self, stream_seed=None):
        """`shift_gradient` of the evaluated angles; it runs once."""
        shifted, self._shifted = self._shifted, None
        if shifted is None:
            raise RuntimeError("this evaluation's gradient has already run")
        return _shift_rule(*shifted(stream_seed))


def _shift_rule(energies, best_e, best_b):
    """Shift-rule gradient of the stencil rows' `value_batch` triple."""
    return (energies[0::2] - energies[1::2]) / 2.0, best_e, best_b


@lru_cache(maxsize=4)
def _code_energies(problem) -> np.ndarray:
    """Read-only energy of every bit string of `problem`, indexed by its
    code: row `code` of `codes_to_bits`, the order of `parity_codes`.

    Keyed on the problem object, which must not change after its first
    solve: the four descents of a run on mass rows, and every run on the
    same problem, read one table.  A frontier sweep solves one problem per
    risk aversion in turn, so a few entries suffice.
    """
    m, size = problem.num_bits, 1 << problem.num_bits
    energies = np.concatenate([
        np.asarray(problem.energies(codes_to_bits(
            np.arange(s, min(s + _CODE_CHUNK, size)), m)), dtype=float)
        for s in range(0, size, _CODE_CHUNK)])
    energies.flags.writeable = False
    return energies


@lru_cache(maxsize=4)
def _sector_codes(num_modes: int, num_photons: int, parity: int):
    """Read-only parity codes of the (M, n) sector's patterns, in its order;
    the descents of a depth >= 2 run read four, two sectors by two variants."""
    basis = enumerate_basis(num_modes, num_photons)
    codes = parity_codes(basis.patterns, parity)
    codes.flags.writeable = False
    return codes


def gradient_step(angles, gradient, eta: float) -> np.ndarray:
    """Plain descent update, angles reduced mod 2*pi."""
    SolverConfig(eta=eta)  # the config's own check of eta
    angles = np.asarray(angles, dtype=float)
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != angles.shape or not np.isfinite(gradient).all():
        raise ValueError(f"need a finite gradient of shape {angles.shape}, "
                         f"got one of shape {gradient.shape}")
    return (angles - eta * gradient) % _TWO_PI


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
            evaluation = objective.evaluate(angles, next_seed())
            seen_e, seen_b = evaluation.best
            if seen_e < e_min:
                e_min, b_min = seen_e, seen_b
            running_best = min(running_best, evaluation.energy)
            curve.append((it, evaluation.energy, float(running_best)))
            if e_min <= target:
                break
            if (len(curve) > window and curve[-window - 1][2]
                    - curve[-1][2] < config.plateau_tolerance):
                break

            grad, seen_e, seen_b = evaluation.gradient(next_seed())
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
