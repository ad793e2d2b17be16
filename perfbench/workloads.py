"""The benchmark's workloads: set-up, one fixed-work unit, and its checks.

Every workload is closed loop with one caller: the benchmark runs one unit,
waits for it, checks it, and only then starts the next.  A unit is fixed
work (a fixed step count, plateau stop and target energy off; a fixed census
list), so unit times compare across commits.  Layers are always reached
through `shallowboson` module attributes at call time, so the tracer's
wrappers see every call the benchmark makes.

- exact-qubo11: exact depth-1 descent on the published 11x11 matrix.  Dense
  Fock evolution over sectors of 352,716 and 184,756 patterns: stresses
  `interferometer` (apply_gate gather/scatter) and `fock` (set-up).
- chain-mobius70: sampled depth-1 descent on the 70-spin twisted ladder.
  The chain sampler and `problems.energies` on 139 x 150 rows; builds no
  Fock basis and never evolves a state, the control for exact-engine work.
- frontier-portfolio8: sampled depth-2 frontier sweep on an 8-asset
  synthetic portfolio.  The only path through `sampling.sample_patterns` and
  the solver's per-row dict; small sectors make per-gate block builds the
  cost.
- census-lattice: pure-Python enumeration behind the combinatorial claims
  (`dyck`, `young`, `parity`); seed ignored; flat under solver work.
"""

from __future__ import annotations

import hashlib
import json
import math
import traceback
from dataclasses import dataclass, field, replace
from math import comb
from pathlib import Path

import numpy as np

import shallowboson as sb

REFERENCES = Path(__file__).with_name("references.json")

# Step budgets: the smallest the solver allows (one step), so that a run
# holds as many units as it can.  On a 2-core x86 machine one unit takes
# about 4.5 s (exact-qubo11), 1 s (chain-mobius70) and 10 s
# (frontier-portfolio8); their medians over a run are the run_s figures.
# exact-qubo11 runs at depth 1: at depth 2 its one-step unit takes 16 s, a
# run holds one unit, and host drift inside it left the run_s spread over
# ten seeds at 0.12-0.18; at depth 1 the same sectors go through the same
# apply_gate passes (10 gates per evaluation instead of 19, 21 evaluations
# per descent instead of 39) and the spread is about 0.05.
QUBO11_STEPS = 1
MOBIUS70_STEPS = 1
PORTFOLIO8_STEPS = 1
PORTFOLIO_GAMMAS = (0.5, 1.0, 2.0)
_ENERGY_TOL = 1e-9  # e_min may not undercut the optimum by more
_ROUNDING_TOL = 1e-12  # relative; double rounding is ~1e-16


def _no_lap() -> None:
    """Default part boundary of a unit: nothing to record."""


def load_references() -> dict:
    with REFERENCES.open() as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """What one unit did: operations, failures and deterministic facts."""

    attempted: int
    failed: int
    evaluations: int  # angle vectors (solver) or census checks
    steps: int = 0
    gap_to_opt: float = 0.0
    digest: str | None = None
    errors: list[str] = field(default_factory=list)


# -- solver workloads --------------------------------------------------
@dataclass(frozen=True)
class SolverSpec:
    name: str
    depth: int
    samples: int | None
    eta: float
    steps: int
    gammas: tuple[float, ...] = ()

    def problem(self, seed: int, smoke: bool):
        if self.name == "exact-qubo11":
            matrix = sb.benchmark_qubo6() if smoke else sb.benchmark_qubo11()
            return sb.QuboProblem(matrix)
        if self.name == "chain-mobius70":
            return sb.MobiusProblem(10 if smoke else 70, 0.5, -0.2)
        return sb.synthetic_portfolio(4 if smoke else 8, seed)

    def optimum(self, instance) -> float:
        if isinstance(instance, sb.MobiusProblem):
            return sb.mobius_min(instance)
        return sb.brute_force_min(instance, 1)[0]


class SolverBench:
    """Set-up and fixed-work unit of one solver workload."""

    def __init__(self, spec: SolverSpec, seed: int, smoke: bool):
        self.spec = spec
        steps = 1 if smoke else spec.steps
        problem = spec.problem(seed, smoke)
        self.problem = problem
        self.config = sb.SolverConfig(
            depth=spec.depth, samples=spec.samples, eta=spec.eta,
            max_iterations=steps, plateau_window=steps, master_seed=seed)
        self.gammas = spec.gammas[:1] if smoke else spec.gammas
        # the same instances run_portfolio builds for each risk aversion
        self.instances = ([replace(problem, gamma=float(g))
                           for g in self.gammas]
                          if self.gammas else [problem])
        m = problem.num_bits
        if spec.samples is None or spec.depth > 1:
            for n in (m, m - 1):
                sb.enumerate_basis(m, n)
        rng = np.random.default_rng(seed)
        for n in (m, m - 1):
            for j in (0, 1):
                objective = sb.ParityObjective(problem, n, j, spec.depth,
                                               spec.samples)
                angles = rng.uniform(0, 2 * np.pi, objective.num_parameters)
                objective.value(angles, np.random.SeedSequence(seed))
        self.optima = [spec.optimum(inst) for inst in self.instances]

    def unit(self, lap=_no_lap) -> Outcome:
        """One fixed-work unit; `lap()` marks each boundary between parts.

        The frontier sweep runs one `run_portfolio` call per risk aversion
        (the same work and results as one call over all three, which solves
        them independently in turn), so the timer can probe between them.
        """
        solves = len(self.instances)
        try:
            if self.gammas:
                results, points = [], []
                for gamma in self.gammas:
                    run = sb.run_portfolio(self.problem, self.config, [gamma])
                    results.append(run.results[float(gamma)])
                    points += run.points
                    lap()
            else:
                results = [sb.run_variational(self.problem, self.config)]
                points = [None]
        except Exception:  # a failed solve is counted, not fatal
            return Outcome(solves, solves, 0,
                           errors=[traceback.format_exc()])
        out = Outcome(solves, 0, 0)
        gaps = []
        for inst, optimum, result, point in zip(
                self.instances, self.optima, results, points):
            bad = self._check(inst, optimum, result, point)
            if bad:
                out.failed += 1
                out.errors.append(f"{self.spec.name}: {', '.join(bad)}")
            for tag, curve in result.learning_curves.items():
                p = len(result.final_angles[tag])
                out.steps += len(curve)
                out.evaluations += len(curve) * (2 * p + 1)
            gaps.append(result.e_min - optimum)
        out.gap_to_opt = max(gaps)
        out.digest = hashlib.sha256("\n".join(
            r.to_json() for r in results).encode()).hexdigest()
        return out

    def _check(self, instance, optimum, result, point) -> list[str]:
        bad = []
        curves = result.learning_curves
        steps = self.config.max_iterations
        if len(curves) != 4 or any(len(c) != steps for c in curves.values()):
            bad.append(f"curve lengths {[len(c) for c in curves.values()]} "
                       f"!= 4 x {steps}")
        # e_min comes from a batched energies() call; the same row evaluated
        # alone can differ in the last bits (einsum summation order), so
        # "equal" means equal to within double rounding.
        energy = float(instance.energies(np.asarray([result.b_min]))[0])
        if abs(energy - result.e_min) > _ROUNDING_TOL * max(1.0, abs(energy)):
            bad.append(f"energies(b_min) {energy!r} != e_min "
                       f"{result.e_min!r}")
        if not result.e_min >= optimum - _ENERGY_TOL:
            bad.append(f"e_min {result.e_min!r} below optimum {optimum!r}")
        values = [v for c in curves.values() for _, e, best in c
                  for v in (e, best)]
        if point is not None:
            values += [point.risk, point.expected_return]
        if not all(math.isfinite(v) for v in values):
            bad.append("non-finite curve energy or frontier value")
        return bad


SOLVER_SPECS = {
    spec.name: spec for spec in (
        SolverSpec("exact-qubo11", depth=1, samples=None, eta=0.15,
                   steps=QUBO11_STEPS),
        SolverSpec("chain-mobius70", depth=1, samples=150, eta=1.0,
                   steps=MOBIUS70_STEPS),
        SolverSpec("frontier-portfolio8", depth=2, samples=300, eta=4.0,
                   steps=PORTFOLIO8_STEPS, gammas=PORTFOLIO_GAMMAS),
    )
}


# -- census workload ---------------------------------------------------
# Published anchors (criteria 1 and 10 of the acceptance suite).
DYCK_ANCHORS = {(7, 2, 1): 28, (6, 2, 2): 19, (6, 1, 1): 14,
                (6, 3, 3): 20, (8, 0, 0): 14}
BOOLEAN_ANCHORS = (
    # (lattice builder args, k, unit_boxes, published count)
    (("young", (2, 3, 4)), 3, True, 4),
    (("young", (2, 3, 4)), 3, False, 7),
    (("catalan", (4, 3, 1)), 3, False, 1),
    (("catalan", (4, 3, 1)), 2, False, 21),
)


class CensusBench:
    """Verification traffic: enumerations checked against closed forms."""

    def __init__(self, seed: int, smoke: bool):
        del seed  # deterministic enumeration
        self.max_k, self.max_delta = (8, 3) if smoke else (20, 6)
        self.max_basis_m = 5 if smoke else 11
        self.max_surj_m, self.max_split_m = (5, 5) if smoke else (11, 7)
        self.max_upsilon_m = 5 if smoke else 8
        self.max_ordinal_m = 4 if smoke else 8
        self.regression = ({} if smoke else
                           load_references()["regression_references"])
        # sector patterns for the brute multiplicity counts
        self.patterns = {
            (m, n): sb.enumerate_basis(m, n).patterns.astype(np.int64)
            for m in range(2, self.max_upsilon_m + 1) for n in (m - 1, m)
        }

    def checks(self):
        """(label, thunk) per census check; a thunk returns True on pass."""
        for (k, d1, d2), count in DYCK_ANCHORS.items():
            yield (f"dyck_count{(k, d1, d2)} published",
                   lambda k=k, d1=d1, d2=d2, c=count:
                   sb.dyck_count(sb.DyckSpec(k, d1, d2)) == c)
        for k in range(self.max_k + 1):
            for d1 in range(self.max_delta + 1):
                for d2 in range(self.max_delta + 1):
                    if (k + d2 - d1) % 2 == 0:
                        yield (f"dyck paths {(k, d1, d2)}",
                               lambda s=sb.DyckSpec(k, d1, d2):
                               len(sb.enumerate_dyck_paths(s))
                               == sb.dyck_count(s))
        for m in range(2, self.max_basis_m + 1):
            for n in (m, m - 1):
                for depth in range(1, m):
                    yield (f"catalan_basis{(m, n, depth)}",
                           lambda m=m, n=n, d=depth:
                           len(sb.catalan_basis(m, n, d))
                           == sb.dyck_count(sb.catalan_dyck_spec(m, n, d)))
        for m in range(3, self.max_surj_m + 1):
            yield f"depth-1 surjectivity M={m}", lambda m=m: self._depth1(m)
        for m in range(3, self.max_split_m + 1):
            yield f"full-depth split M={m}", lambda m=m: self._split(m)
        for (m, n), pats in self.patterns.items():
            yield f"upsilon0 M={m} n={n}", lambda m=m, n=n, p=pats: (
                self._upsilon(m, n, p))
        for (kind, args), k, unit, count in BOOLEAN_ANCHORS:
            yield (f"B{k} in {kind}{args} unit={unit} published",
                   lambda kind=kind, args=args, k=k, unit=unit, c=count:
                   self._boolean(kind, args, k, unit) == c)
        for label, ref in self.regression.items():
            yield (f"{label} (regression reference)",
                   lambda r=ref: self._boolean(
                       "catalan", tuple(r["lattice"]), r["k"], False)
                   == r["count"])
        yield ("ordinal sums of examples", self._ordinal_examples)
        for m in range(2, self.max_ordinal_m + 1):
            for n in (m, m - 1):
                yield (f"ordinal sum depth-1 {(m, n)}",
                       lambda m=m, n=n: self._ordinal(m, n))

    def unit(self, lap=_no_lap) -> Outcome:
        """Every census check once; `lap()` between checks."""
        out = Outcome(0, 0, 0)
        for label, check in self.checks():
            lap()
            out.attempted += 1
            try:
                ok = bool(check())
            except Exception:  # a failed check is counted, not fatal
                ok = False
                out.errors.append(traceback.format_exc())
            if not ok:
                out.failed += 1
                out.errors.append(f"census check failed: {label}")
        out.evaluations = out.attempted
        return out

    @staticmethod
    def _depth1(m: int) -> bool:
        cov = sb.verify_surjectivity(m, 1, {m - 1, m}, {0, 1})
        return cov.is_complete and len(cov.covered) == 2**m

    @staticmethod
    def _split(m: int) -> bool:
        full = m - 1
        if m % 2 == 0:
            configs = (({m}, {0}), ({m - 1}, {0}))
        else:
            configs = (({m - 1}, {0}), ({m - 1}, {1}))
        a, b = (set(sb.verify_surjectivity(m, full, n, j).covered)
                for n, j in configs)
        return not (a & b) and len(a | b) == 2**m

    @staticmethod
    def _upsilon(m: int, n: int, pats: np.ndarray) -> bool:
        odd = (pats & 1).astype(bool)
        total = 0
        for k in range((m + n) % 2, m + 1, 2):
            value = sb.upsilon0(m, n, k)
            brute = int(np.count_nonzero(
                ~odd[:, :k].any(axis=1) & odd[:, k:].all(axis=1)))
            if value != brute or sb.upsilon0_prime(m, n, m - k) != value:
                return False
            total += comb(m, k) * value
        return total == comb(n + m - 1, n)

    @staticmethod
    def _boolean(kind: str, args: tuple, k: int, unit: bool) -> int:
        lattice = (sb.young_lattice(args) if kind == "young"
                   else sb.catalan_lattice(*args))
        return sb.count_boolean_sublattices(lattice, k, unit_boxes=unit)

    @staticmethod
    def _ordinal_examples() -> bool:
        return (sb.ordinal_sum_decomposition(
                    sb.catalan_lattice(3, 3, 1)).factors == [2, 2, 1]
                and sb.ordinal_sum_decomposition(
                    sb.catalan_lattice(2, 2, 1)).factors == [1, 1])

    @staticmethod
    def _ordinal(m: int, n: int) -> bool:
        lattice = sb.catalan_lattice(m, n, 1)
        dec = sb.ordinal_sum_decomposition(lattice)
        # the glued factors form a chain from bottom to top
        height = sum(lattice.top()) - sum(lattice.bottom())
        return (not dec.residual and sum(dec.factors) == height
                and (m == 2 or dec.factors[0] == m - 1))


def build(name: str, seed: int, smoke: bool):
    """Run the set-up phase of one workload and return it ready to run."""
    if name == "census-lattice":
        return CensusBench(seed, smoke)
    return SolverBench(SOLVER_SPECS[name], seed, smoke)
