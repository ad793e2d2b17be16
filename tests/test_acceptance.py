"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measurement reports.
"""

import json
from math import comb

import numpy as np
import pytest

import shallowboson as sb
from shallowboson import verify
from shallowboson.solver import ParityObjective, finite_difference_gradient


def _report(criterion, passed, detail=""):
    mark = "PASS" if passed else "FAIL"
    print(f"criterion {criterion}: {mark}  {detail}")
    assert passed, f"criterion {criterion} failed: {detail}"


def _checks_by_name(report):
    """The suite's check records by name; every one of them must pass."""
    failed = [c["name"] for c in report if not c["passed"]]
    assert not failed, f"failed checks: {failed}"
    by_name = {c["name"]: c for c in report}
    assert len(by_name) == len(report), "check names repeat"
    return by_name


def test_criterion_01_dyck_counts():
    checks = _checks_by_name(verify.dyck_counts())
    published = {(7, 2, 1): 28, (6, 2, 2): 19, (6, 1, 1): 14,
                 (6, 3, 3): 20, (8, 0, 0): 14}
    for (k, d1, d2), expected in published.items():
        got = checks[f"dyck({k},{d1},{d2})"]["value"]
        assert got == expected, f"dyck({k},{d1},{d2}) = {got} != {expected}"
    # k <= 16, delta1, delta2 <= 6 with k + delta2 - delta1 even: 417
    enumerations = [c for name, c in checks.items()
                    if name.startswith("enumeration ")]
    assert len(enumerations) == 417 and len(checks) == 5 + 417
    assert all(c["value"] == c["expected"] for c in enumerations)
    _report(1, True, f"5 published counts + {len(enumerations)} enumerations")


def test_criterion_02_hilbert_space_dimensions():
    assert len(sb.enumerate_basis(4, 3)) == 20
    checked = 0
    for m in range(2, 8):
        for n in (m, m - 1):
            for depth in range(1, m):
                basis = sb.catalan_basis(m, n, depth)
                expected = sb.dyck_count(sb.catalan_dyck_spec(m, n, depth))
                assert len(basis) == expected
                checked += 1
    _report(2, True, f"|basis(4,3)| = 20 and {checked} dimension matches")


def test_criterion_03_simulator_combinatorics_cross_validation():
    rng = np.random.default_rng(2024)
    for m in range(2, 7):
        for n in (m, m - 1):
            previous = None
            for depth in range(1, m):
                circ = sb.build_reck_slices(m, depth, sb.reck_input(m, n))
                supports = []
                for _ in range(3):
                    thetas = rng.uniform(0.1, np.pi - 0.1, len(circ.gates))
                    supports.append(sb.support(sb.evolve(circ, thetas)))
                assert supports[0] == supports[1] == supports[2], (
                    f"generic supports disagree at {(m, n, depth)}")
                assert supports[0] == set(
                    map(tuple, sb.catalan_basis(m, n, depth).tolist()))
                if previous is not None:
                    assert previous < supports[0], (
                        f"inclusion not strict at {(m, n, depth)}")
                previous = supports[0]
    _report(3, True, "supports equal path enumeration, chain strictly nested")


@pytest.mark.filterwarnings("ignore:phase angles on a depth-1")
def test_criterion_04_unitarity_and_hom():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(1, m + 1))
        n = m if n == m else m - 1
        depth = int(rng.integers(1, m))
        circ = sb.build_reck_slices(m, depth, sb.reck_input(m, n))
        thetas = rng.uniform(0, 2 * np.pi, len(circ.gates))
        psis = rng.uniform(0, 2 * np.pi, len(circ.gates))
        worst = max(worst, abs(sb.evolve(circ, thetas, psis).norm() - 1.0))
    assert worst < 1e-12, f"worst norm deviation {worst:.3e}"
    hom = sb.CircuitSpec(2, 1, [sb.TwoModeGate(0, 1)], (1, 1))
    dist = sb.exact_distribution(sb.evolve(hom, [np.pi / 2]))
    assert dist.get((1, 1), 0.0) < 1e-12
    assert abs(dist[(2, 0)] - 0.5) < 1e-12
    assert abs(dist[(0, 2)] - 0.5) < 1e-12
    _report(4, True, f"1000 circuits, worst norm deviation {worst:.1e}")


def test_criterion_05_parity_surjectivity():
    checks = _checks_by_name(verify.parity_surjectivity())
    for m in range(3, 9):
        assert checks[f"depth-1 coverage M={m}"]["value"] == 2**m
    for m in range(3, 8):
        # disjoint (asserted by the check) with sizes adding up to 2^M
        split = checks[f"full-depth disjoint union M={m}"]["value"]
        assert sum(split) == 2**m
    assert len(checks) == 6 + 5
    _report(5, True, "depth-1 complete for M=3..8, full-depth split for M<=7")


def test_criterion_06_multiplicity_formulas():
    checks = _checks_by_name(verify.multiplicities())
    closed_forms = 0
    for m in range(2, 8):
        for n in (m - 1, m):
            total = checks[f"totals M={m} n={n}"]["value"]
            assert total == comb(n + m - 1, n), f"totals at (M={m}, n={n})"
            for k in range((m + n) % 2, m + 1, 2):
                for name in (f"upsilon0({m},{n},{k})",
                             f"upsilon0'({m},{n},{m - k}) swap"):
                    assert checks[name]["value"] == checks[name]["expected"]
                closed_forms += 1
    # two closed forms per (M, n, k), a total per (M, n), one identity
    assert len(checks) == 2 * closed_forms + 12 + 1
    _report(6, True, "closed forms match exhaustive counts, totals add up")


def test_criterion_07_gradient_checks():
    rng = np.random.default_rng(31)
    checks = _checks_by_name(verify.gradients(rng))
    # every angle of the M = 3, 4, 5 meshes at every depth
    assert len(checks) == sum(len(sb.build_reck_slices(m, d).gates)
                              for m in (3, 4, 5) for d in range(1, m))
    worst = max(abs(c["value"] - c["expected"]) for c in checks.values())
    assert worst < 1e-8, f"bilinear shift-rule deviation {worst:.2e}"

    # measured (not assumed) comparison on an exact-mode parity objective
    problem = sb.QuboProblem(sb.benchmark_qubo6()[:4, :4])
    objective = ParityObjective(problem, 4, 0, 1, samples=None)
    angles = rng.uniform(0.2, np.pi - 0.2, objective.num_parameters)
    print("criterion 7 report: parity objective, shift rule vs central "
          "difference (eps=1e-5)")
    deviations = []
    shift_gradient = objective.shift_gradient(angles)[0]
    for idx in range(objective.num_parameters):
        shift = shift_gradient[idx]
        central = finite_difference_gradient(objective, angles, idx,
                                             epsilon=1e-5, scheme="central")
        deviations.append(abs(shift - central))
        print(f"  angle {idx}: shift {shift:+.6f}  central {central:+.6f}  "
              f"|difference| {deviations[-1]:.3e}")
    assert all(np.isfinite(deviations))
    _report(7, True,
            f"bilinear worst {worst:.1e}; parity-objective deviations "
            f"up to {max(deviations):.2e} measured and reported")


def test_criterion_08_qubo_end_to_end():
    problem = sb.QuboProblem(sb.benchmark_qubo6())
    e_min, argmin, lowest = sb.brute_force_min(problem, k_lowest=3)
    assert [round(e, 2) for e, _ in lowest] == [-7.92, -7.30, -5.89]

    deep_hits = 0
    for seed in range(10):
        config = sb.SolverConfig(depth=2, samples=None, eta=0.15,
                                 max_iterations=40, plateau_tolerance=1e-5,
                                 master_seed=seed,
                                 target_energy=e_min + 1e-9)
        result = sb.run_variational(problem, config)
        if round(result.e_min, 2) == -7.92:
            deep_hits += 1
    assert deep_hits >= 1, f"depth-2 hits {deep_hits}/10"

    shallow_hits = 0
    for seed in range(10):
        config = sb.SolverConfig(depth=1, samples=None, eta=0.15,
                                 max_iterations=40, plateau_tolerance=1e-5,
                                 master_seed=seed, target_energy=-7.3)
        result = sb.run_variational(problem, config)
        if result.e_min <= -7.3:
            shallow_hits += 1
    assert shallow_hits >= 5, f"depth-1 hits {shallow_hits}/10"
    _report(8, True,
            f"three lowest match, depth-2 {deep_hits}/10 at -7.92, "
            f"depth-1 {shallow_hits}/10 at <= -7.3")


def test_criterion_09_mobius():
    for n in range(4, 17, 2):
        for j_a in (0.1, 0.5, 1.0):
            for j_b in (-0.5, -0.2, 0.0, 0.3):
                problem = sb.MobiusProblem(n, j_a, j_b)
                assert sb.mobius_min(problem) == pytest.approx(
                    sb.brute_force_min(problem, 1)[0], abs=1e-9)
    big = sb.MobiusProblem(70, 0.5, -0.2)
    assert sb.mobius_min(big) == pytest.approx(-40.0, abs=0.0)

    best = np.inf
    hits = 0
    for seed in range(5):
        config = sb.SolverConfig(depth=1, samples=150, eta=1.0,
                                 max_iterations=400, plateau_tolerance=0.0,
                                 master_seed=seed, target_energy=-34.0)
        result = sb.run_variational(big, config)
        best = min(best, result.e_min)
        if result.e_min <= -34.0:
            hits += 1
            break  # one success satisfies the criterion
    assert hits >= 1, f"no seed reached -34, best {best:.2f}"
    _report(9, True, f"closed form exact on grid; sampled 70-mode best "
                     f"energy {best:.2f} <= -34")


def test_criterion_10_boolean_sublattice_counts():
    lattice = sb.young_lattice((2, 3, 4))
    unit_b3 = sb.count_boolean_sublattices(lattice, 3, unit_boxes=True)
    general_b3 = sb.count_boolean_sublattices(lattice, 3)
    depth1 = sb.catalan_lattice(4, 3, 1)  # the 14-vertex sublattice
    b3_depth1 = sb.count_boolean_sublattices(depth1, 3)
    b3_depth1_unit = sb.count_boolean_sublattices(depth1, 3, unit_boxes=True)
    b2_depth1 = sb.count_boolean_sublattices(depth1, 2)
    print("criterion 10 report:")
    print(f"  B3 in Y(2,3,4): single-box removals {unit_b3} (published 4); "
          f"general sublattices {general_b3} (three with taller pieces "
          f"beyond the published count)")
    print(f"  B3 in depth-1 sublattice: {b3_depth1} "
          f"(= {b3_depth1_unit} single-box; published 1)")
    print(f"  B2 in depth-1 sublattice: {b2_depth1} (published 21; "
          f"single-box reading gives "
          f"{sb.count_boolean_sublattices(depth1, 2, unit_boxes=True)})")
    assert unit_b3 == 4
    assert b3_depth1 == 1 and b3_depth1_unit == 1
    assert b2_depth1 == 21
    # definition sensitivity, recorded not reconciled
    assert general_b3 == 7
    _report(10, True, "4 / 1 / 21 reproduced; definition sensitivity "
                      "documented (general B3 count is 7)")


def test_criterion_11_portfolio():
    problem = sb.synthetic_portfolio(12, seed=100)
    rng = np.random.default_rng(0)
    # (a) exact scale invariance of the normalized objective
    for _ in range(50):
        w = rng.uniform(0.05, 1.0, 12)
        scale = rng.uniform(0.1, 25.0)
        assert sb.portfolio_energy_normalized(problem, scale * w) == (
            pytest.approx(sb.portfolio_energy_normalized(problem, w),
                          rel=1e-12))

    # (b) solver finds the exhaustive optimum on synthetic instances
    hits = 0
    for seed in range(10):
        instance = sb.synthetic_portfolio(12, seed=100 + seed)
        brute = sb.brute_force_min(instance, 1)[0]
        config = sb.SolverConfig(depth=1, samples=300, eta=4.0,
                                 max_iterations=60, plateau_tolerance=0.0,
                                 master_seed=seed,
                                 target_energy=brute + 1e-9)
        result = sb.run_variational(instance, config)
        if abs(result.e_min - brute) < 1e-9:
            hits += 1
    assert hits >= 8, f"solver matched brute force in {hits}/10 seeds"

    # (c) frontier points are Pareto-undominated by random portfolios
    gammas = [0.5, 1.0, 2.0]
    points = []
    for gamma in gammas:
        instance = sb.synthetic_portfolio(12, seed=100, gamma=gamma)
        e_min, argmin, _ = sb.brute_force_min(instance, 1)
        points.append(sb.allocation_risk_return(instance, argmin))
    risks, returns = sb.random_portfolio_cloud(problem, 10_000, seed=1)
    for risk, ret in points:
        dominated = np.any((risks <= risk + 1e-12)
                           & (returns > ret + 1e-12))
        assert not dominated, f"frontier point ({risk:.4f}, {ret:.4f})"
    _report(11, True, f"scale invariance exact, {hits}/10 optima found, "
                      f"{len(points)} frontier points undominated by 10^4 "
                      f"random portfolios")


def test_criterion_12_replay_determinism(tmp_path):
    problem = sb.QuboProblem(sb.benchmark_qubo6())
    config = sb.SolverConfig(depth=1, samples=64, eta=0.3, max_iterations=8,
                             plateau_tolerance=0.0, master_seed=321)
    first = sb.run_variational(problem, config)
    replayed = sb.run_variational(
        problem, sb.SolverConfig(**json.loads(json.dumps(first.config))))
    assert first.to_json() == replayed.to_json()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(first.to_json())
    b.write_text(replayed.to_json())
    assert a.read_bytes() == b.read_bytes()
    _report(12, True, "solver replay is byte-identical")
