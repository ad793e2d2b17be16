"""Check suites for the paper's combinatorial and gradient claims.

Each suite returns {name, passed, value, expected} records over the
ranges, seeds and draw order of acceptance criteria 1, 5, 6 and 7; the
CLI `verify` command writes them, the acceptance tests assert them.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .dyck import DyckSpec, dyck_count, enumerate_dyck_paths
from .fock import enumerate_basis
from .interferometer import (
    build_reck_slices, reck_input, schwinger_expectation,
)
from .parity import (
    binom_identity_check, parity_bits, upsilon0, upsilon0_prime,
    verify_surjectivity,
)

# published path counts, (k, delta1, delta2) -> count
DYCK_ANCHORS = {(7, 2, 1): 28, (6, 2, 2): 19, (6, 1, 1): 14,
                (6, 3, 3): 20, (8, 0, 0): 14}


def _check(name: str, value, expected, passed=None) -> dict:
    """A check record; without `passed` it passes iff value == expected."""
    passed = value == expected if passed is None else passed
    return {"name": name, "passed": bool(passed), "value": value,
            "expected": expected}


def parity_surjectivity() -> list[dict]:
    """Depth-1 parity images cover 2^M bit strings (M = 3..8); full-depth
    images of two configurations split them disjointly (M = 3..7)."""
    report = []
    for m in range(3, 9):
        cov = verify_surjectivity(m, 1, {m - 1, m}, {0, 1})
        report.append(_check(f"depth-1 coverage M={m}", len(cov.covered),
                             2**m, cov.is_complete))
    for m in range(3, 8):
        # even M: both sectors at parity 0; odd M: sector M-1, both parities
        configs = ((({m}, {0}), ({m - 1}, {0})) if m % 2 == 0
                   else (({m - 1}, {0}), ({m - 1}, {1})))
        a, b = (set(verify_surjectivity(m, m - 1, n, j).covered)
                for n, j in configs)
        report.append(_check(
            f"full-depth disjoint union M={m}", [len(a), len(b)],
            f"disjoint, union 2^{m}", not (a & b) and len(a | b) == 2**m))
    return report


def dyck_counts() -> list[dict]:
    """Published path counts, then enumeration against the closed form for
    every family with k <= 16 and delta1, delta2 <= 6."""
    report = [_check(f"dyck({k},{d1},{d2})", dyck_count(DyckSpec(k, d1, d2)),
                     want) for (k, d1, d2), want in DYCK_ANCHORS.items()]
    for k in range(17):
        for d1 in range(7):
            for d2 in range(7):
                if (k + d2 - d1) % 2 == 0:
                    spec = DyckSpec(k, d1, d2)
                    report.append(_check(f"enumeration ({k},{d1},{d2})",
                                         len(enumerate_dyck_paths(spec)),
                                         dyck_count(spec)))
    return report


def multiplicities() -> list[dict]:
    """Closed-form preimage counts (and their prime-swap twins) against
    exhaustive counts and per-sector totals for M <= 7, plus the binomial
    identity behind the closed forms."""
    report = []
    for m in range(2, 8):
        for n in (m - 1, m):
            bits = parity_bits(enumerate_basis(m, n).patterns)
            total = 0
            for k in range((m + n) % 2, m + 1, 2):
                u0 = upsilon0(m, n, k)
                brute = int(np.all(bits == [0] * k + [1] * (m - k),
                                   axis=1).sum())
                report.append(_check(f"upsilon0({m},{n},{k})", u0, brute))
                report.append(_check(f"upsilon0'({m},{n},{m - k}) swap",
                                     upsilon0_prime(m, n, m - k), u0))
                total += comb(m, k) * u0
            report.append(_check(f"totals M={m} n={n}", total,
                                 comb(n + m - 1, n)))
    report.append(_check("binomial identity p,q,r <= 8", "all", "all", all(
        binom_identity_check(p, q, r)
        for p in range(9) for q in range(9) for r in range(q + 1))))
    return report


def gradients(rng: np.random.Generator | None = None) -> list[dict]:
    """Shift rule against the derivative of a + b cos + c sin fitted on a
    16-point grid of each angle, M = 3, 4, 5, every depth, within 1e-8.

    Per mesh, rng (default seed 31) draws the angles, then a real symmetric
    one-body observable; a caller's own rng keeps drawing afterwards.
    """
    rng = np.random.default_rng(31) if rng is None else rng
    grid = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    design = np.column_stack([np.ones_like(grid), np.cos(grid),
                              np.sin(grid)])
    report = []
    for m in (3, 4, 5):
        for depth in range(1, m):
            circ = build_reck_slices(m, depth, reck_input(m, m))
            thetas = rng.uniform(0.2, np.pi - 0.2, len(circ.gates))
            raw = rng.normal(size=(m, m))
            herm = (raw + raw.T) / 2
            for idx in range(len(thetas)):
                plus = thetas.copy(); plus[idx] += np.pi / 2
                minus = thetas.copy(); minus[idx] -= np.pi / 2
                shift = (schwinger_expectation(circ, plus, herm)
                         - schwinger_expectation(circ, minus, herm)) / 2
                values = []
                for g in grid:
                    probe = thetas.copy(); probe[idx] = g
                    values.append(schwinger_expectation(circ, probe, herm))
                coeff, *_ = np.linalg.lstsq(design, np.asarray(values),
                                            rcond=None)
                analytic = (-coeff[1] * np.sin(thetas[idx])
                            + coeff[2] * np.cos(thetas[idx]))
                report.append(_check(
                    f"shift vs analytic M={m} depth={depth} theta_{idx}",
                    float(shift), float(analytic),
                    abs(shift - analytic) < 1e-8))
    return report


SUITES = {
    "parity-surjectivity": parity_surjectivity,
    "dyck-counts": dyck_counts,
    "multiplicities": multiplicities,
    "gradients": gradients,
}
