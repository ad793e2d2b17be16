"""Problem encodings: QUBO, Ising, twisted-ladder Ising, portfolios.

Every problem exposes `num_bits` and a vectorized `energies` over bit
rows, which is all the variational solver needs.  The solver keys its
table of every bit string's energy on the problem object, so the problem
classes here are frozen dataclasses compared and hashed by identity, and
keep private read-only copies of their arrays.  Exhaustive brute-force
minimization is the universal verification oracle at desk scale.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from importlib import resources
from math import comb

import numpy as np

from .dyck import _check_int
from .parity import codes_to_bits
from .solver import SolverConfig, SolverResult, run_variational

_BRUTE_FORCE_LIMIT = 26
_CHUNK = 1 << 18


def _set_fields(problem, **values) -> None:
    """Set fields of a frozen problem, from its own constructor only."""
    for name, value in values.items():
        object.__setattr__(problem, name, value)


@dataclass(frozen=True, eq=False)
class QuboProblem:
    """Quadratic binary program min x^T Q x; Q symmetrized on input and
    kept as a private read-only copy."""

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)  # a private copy, read-only below
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"Q must be square, got shape {q.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("Q has non-finite entries")
        if np.max(np.abs(q - q.T)) > 1e-12:
            q = (q + q.T) / 2.0
        q.flags.writeable = False
        _set_fields(self, q=q)

    @property
    def num_bits(self) -> int:
        return self.q.shape[0]

    def energies(self, bits: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(bits, dtype=float))
        return np.einsum("bi,ij,bj->b", x, self.q, x)


@dataclass(frozen=True, eq=False, init=False)
class IsingProblem:
    """H = sum_{i<j} J_ij s_i s_j + sum_k h_k s_k + const over s = +-1;
    `couplings` is J as an upper-triangular matrix, from an {(i, j): J_ij}
    dict; it and `fields` are private read-only copies."""

    couplings: np.ndarray
    fields: np.ndarray
    constant: float

    def __init__(self, couplings: dict[tuple[int, int], float],
                 fields: np.ndarray, constant: float = 0.0):
        fields = np.array(fields, dtype=float)
        num_bits = fields.shape[0]
        matrix = np.zeros((num_bits, num_bits))
        for (i, j), val in couplings.items():
            if not 0 <= i < j < num_bits:
                raise ValueError(f"coupling ({i}, {j}) out of range")
            matrix[i, j] = val
        constant = float(constant)
        if not np.isfinite([*fields, *matrix.ravel(), constant]).all():
            raise ValueError("fields, couplings or constant are non-finite")
        fields.flags.writeable = matrix.flags.writeable = False
        _set_fields(self, couplings=matrix, fields=fields, constant=constant)

    @property
    def num_bits(self) -> int:
        return self.fields.shape[0]

    def energies(self, bits: np.ndarray) -> np.ndarray:
        s = 2.0 * np.atleast_2d(np.asarray(bits, dtype=float)) - 1.0
        return (np.einsum("bi,ij,bj->b", s, self.couplings, s)
                + np.einsum("bi,i->b", s, self.fields) + self.constant)


def qubo_to_ising(q: np.ndarray) -> IsingProblem:
    """Equivalent Ising model under s = 2x - 1; energies match everywhere."""
    half = QuboProblem(q).q / 2.0
    upper = np.triu(half, 1)
    i, j = np.triu_indices(len(half), 1)
    couplings = dict(zip(zip(i.tolist(), j.tolist()), half[i, j].tolist()))
    fields = np.diag(half) + upper.sum(axis=0) + upper.sum(axis=1)
    return IsingProblem(couplings, fields, np.trace(half) + upper.sum())


@dataclass(frozen=True, eq=False)
class MobiusProblem:
    """Twisted-ladder Ising ring: n spins, ring coupling J_a, rungs J_b."""

    n: int
    j_a: float
    j_b: float

    def __post_init__(self):
        _check_int("spin count", self.n)
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(
                f"spin count must be even and >= 4, got {self.n}")
        _set_fields(self, j_a=float(self.j_a), j_b=float(self.j_b))
        if not np.isfinite([self.j_a, self.j_b]).all():
            raise ValueError(
                f"couplings must be finite, got {self.j_a}, {self.j_b}")

    @property
    def num_bits(self) -> int:
        return self.n

    def energies(self, bits: np.ndarray) -> np.ndarray:
        # a spin pair contributes +1 when its bits agree and -1 when not
        x = np.atleast_2d(np.asarray(bits))
        if x.shape[-1] != self.n:
            raise ValueError(f"{x.shape[-1]}-bit rows for {self.n} spins")
        half = self.n // 2
        d_ring = np.count_nonzero(x != np.roll(x, -1, axis=1), axis=1)
        d_rung = np.count_nonzero(x[:, :half] != x[:, half:], axis=1)
        return (-self.j_a * (self.n - 2 * d_ring)
                - self.j_b * (half - 2 * d_rung))


def mobius_min(problem: MobiusProblem) -> float:
    """Closed-form ground energy, valid for positive ring coupling."""
    if problem.j_a <= 0:
        raise ValueError(
            f"closed form requires J_a > 0, got {problem.j_a}"
        )
    n, j_a, j_b = problem.n, problem.j_a, problem.j_b
    return min(-n * j_a - n * j_b / 2.0, (4 - n) * j_a + n * j_b / 2.0)


def brute_force_min(problem, k_lowest: int = 3):
    """Exhaustive minimum over all bit strings, plus the K lowest energies.

    Returns (energy, argmin bits, [(energy, bits), ...] sorted ascending).
    Spin problems are scanned through s = 2x - 1.
    """
    _check_int("k_lowest", k_lowest)
    if k_lowest < 1:
        raise ValueError(f"k_lowest must be >= 1, got {k_lowest}")
    width = problem.num_bits
    if width > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"{width} bits exceeds the exhaustive-search bound of "
            f"{_BRUTE_FORCE_LIMIT}"
        )
    kept = []  # (energies, codes) of the k lowest of each chunk
    total = 1 << width
    for start in range(0, total, _CHUNK):
        codes = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        energies = problem.energies(codes_to_bits(codes, width))
        take = np.argpartition(energies, min(k_lowest, len(codes)) - 1)
        kept.append((energies[take[:k_lowest]], codes[take[:k_lowest]]))
    energies, codes = map(np.concatenate, zip(*kept))
    order = np.lexsort((codes, energies))[:k_lowest]  # ties by bit string
    best = list(zip(map(float, energies[order]), map(tuple, codes_to_bits(
        codes[order], width).tolist())))
    return *best[0], best


def _load_matrix(name: str) -> np.ndarray:
    path = resources.files("shallowboson._data").joinpath(name)
    with path.open("r") as fh:
        return np.loadtxt(fh, delimiter=",")


def benchmark_qubo6() -> np.ndarray:
    """The published 6x6 benchmark matrix, bit-exact decimals."""
    return _load_matrix("qubo_6.csv")


def benchmark_qubo11() -> np.ndarray:
    """The published 11x11 benchmark matrix, bit-exact decimals."""
    return _load_matrix("qubo_11.csv")


def portfolio_returns_from_prices(prices: np.ndarray
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """Annualized mean log-returns and covariance from daily prices.

    prices has one row per day and one column per asset.  Missing values
    are a hard error (silent imputation would corrupt the covariance);
    annualization multiplies by 250 trading days, and the covariance uses
    the unbiased (rows - 1) denominator.
    """
    prices = np.asarray(prices, dtype=float)
    if prices.ndim == 1:
        prices = prices[:, None]
    if prices.shape[0] < 2:
        raise ValueError("need at least 2 price rows per asset")
    if not np.all(np.isfinite(prices)):
        raise ValueError("price series contains missing values")
    if np.any(prices <= 0):
        bad = np.argwhere(prices <= 0)[0]
        raise ValueError(
            f"non-positive price at row {bad[0]}, asset {bad[1]}"
        )
    rets = np.diff(np.log(prices), axis=0)
    mu = rets.mean(axis=0) * 250.0
    if rets.shape[0] < 2:
        sigma = np.zeros((prices.shape[1], prices.shape[1]))
    else:
        sigma = np.atleast_2d(np.cov(rets, rowvar=False, ddof=1)) * 250.0
    return mu, sigma


def binary_encode_weights(x, n_bits_per_asset: int, n_assets: int
                          ) -> np.ndarray:
    """Decode grouped bits into per-asset weights in [0, 1].

    Asset i owns bits [i*N_q, (i+1)*N_q); the group is read as an integer
    (least significant bit first) and normalized by 2^N_q - 1, so a fully
    set group invests weight 1 and N_q = 1 reduces to invest/skip bits.
    """
    x = np.asarray(x, dtype=np.int64)
    if x.shape[-1] != n_assets * n_bits_per_asset:
        raise ValueError(
            f"expected {n_assets * n_bits_per_asset} bits, got {x.shape[-1]}"
        )
    groups = x.reshape(*x.shape[:-1], n_assets, n_bits_per_asset)
    weights = 2 ** np.arange(n_bits_per_asset, dtype=np.int64)
    return (groups * weights).sum(axis=-1) / float(2**n_bits_per_asset - 1)


@dataclass(frozen=True, eq=False)
class PortfolioProblem:
    """Mean-variance selection with binary-encoded weights.

    approach "penalty" keeps the quadratic form and adds
    B (sum omega - 1)^2; approach "normalized" rescales each candidate
    allocation to unit total weight and charges zero_penalty to the empty
    allocation.  `mu` and `sigma` are private read-only copies.
    """

    mu: np.ndarray
    sigma: np.ndarray
    gamma: float = 1.0
    n_bits_per_asset: int = 1
    approach: str = "normalized"
    penalty_weight: float | None = None
    zero_penalty: float | None = None

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)  # private, read-only below
        sigma = np.array(self.sigma, dtype=float)
        n = mu.shape[0]
        if not np.all(np.isfinite(np.append(mu, sigma))):
            raise ValueError("returns or covariance have non-finite entries")
        if sigma.shape != (n, n):
            raise ValueError("covariance shape does not match returns")
        if np.max(np.abs(sigma - sigma.T)) > 1e-9:
            raise ValueError("covariance must be symmetric within 1e-9")
        scale = max(1.0, float(np.max(np.abs(sigma))))
        if np.min(np.linalg.eigvalsh(sigma)) < -1e-9 * scale:
            raise ValueError("covariance must be positive semidefinite")
        if not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and >= 0: {self.gamma}")
        _check_int("bits per asset", self.n_bits_per_asset)
        if self.n_bits_per_asset < 1:
            raise ValueError("need at least one bit per asset")
        if self.approach not in ("penalty", "normalized"):
            raise ValueError(f"unknown approach {self.approach!r}")
        default = 1e3 * max(float(np.max(np.abs(mu))),
                            float(np.max(np.abs(sigma))), 1e-12)
        mu.flags.writeable = sigma.flags.writeable = False
        _set_fields(self, mu=mu, sigma=sigma, **{
            name: default for name in ("penalty_weight", "zero_penalty")
            if getattr(self, name) is None})
        if not np.isfinite([self.penalty_weight, self.zero_penalty]).all():
            raise ValueError("penalty weights must be finite")

    @property
    def n_assets(self) -> int:
        return self.mu.shape[0]

    @property
    def num_bits(self) -> int:
        return self.n_assets * self.n_bits_per_asset

    def decode(self, bits) -> np.ndarray:
        return binary_encode_weights(bits, self.n_bits_per_asset,
                                     self.n_assets)

    def energies(self, bits: np.ndarray) -> np.ndarray:
        energy = (portfolio_energy_penalty if self.approach == "penalty"
                  else portfolio_energy_normalized)
        return energy(self, np.atleast_2d(self.decode(bits)))


def _moments(problem: PortfolioProblem, omega):
    """(w, w.Sigma.w, w.mu) over the weight rows w of omega."""
    w = np.asarray(omega, dtype=float)
    return (w, np.einsum("...i,ij,...j->...", w, problem.sigma, w),
            np.einsum("...i,i->...", w, problem.mu))


def portfolio_energy_penalty(problem: PortfolioProblem, omega):
    """-w.mu + gamma w.Sigma.w + B (sum w - 1)^2 of each weight row w.

    One row gives a float, rows of shape (B, n_assets) a (B,) array.
    """
    w, risk, gain = _moments(problem, omega)
    return (-gain + problem.gamma * risk
            + problem.penalty_weight * (w.sum(axis=-1) - 1.0) ** 2)


def portfolio_energy_normalized(problem: PortfolioProblem, omega):
    """Scale-invariant objective of each weight row, shaped as above; the
    empty allocation pays the zero penalty."""
    w, risk, gain = _moments(problem, omega)
    totals = w.sum(axis=-1)
    safe = np.where(totals == 0, 1.0, totals)
    return np.where(totals == 0, problem.zero_penalty,
                    -gain / safe + problem.gamma * risk / safe**2)[()]


def count_unit_sum_allocations(n_assets: int, n_bits_per_asset: int) -> int:
    """Bit assignments whose decoded weights sum exactly to 1.

    Under the per-asset integer reading, these are the solutions of
    sum_i q_i = T with q_i in [0, T] and T = 2^N_q - 1.  No q_i can exceed
    T when the sum is T, so they are the weak compositions of T into
    n_assets parts, binom(T + n_assets - 1, n_assets - 1).
    """
    target = 2**n_bits_per_asset - 1
    return comb(target + n_assets - 1, n_assets - 1) if n_assets else 0


@dataclass
class FrontierPoint:
    gamma: float
    risk: float
    expected_return: float
    bits: tuple[int, ...]
    e_min: float


@dataclass
class PortfolioRun:
    points: list[FrontierPoint]
    results: dict[float, SolverResult]

    def write_frontier_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", "risk", "return", "bitstring"])
            for p in self.points:
                writer.writerow([
                    repr(p.gamma), repr(p.risk), repr(p.expected_return),
                    "".join(map(str, p.bits)),
                ])


def allocation_risk_return(problem: PortfolioProblem, bits):
    """Risk and return of the unit-normalized allocation of each bit row.

    The empty allocation has risk and return 0.  One row gives two floats,
    rows of shape (B, num_bits) two (B,) arrays.
    """
    omega = problem.decode(bits)
    totals = omega.sum(axis=-1, keepdims=True)
    _, risk, ret = _moments(problem, omega / np.where(totals == 0, 1, totals))
    return np.sqrt(risk), ret


def run_portfolio(problem: PortfolioProblem, config: SolverConfig,
                  gammas=None) -> PortfolioRun:
    """Sweep risk aversions, solve each, and collect frontier points."""
    if gammas is None:
        gammas = [1.0]
    # every instance is checked before the first solve
    instances = [replace(problem, gamma=float(gamma)) for gamma in gammas]
    points = []
    results = {}
    for instance in instances:
        result = run_variational(instance, config)
        risk, ret = map(float, allocation_risk_return(instance, result.b_min))
        points.append(FrontierPoint(instance.gamma, risk, ret,
                                    result.b_min, result.e_min))
        results[instance.gamma] = result
    return PortfolioRun(points, results)


def random_portfolio_cloud(problem: PortfolioProblem, count: int, seed
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Risk/return of `count` random non-empty bit allocations."""
    if count < 0:
        raise ValueError(f"portfolio count must be >= 0, got {count}")
    rng = np.random.default_rng(seed)
    bits = np.zeros((count, problem.num_bits), dtype=np.int64)
    empty = np.ones(count, dtype=bool)
    while empty.any():  # draw every row, then redraw the empty ones
        bits[empty] = rng.integers(0, 2, (int(empty.sum()), problem.num_bits))
        empty = ~bits.any(axis=1)
    return allocation_risk_return(problem, bits)


def synthetic_portfolio(n_assets: int, seed, gamma: float = 1.0,
                        n_bits_per_asset: int = 1,
                        approach: str = "normalized") -> PortfolioProblem:
    """Reproducible factor-model instance with annualized-scale moments."""
    rng = np.random.default_rng(seed)
    mu = rng.normal(0.08, 0.12, n_assets)
    loadings = rng.normal(0.0, 0.15, (n_assets, max(2, n_assets // 4)))
    idio = rng.uniform(0.01, 0.09, n_assets)
    sigma = loadings @ loadings.T + np.diag(idio)
    return PortfolioProblem(mu, sigma, gamma=gamma,
                            n_bits_per_asset=n_bits_per_asset,
                            approach=approach)
