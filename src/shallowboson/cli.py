"""Command-line entry point.

Subcommands bind config files, data files, solvers, enumerators and
verifiers; structured results go to JSON, curve and frontier data to CSV
(plot data, not images).  Every output embeds the full config and master
seed, so a run can be replayed byte-for-byte from its own output.

Exit status: 0 success, 1 computational failure, 2 usage or data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dyck import DyckSpec, dyck_count, enumerate_dyck_paths, catalan_dyck_spec
from .interferometer import build_reck_slices, reck_input
from .parity import (
    upsilon0, upsilon0_prime, verify_surjectivity, binom_identity_check,
    parity_bits,
)
from .problems import (
    QuboProblem, MobiusProblem, PortfolioProblem, brute_force_min,
    mobius_min, portfolio_returns_from_prices, run_portfolio,
    random_portfolio_cloud,
)
from .solver import SolverConfig, run_variational
from .young import (
    young_lattice, catalan_basis, catalan_mu,
    count_boolean_sublattices, export_lattice_text, export_lattice_json,
)

_OUTPUT_ENV = "SHALLOWBOSON_OUTPUT"
_LATTICE_VERTEX_LIMIT = 1_000_000


class UsageError(Exception):
    pass


def _output_dir(args) -> Path:
    base = args.output or os.environ.get(_OUTPUT_ENV) or "."
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


# the library defaults, except that the CLI samples unless told --exact
_CONFIG_DEFAULTS = {**SolverConfig().to_dict(), "samples": 400}
# JSON value types a config file may give each field
_NUMBER, _NONE = (int, float), type(None)
_CONFIG_TYPES = {
    "depth": (int,), "samples": (int, _NONE), "eta": _NUMBER,
    "max_iterations": (int,), "plateau_tolerance": _NUMBER,
    "plateau_window": (int,), "master_seed": (int,),
    "optimize_phases": (bool,), "target_energy": _NUMBER + (_NONE,),
}


def _solver_config(args) -> SolverConfig:
    merged = dict(_CONFIG_DEFAULTS)
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {args.config}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"could not parse {args.config}: {exc}")
        if not isinstance(doc, dict):
            raise UsageError(f"{args.config} does not hold a JSON object")
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]  # replay straight from a result document
        unknown = set(doc) - set(merged)
        if unknown:
            raise UsageError(
                f"unknown config keys in {args.config}: {sorted(unknown)}"
            )
        for key, value in doc.items():
            kinds = _CONFIG_TYPES[key]
            if (not isinstance(value, kinds)
                    or (isinstance(value, bool) and bool not in kinds)):
                raise UsageError(
                    f"config key {key!r} in {args.config} has the wrong "
                    f"type: {value!r}"
                )
        merged.update(doc)
    if args.depth is not None:
        merged["depth"] = args.depth
    if args.exact:
        merged["samples"] = None
    elif args.samples is not None:
        merged["samples"] = args.samples
    if args.seed is not None:
        merged["master_seed"] = args.seed
    if args.eta is not None:
        merged["eta"] = args.eta
    if args.iterations is not None:
        merged["max_iterations"] = args.iterations
    if args.plateau is not None:
        merged["plateau_tolerance"] = args.plateau
    if args.phases:
        merged["optimize_phases"] = True
    return SolverConfig(**merged)


def _add_solver_flags(sub):
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="JSON solver config, or a previous result "
                          "document to replay; explicit flags win")
    sub.add_argument("--depth", type=int, default=None)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=None,
                      help="evaluate objectives from the full distribution")
    mode.add_argument("--samples", type=int, default=None, metavar="N_S",
                      help="samples per evaluation (default 400)")
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--eta", type=float, default=None)
    sub.add_argument("--iterations", type=int, default=None)
    sub.add_argument("--plateau", type=float, default=None)
    sub.add_argument("--phases", action="store_true", default=None,
                     help="optimize phase angles alongside the splitters")
    sub.add_argument("--output", default=None,
                     help=f"output directory (default ${_OUTPUT_ENV} or .)")


def _load_qubo(path: str) -> np.ndarray:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"matrix file not found: {path}")
    try:
        if p.suffix == ".json":
            matrix = np.asarray(json.loads(p.read_text()), dtype=float)
        else:
            matrix = np.loadtxt(p, delimiter=",", ndmin=2)
    except Exception as exc:
        raise UsageError(f"could not parse matrix file {path}: {exc}")
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise UsageError(f"matrix in {path} is not square: {matrix.shape}")
    return matrix


def _write_json(path: Path, doc: dict) -> None:
    """Standard JSON only: a NaN or infinity here is a failed computation."""
    try:
        path.write_text(json.dumps(doc, sort_keys=True, default=str,
                                   allow_nan=False) + "\n")
    except ValueError as exc:
        raise RuntimeError(f"refusing to write {path.name}: {exc}")


def _write_result(out_dir: Path, stem: str, result, extra: dict) -> Path:
    doc = json.loads(result.to_json())
    doc.update(extra)
    path = out_dir / f"{stem}.json"
    _write_json(path, doc)
    result.write_curves_csv(out_dir / f"{stem}_curves.csv")
    return path


def cmd_solve_qubo(args) -> int:
    matrix = _load_qubo(args.matrix)
    problem = QuboProblem(matrix)
    config = _solver_config(args)
    result = run_variational(problem, config)
    out_dir = _output_dir(args)
    extra = {"problem": {"kind": "qubo", "matrix": matrix.tolist()}}
    if problem.num_bits <= 20:
        e_min, argmin, lowest = brute_force_min(problem)
        extra["brute_force"] = {
            "e_min": e_min,
            "argmin": "".join(map(str, argmin)),
            "lowest": [[e, "".join(map(str, b))] for e, b in lowest],
        }
    path = _write_result(out_dir, "qubo_result", result, extra)
    print(f"E_min = {result.e_min:.6f}  b_min = "
          f"{''.join(map(str, result.b_min))}")
    print(f"result written to {path}")
    return 0


def cmd_solve_mobius(args) -> int:
    problem = MobiusProblem(args.n, args.ja, args.jb)
    analytic = mobius_min(problem)  # J_a <= 0 surfaces as a usage error
    config = _solver_config(args)
    result = run_variational(problem, config)
    out_dir = _output_dir(args)
    extra = {
        "problem": {"kind": "mobius", "n": args.n, "j_a": args.ja,
                    "j_b": args.jb},
        "analytic_min": analytic,
    }
    path = _write_result(out_dir, "mobius_result", result, extra)
    print(f"E_min = {result.e_min:.6f}  analytic minimum = {analytic:.6f}")
    print(f"result written to {path}")
    return 0


def cmd_solve_portfolio(args) -> int:
    if args.prices:
        p = Path(args.prices)
        if not p.exists():
            raise UsageError(f"price file not found: {args.prices}")
        rows = []
        with p.open() as fh:
            header = fh.readline().strip().split(",")
            for lineno, line in enumerate(fh, start=2):
                cells = line.strip().split(",")
                if len(cells) != len(header):
                    raise UsageError(
                        f"{args.prices}:{lineno}: expected "
                        f"{len(header)} columns"
                    )
                rows.append([cell for cell in cells[1:]])
        try:
            prices = np.asarray(rows, dtype=float)
        except ValueError:
            raise UsageError(f"{args.prices}: non-numeric price cell")
        try:
            mu, sigma = portfolio_returns_from_prices(prices)
        except ValueError as exc:
            raise UsageError(f"{args.prices}: {exc}")
    elif args.moments:
        p = Path(args.moments)
        if not p.exists():
            raise UsageError(f"moments file not found: {args.moments}")
        try:
            doc = json.loads(p.read_text())
            mu = np.asarray(doc["mu"], dtype=float)
            sigma = np.asarray(doc["sigma"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"{args.moments} must be a JSON object with "
                             f"numeric mu and sigma: {exc!r}")
    else:
        raise UsageError("one of --prices or --moments is required")
    gammas = [float(g) for g in args.gamma.split(",")] if args.gamma else [1.0]
    problem = PortfolioProblem(mu, sigma, n_bits_per_asset=args.nq,
                               approach=args.approach)
    config = _solver_config(args)
    run = run_portfolio(problem, config, gammas)
    out_dir = _output_dir(args)
    run.write_frontier_csv(out_dir / "frontier.csv")
    for gamma, result in run.results.items():
        _write_result(out_dir, f"portfolio_gamma_{gamma:g}", result, {
            "problem": {"kind": "portfolio", "gamma": gamma,
                        "n_assets": problem.n_assets, "n_q": args.nq,
                        "approach": args.approach,
                        "mu": mu.tolist(), "sigma": sigma.tolist()},
        })
    if args.random_baseline:
        risks, rets = random_portfolio_cloud(
            problem, args.random_baseline, args.seed)
        with open(out_dir / "random_portfolios.csv", "w") as fh:
            fh.write("risk,return\n")
            for r, m in zip(risks, rets):
                fh.write(f"{r!r},{m!r}\n")
    for pt in run.points:
        print(f"gamma={pt.gamma:g}  risk={pt.risk:.6f}  "
              f"return={pt.expected_return:.6f}  "
              f"bits={''.join(map(str, pt.bits))}")
    print(f"frontier written to {out_dir / 'frontier.csv'}")
    return 0


def cmd_enumerate(args) -> int:
    try:
        basis = catalan_basis(args.M, args.n, args.depth)
        spec = catalan_dyck_spec(args.M, args.n, args.depth)
    except ValueError as exc:
        raise UsageError(str(exc))
    closed_form = dyck_count(spec)
    print(f"reachable patterns of the first {args.depth} slice(s), "
          f"M={args.M}, n={args.n}:")
    for p in basis:
        print(" ", ",".join(map(str, p)))
    print(f"count = {len(basis)}")
    print(f"path family: k={spec.k}, delta1={spec.delta1}, "
          f"delta2={spec.delta2}; closed form = {closed_form}")
    if args.output:
        out_dir = _output_dir(args)
        doc = {
            "M": args.M, "n": args.n, "depth": args.depth,
            "patterns": [list(p) for p in basis],
            "dyck": {"k": spec.k, "delta1": spec.delta1,
                     "delta2": spec.delta2},
            "count": len(basis), "closed_form": closed_form,
        }
        (out_dir / "enumeration.json").write_text(
            json.dumps(doc, sort_keys=True) + "\n")
    return 0


def cmd_lattice(args) -> int:
    if args.mu:
        try:
            mu = tuple(int(c) for c in args.mu.split(","))
        except ValueError:
            raise UsageError(f"could not parse --mu {args.mu!r}")
        ceiling = None
    elif args.sector:
        try:
            m, n, depth = (int(c) for c in args.sector.split(","))
            mu = catalan_mu(m, n, depth)
            ceiling = n
        except ValueError as exc:
            raise UsageError(f"bad --sector: {exc}")
    else:
        raise UsageError("one of --mu or --sector is required")
    expected = np.prod([float(c + 1) for c in mu]) if mu else 1.0
    if expected > _LATTICE_VERTEX_LIMIT:
        raise UsageError(
            f"lattice may exceed {_LATTICE_VERTEX_LIMIT} vertices; refusing"
        )
    try:
        lattice = young_lattice(mu)
    except ValueError as exc:
        raise UsageError(str(exc))
    out_dir = _output_dir(args)
    text = export_lattice_text(lattice, ceiling)
    (out_dir / "lattice.txt").write_text(text)
    (out_dir / "lattice.json").write_text(
        json.dumps(export_lattice_json(lattice, ceiling), sort_keys=True)
        + "\n")
    print(f"vertices = {len(lattice)}  cover edges = "
          f"{len(lattice.cover_edges)}")
    if args.count_bk:
        for k in args.count_bk:
            general = count_boolean_sublattices(lattice, k)
            unit = count_boolean_sublattices(lattice, k, unit_boxes=True)
            print(f"B_{k} sublattices: {general} (single-box reading: {unit})")
    print(f"lattice written to {out_dir / 'lattice.txt'}")
    return 0


def _suite_parity(report: list) -> None:
    for m in range(3, 9):
        cov = verify_surjectivity(m, 1, {m - 1, m}, {0, 1})
        report.append({
            "name": f"depth-1 coverage M={m}",
            "passed": cov.is_complete,
            "value": len(cov.covered), "expected": 2**m,
        })
    for m in range(3, 8):
        full = m - 1
        if m % 2 == 0:
            a = set(verify_surjectivity(m, full, {m}, {0}).covered)
            b = set(verify_surjectivity(m, full, {m - 1}, {0}).covered)
        else:
            a = set(verify_surjectivity(m, full, {m - 1}, {0}).covered)
            b = set(verify_surjectivity(m, full, {m - 1}, {1}).covered)
        report.append({
            "name": f"full-depth disjoint union M={m}",
            "passed": not (a & b) and len(a | b) == 2**m,
            "value": [len(a), len(b)], "expected": f"disjoint, union 2^{m}",
        })


def _suite_dyck(report: list) -> None:
    anchors = [((7, 2, 1), 28), ((6, 2, 2), 19), ((6, 1, 1), 14),
               ((6, 3, 3), 20), ((8, 0, 0), 14)]
    for (k, d1, d2), want in anchors:
        got = dyck_count(DyckSpec(k, d1, d2))
        report.append({"name": f"dyck({k},{d1},{d2})", "passed": got == want,
                       "value": got, "expected": want})
    for k in range(0, 13, 2):
        spec = DyckSpec(k, 0, 0)
        report.append({
            "name": f"enumeration k={k}",
            "passed": len(enumerate_dyck_paths(spec)) == dyck_count(spec),
            "value": dyck_count(spec), "expected": "enumeration count",
        })


def _suite_multiplicity(report: list) -> None:
    from .fock import enumerate_basis
    for m in range(2, 7):
        for n in (m - 1, m):
            for k in range((m + n) % 2, m + 1, 2):
                u0 = upsilon0(m, n, k)
                bits = parity_bits(enumerate_basis(m, n).patterns)
                brute = int(np.all(bits == [0] * k + [1] * (m - k),
                                   axis=1).sum())
                report.append({
                    "name": f"upsilon0({m},{n},{k})",
                    "passed": u0 == brute, "value": u0, "expected": brute,
                })
                prime = upsilon0_prime(m, n, m - k)
                report.append({
                    "name": f"upsilon0'({m},{n},{m - k}) swap",
                    "passed": prime == u0,
                    "value": prime, "expected": u0,
                })
    report.append({
        "name": "binomial identity p,q,r <= 8",
        "passed": all(binom_identity_check(p, q, r)
                      for p in range(9) for q in range(9)
                      for r in range(q + 1)),
        "value": "all", "expected": "all",
    })


def _suite_gradients(report: list) -> None:
    from .interferometer import schwinger_expectation
    rng = np.random.default_rng(11)
    for m in (3, 4):
        circ = build_reck_slices(m, m - 1, reck_input(m, m))
        thetas = rng.uniform(0.2, np.pi - 0.2, len(circ.gates))
        herm = rng.normal(size=(m, m))
        herm = (herm + herm.T) / 2
        for idx in range(len(thetas)):
            plus = thetas.copy(); plus[idx] += np.pi / 2
            minus = thetas.copy(); minus[idx] -= np.pi / 2
            shift = (schwinger_expectation(circ, plus, herm)
                     - schwinger_expectation(circ, minus, herm)) / 2
            grid = np.linspace(0, 2 * np.pi, 9, endpoint=False)
            vals = []
            for g in grid:
                probe = thetas.copy(); probe[idx] = g
                vals.append(schwinger_expectation(circ, probe, herm))
            design = np.column_stack(
                [np.ones_like(grid), np.cos(grid), np.sin(grid)])
            coeff, *_ = np.linalg.lstsq(design, np.asarray(vals), rcond=None)
            analytic = (-coeff[1] * np.sin(thetas[idx])
                        + coeff[2] * np.cos(thetas[idx]))
            report.append({
                "name": f"shift vs analytic M={m} theta_{idx}",
                "passed": abs(shift - analytic) < 1e-8,
                "value": float(shift), "expected": float(analytic),
            })


def cmd_verify(args) -> int:
    suites = {
        "parity-surjectivity": _suite_parity,
        "dyck-counts": _suite_dyck,
        "multiplicities": _suite_multiplicity,
        "gradients": _suite_gradients,
    }
    if args.suite not in suites:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from "
            f"{sorted(suites)}"
        )
    report: list[dict] = []
    suites[args.suite](report)
    all_passed = all(item["passed"] for item in report)
    doc = {"suite": args.suite, "checks": report, "all_passed": all_passed}
    out_dir = _output_dir(args)
    path = out_dir / f"verify_{args.suite}.json"
    _write_json(path, doc)
    for item in report:
        mark = "PASS" if item["passed"] else "FAIL"
        print(f"[{mark}] {item['name']}: {item['value']}")
    print(f"report written to {path}")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shallowboson",
        description=(
            "Variational solver on exactly simulated shallow optical "
            "meshes, plus enumeration and verification tools.  CSV "
            "outputs: learning curves have columns config_tag, iteration, "
            "energy, best_energy; frontiers have gamma, risk, return, "
            "bitstring; random baselines have risk, return."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    q = sub.add_parser("solve-qubo", help="minimize x^T Q x")
    q.add_argument("--matrix", required=True,
                   help="dense header-free CSV or JSON matrix")
    _add_solver_flags(q)
    q.set_defaults(func=cmd_solve_qubo)

    m = sub.add_parser("solve-mobius", help="twisted-ladder Ising ring")
    m.add_argument("--n", type=int, required=True)
    m.add_argument("--ja", type=float, default=0.5)
    m.add_argument("--jb", type=float, default=-0.2)
    _add_solver_flags(m)
    m.set_defaults(func=cmd_solve_mobius)

    p = sub.add_parser("solve-portfolio", help="binary-weight portfolios")
    p.add_argument("--prices", default=None,
                   help="CSV with a date column then one column per asset")
    p.add_argument("--moments", default=None,
                   help="JSON document with mu and sigma")
    p.add_argument("--gamma", default=None,
                   help="comma-separated risk aversions (default 1)")
    p.add_argument("--nq", type=int, default=1, help="bits per asset")
    p.add_argument("--approach", choices=("normalized", "penalty"),
                   default="normalized")
    p.add_argument("--random-baseline", type=int, default=0,
                   help="also write N random portfolios for comparison")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve_portfolio)

    e = sub.add_parser("enumerate", help="reachable detection patterns")
    e.add_argument("M", type=int)
    e.add_argument("n", type=int)
    e.add_argument("depth", type=int)
    e.add_argument("--output", default=None)
    e.set_defaults(func=cmd_enumerate)

    lat = sub.add_parser("lattice", help="export a diagram lattice")
    lat.add_argument("--mu", default=None,
                     help="comma-separated column bound, e.g. 2,3,4")
    lat.add_argument("--sector", default=None,
                     help="M,n,depth selecting the reachable-pattern lattice")
    lat.add_argument("--count-bk", type=int, nargs="*", default=None,
                     metavar="K", help="count Boolean B_K sublattices")
    lat.add_argument("--output", default=None)
    lat.set_defaults(func=cmd_lattice)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite")
    v.add_argument("--output", default=None)
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
