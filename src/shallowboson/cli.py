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
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .dyck import dyck_count, catalan_dyck_spec
from .problems import (
    QuboProblem, MobiusProblem, PortfolioProblem, brute_force_min,
    mobius_min, portfolio_returns_from_prices, run_portfolio,
    random_portfolio_cloud,
)
from .solver import SolverConfig, run_variational
from .young import (
    young_lattice, young_lattice_size, catalan_basis, catalan_mu,
    count_boolean_sublattices, export_lattice_json, lattice_text,
)
from .verify import SUITES

_OUTPUT_ENV = "SHALLOWBOSON_OUTPUT"
_LATTICE_VERTEX_LIMIT = 1_000_000
_CONFIG_FIELDS = {f.name for f in fields(SolverConfig)}


class UsageError(Exception):
    pass


def _output_dir(args) -> Path:
    """The output directory, checked before any work but not made.

    It must be a directory or lie below one, and that directory must be
    writable; commands make it only when they write.
    """
    path = Path(args.output or os.environ.get(_OUTPUT_ENV) or ".")
    base = next(p for p in (path, *path.parents) if p.exists())
    if not base.is_dir() or not os.access(base, os.W_OK | os.X_OK):
        raise UsageError(f"cannot write output to {path}: {base} is not a "
                         f"writable directory")
    return path


def _read_input(path: str, what: str, parse):
    """parse(Path) of a file; missing, empty or unparsable is a usage error."""
    p = Path(path)
    if not p.exists():
        raise UsageError(f"{what} file not found: {path}")
    try:
        with warnings.catch_warnings():  # loadtxt only warns on no data
            warnings.simplefilter("error", UserWarning)
            return parse(p)
    except (OSError, ValueError, KeyError, TypeError, UserWarning) as exc:
        raise UsageError(f"could not parse {what} file {path}: {exc!r}")


def _solver_config(args) -> SolverConfig:
    """--config overridden by the flags given; SolverConfig checks values."""
    doc = {}
    if args.config:
        doc = _read_input(args.config, "config",
                          lambda p: json.loads(p.read_text()))
        if not isinstance(doc, dict):
            raise UsageError(f"{args.config} does not hold a JSON object")
        if isinstance(doc.get("config"), dict):
            doc = doc["config"]  # replay straight from a result document
        unknown = set(doc) - _CONFIG_FIELDS
        if unknown:
            raise UsageError(
                f"unknown config keys in {args.config}: {sorted(unknown)}"
            )
    flags = {name: getattr(args, name) for name in _CONFIG_FIELDS
             if getattr(args, name, None) is not None}
    merged = {"samples": 400, **doc, **flags}
    if args.exact:
        merged["samples"] = None
    return SolverConfig(**merged)


def _add_solver_flags(sub):
    """One flag per SolverConfig field (dest = field name) plus --exact."""
    sub.add_argument("--config", default=None, metavar="PATH",
                     help="JSON solver config, or a previous result "
                          "document to replay; explicit flags win")
    sub.add_argument("--depth", type=int, default=None)
    mode = sub.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", default=None,
                      help="evaluate objectives from the full distribution")
    mode.add_argument("--samples", type=int, default=None, metavar="N_S",
                      help="samples per evaluation (default 400)")
    sub.add_argument("--seed", type=int, default=None, dest="master_seed",
                     metavar="SEED")
    sub.add_argument("--eta", type=float, default=None)
    sub.add_argument("--iterations", type=int, default=None,
                     dest="max_iterations", metavar="ITERATIONS")
    sub.add_argument("--plateau", type=float, default=None,
                     dest="plateau_tolerance", metavar="PLATEAU")
    sub.add_argument("--phases", action="store_true", default=None,
                     dest="optimize_phases",
                     help="optimize phase angles alongside the splitters")
    sub.add_argument("--output", default=None,
                     help=f"output directory (default ${_OUTPUT_ENV} or .)")


def _parse_matrix(p: Path) -> np.ndarray:
    if p.suffix == ".json":
        return np.asarray(json.loads(p.read_text()), dtype=float)
    return np.loadtxt(p, delimiter=",", ndmin=2)


def _write_json(path: Path, doc: dict) -> None:
    """Standard JSON only: a NaN or infinity here is a failed computation;
    a numpy scalar is refused, never written as a string."""
    try:
        path.write_text(json.dumps(doc, sort_keys=True, allow_nan=False)
                        + "\n")
    except (TypeError, ValueError) as exc:
        raise RuntimeError(f"refusing to write {path.name}: {exc}")


def _write_result(out_dir: Path, stem: str, result, extra: dict) -> Path:
    doc = json.loads(result.to_json())
    doc.update(extra)
    path = out_dir / f"{stem}.json"
    _write_json(path, doc)
    result.write_curves_csv(out_dir / f"{stem}_curves.csv")
    return path


def cmd_solve_qubo(args) -> int:
    out_dir = _output_dir(args)
    matrix = _read_input(args.matrix, "matrix", _parse_matrix)
    problem = QuboProblem(matrix)
    config = _solver_config(args)
    result = run_variational(problem, config)
    out_dir.mkdir(parents=True, exist_ok=True)
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
    out_dir = _output_dir(args)
    problem = MobiusProblem(args.n, args.ja, args.jb)
    analytic = mobius_min(problem)  # J_a <= 0 surfaces as a usage error
    config = _solver_config(args)
    result = run_variational(problem, config)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = {
        "problem": {"kind": "mobius", "n": args.n, "j_a": args.ja,
                    "j_b": args.jb},
        "analytic_min": analytic,
    }
    path = _write_result(out_dir, "mobius_result", result, extra)
    print(f"E_min = {result.e_min:.6f}  analytic minimum = {analytic:.6f}")
    print(f"result written to {path}")
    return 0


def _parse_moments(p: Path) -> tuple[np.ndarray, ...]:
    doc = json.loads(p.read_text())
    return tuple(np.asarray(doc[key], dtype=float) for key in ("mu", "sigma"))


def cmd_solve_portfolio(args) -> int:
    out_dir = _output_dir(args)
    if args.prices:
        # the header fixes the column count; the date column is dropped
        mu, sigma = portfolio_returns_from_prices(_read_input(
            args.prices, "price", lambda p: np.loadtxt(
                p, delimiter=",", dtype=str, ndmin=2)[1:, 1:].astype(float)))
    elif args.moments:
        mu, sigma = _read_input(args.moments, "moments", _parse_moments)
    else:
        raise UsageError("one of --prices or --moments is required")
    gammas = [float(g) for g in args.gamma.split(",")] if args.gamma else None
    problem = PortfolioProblem(mu, sigma, n_bits_per_asset=args.nq,
                               approach=args.approach)
    config = _solver_config(args)
    # drawn before the solve, so that a bad count fails before any work
    cloud = random_portfolio_cloud(problem, args.random_baseline,
                                   config.master_seed)
    run = run_portfolio(problem, config, gammas)
    out_dir.mkdir(parents=True, exist_ok=True)
    run.write_frontier_csv(out_dir / "frontier.csv")
    for gamma, result in run.results.items():
        _write_result(out_dir, f"portfolio_gamma_{gamma:g}", result, {
            "problem": {"kind": "portfolio", "gamma": gamma,
                        "n_assets": problem.n_assets, "n_q": args.nq,
                        "approach": args.approach,
                        "mu": mu.tolist(), "sigma": sigma.tolist()},
        })
    if args.random_baseline:
        with open(out_dir / "random_portfolios.csv", "w") as fh:
            fh.write("risk,return\n")
            for r, m in np.column_stack(cloud).tolist():
                fh.write(f"{r!r},{m!r}\n")
    for pt in run.points:
        print(f"gamma={pt.gamma:g}  risk={pt.risk:.6f}  "
              f"return={pt.expected_return:.6f}  "
              f"bits={''.join(map(str, pt.bits))}")
    print(f"frontier written to {out_dir / 'frontier.csv'}")
    return 0


def cmd_enumerate(args) -> int:
    out_dir = _output_dir(args) if args.output else None
    spec = catalan_dyck_spec(args.M, args.n, args.depth)
    closed_form = dyck_count(spec)
    if closed_form > _LATTICE_VERTEX_LIMIT:
        raise UsageError(
            f"{closed_form} reachable patterns exceed "
            f"{_LATTICE_VERTEX_LIMIT}; refusing to enumerate")
    basis = catalan_basis(args.M, args.n, args.depth)
    print(f"reachable patterns of the first {args.depth} slice(s), "
          f"M={args.M}, n={args.n}:")
    patterns = basis.tolist()
    for p in patterns:
        print(" ", ",".join(map(str, p)))
    print(f"count = {len(basis)}")
    print(f"path family: k={spec.k}, delta1={spec.delta1}, "
          f"delta2={spec.delta2}; closed form = {closed_form}")
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "M": args.M, "n": args.n, "depth": args.depth,
            "patterns": patterns,
            "dyck": {"k": spec.k, "delta1": spec.delta1,
                     "delta2": spec.delta2},
            "count": len(basis), "closed_form": closed_form,
        }
        _write_json(out_dir / "enumeration.json", doc)
    return 0


def cmd_lattice(args) -> int:
    out_dir = _output_dir(args)
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
    # a bound holds (0, ..., 0, h) for each h <= max(mu), and the count
    # takes O(len(mu) * max(mu)) steps, so a taller bound is not counted
    if max(mu, default=0) >= _LATTICE_VERTEX_LIMIT:
        raise UsageError(f"lattice has more than {_LATTICE_VERTEX_LIMIT} "
                         "vertices; refusing")
    size = young_lattice_size(mu)
    if size > _LATTICE_VERTEX_LIMIT:
        raise UsageError(f"lattice has {size} vertices, more than "
                         f"{_LATTICE_VERTEX_LIMIT}; refusing")
    lattice = young_lattice(mu)
    # counted before any output, so that a bad order writes nothing
    counts = [(k, count_boolean_sublattices(lattice, k),
               count_boolean_sublattices(lattice, k, unit_boxes=True))
              for k in args.count_bk or ()]
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = export_lattice_json(lattice, ceiling)
    (out_dir / "lattice.txt").write_text(lattice_text(doc))
    _write_json(out_dir / "lattice.json", doc)
    print(f"vertices = {len(lattice)}  cover edges = "
          f"{len(lattice.cover_edges)}")
    for k, general, unit in counts:
        print(f"B_{k} sublattices: {general} (single-box reading: {unit})")
    print(f"lattice written to {out_dir / 'lattice.txt'}")
    return 0


def cmd_verify(args) -> int:
    if args.suite not in SUITES:
        raise UsageError(
            f"unknown suite {args.suite!r}; choose from "
            f"{sorted(SUITES)}"
        )
    out_dir = _output_dir(args)
    report = SUITES[args.suite]()
    all_passed = all(item["passed"] for item in report)
    doc = {"suite": args.suite, "checks": report, "all_passed": all_passed}
    out_dir.mkdir(parents=True, exist_ok=True)
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
