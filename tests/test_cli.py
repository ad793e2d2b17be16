import json

import numpy as np
import pytest

from shallowboson.cli import main
from shallowboson.problems import synthetic_portfolio
from shallowboson.solver import run_variational


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_reference_counts(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4", "4", "1")
    assert code == 0 and "count = 28" in out
    code, out, _ = run_cli(capsys, "enumerate", "4", "3", "3")
    assert code == 0 and "count = 20" in out
    code, out, _ = run_cli(capsys, "enumerate", "4", "3", "2")
    assert code == 0 and "count = 19" in out


def test_enumerate_invalid_combination(capsys):
    code, _, err = run_cli(capsys, "enumerate", "4", "2", "1")
    assert code == 2 and "error" in err


def test_solve_qubo_exact_depth2(tmp_path, capsys, monkeypatch):
    matrix_path = tmp_path / "q.csv"
    from shallowboson.problems import benchmark_qubo6
    np.savetxt(matrix_path, benchmark_qubo6(), delimiter=",")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "solve-qubo", "--matrix", str(matrix_path), "--exact",
        "--depth", "2", "--iterations", "12", "--seed", "3",
        "--output", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "qubo_result.json").read_text())
    assert round(doc["e_min"], 2) == -7.92
    assert doc["b_min"] == "111111"
    assert doc["brute_force"]["lowest"][0][1] == "111111"
    assert (out_dir / "qubo_result_curves.csv").exists()


def test_solve_qubo_missing_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "solve-qubo", "--matrix",
                           str(tmp_path / "missing.csv"))
    assert code == 2
    assert "not found" in err


def test_solve_qubo_replay_identical(tmp_path, capsys):
    matrix_path = tmp_path / "q.csv"
    np.savetxt(matrix_path, np.array([[-1.0, 0.2], [0.2, -0.5]]),
               delimiter=",")
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run_cli(
            capsys, "solve-qubo", "--matrix", str(matrix_path), "--samples",
            "32", "--iterations", "5", "--seed", "11",
            "--output", str(out_dir))
        assert code == 0
        outputs.append((out_dir / "qubo_result.json").read_bytes())
    assert outputs[0] == outputs[1]
    # replaying straight from the result document is also byte-identical
    out_dir = tmp_path / "replay"
    code, _, _ = run_cli(
        capsys, "solve-qubo", "--matrix", str(matrix_path),
        "--config", str(tmp_path / "a" / "qubo_result.json"),
        "--output", str(out_dir))
    assert code == 0
    assert (out_dir / "qubo_result.json").read_bytes() == outputs[0]


def test_solver_config_file_precedence(tmp_path, capsys):
    matrix_path = tmp_path / "q.csv"
    np.savetxt(matrix_path, np.array([[-1.0, 0.2], [0.2, -0.5]]),
               delimiter=",")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "samples": 16, "max_iterations": 3, "master_seed": 7, "eta": 0.2}))
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "solve-qubo", "--matrix", str(matrix_path),
        "--config", str(config), "--seed", "9", "--output", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "qubo_result.json").read_text())
    assert doc["config"]["samples"] == 16      # from the file
    assert doc["config"]["master_seed"] == 9   # explicit flag wins
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 1.0}))
    code, _, err = run_cli(
        capsys, "solve-qubo", "--matrix", str(matrix_path),
        "--config", str(bad), "--output", str(out_dir))
    assert code == 2 and "unknown config keys" in err


@pytest.mark.parametrize("doc", [
    [1, 2], {"samples": "abc"}, {"depth": "2"}, {"depth": True},
    {"optimize_phases": 1}, {"eta": None}, {"config": {"samples": 2.5}},
])
def test_solver_config_file_malformed(tmp_path, capsys, doc):
    matrix_path = tmp_path / "q.csv"
    np.savetxt(matrix_path, np.eye(2), delimiter=",")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "solve-qubo", "--matrix", str(matrix_path),
        "--config", str(config), "--output", str(tmp_path / "out"))
    assert code == 2 and err.startswith("error: ") and out == ""


def test_config_types_cover_solver_config():
    from shallowboson.cli import _CONFIG_TYPES
    from shallowboson.solver import SolverConfig

    assert set(_CONFIG_TYPES) == set(SolverConfig().to_dict())


def test_solve_mobius_small_exact(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "solve-mobius", "--n", "8", "--ja", "0.5", "--jb", "-0.2",
        "--exact", "--iterations", "15", "--seed", "1",
        "--output", str(out_dir))
    assert code == 0
    doc = json.loads((out_dir / "mobius_result.json").read_text())
    assert doc["analytic_min"] == pytest.approx(-3.2)
    assert doc["e_min"] == pytest.approx(-3.2)  # exhaustively observed


def test_solve_mobius_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve-mobius", "--n", "7",
                           "--output", str(tmp_path))
    assert code == 2
    code, _, err = run_cli(capsys, "solve-mobius", "--n", "8", "--ja", "0.0",
                           "--output", str(tmp_path))
    assert code == 2 and "J_a" in err


def test_solve_portfolio_moments(tmp_path, capsys):
    problem = synthetic_portfolio(5, seed=2)
    moments = tmp_path / "moments.json"
    moments.write_text(json.dumps({
        "mu": problem.mu.tolist(), "sigma": problem.sigma.tolist()}))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "solve-portfolio", "--moments", str(moments),
        "--gamma", "0.5,2", "--samples", "64", "--iterations", "8",
        "--seed", "5", "--random-baseline", "100", "--output", str(out_dir))
    assert code == 0
    frontier = (out_dir / "frontier.csv").read_text().strip().splitlines()
    assert frontier[0] == "gamma,risk,return,bitstring"
    assert len(frontier) == 3
    assert (out_dir / "random_portfolios.csv").exists()
    assert (out_dir / "portfolio_gamma_0.5.json").exists()


def test_solve_portfolio_gamma_default(tmp_path, capsys):
    problem = synthetic_portfolio(4, seed=3)
    moments = tmp_path / "moments.json"
    moments.write_text(json.dumps({
        "mu": problem.mu.tolist(), "sigma": problem.sigma.tolist()}))
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        capsys, "solve-portfolio", "--moments", str(moments), "--samples",
        "32", "--iterations", "4", "--output", str(out_dir))
    assert code == 0
    frontier = (out_dir / "frontier.csv").read_text().strip().splitlines()
    assert len(frontier) == 2 and frontier[1].startswith("1.0,")


def test_solve_portfolio_bad_prices(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_text("date,a,b\n2024-01-01,100,50\n2024-01-02,-3,51\n")
    code, _, err = run_cli(capsys, "solve-portfolio", "--prices", str(prices),
                           "--output", str(tmp_path / "out"))
    assert code == 2
    assert "non-positive" in err


def test_solve_portfolio_prices_roundtrip(tmp_path, capsys):
    rng = np.random.default_rng(9)
    days = 260
    prices = 100 * np.exp(np.cumsum(
        0.0002 + 0.01 * rng.standard_normal((days, 3)), axis=0))
    path = tmp_path / "prices.csv"
    with path.open("w") as fh:
        fh.write("date,a,b,c\n")
        for day, row in enumerate(prices):
            fh.write(f"2024-{day:04d}," + ",".join(f"{v:.6f}" for v in row)
                     + "\n")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "solve-portfolio", "--prices", str(path), "--samples", "32",
        "--iterations", "4", "--output", str(out_dir))
    assert code == 0


def test_lattice_counts(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(capsys, "lattice", "--mu", "2,3,4",
                           "--count-bk", "3", "--output", str(out_dir))
    assert code == 0
    assert "vertices = 28" in out
    assert "single-box reading: 4" in out
    assert (out_dir / "lattice.txt").exists()
    assert (out_dir / "lattice.json").exists()


def test_lattice_vertex_count_14(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "lattice", "--mu", "1,2,3",
                           "--output", str(tmp_path))
    assert code == 0 and "vertices = 14" in out


def test_lattice_empty_mu(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "lattice", "--mu", "0",
                           "--output", str(tmp_path))
    assert code == 0 and "vertices = 1" in out


def test_lattice_refuses_oversized(capsys, tmp_path):
    code, _, err = run_cli(capsys, "lattice", "--mu",
                           ",".join(["30"] * 10), "--output", str(tmp_path))
    assert code == 2 and "refusing" in err


@pytest.mark.parametrize("suite", [
    "dyck-counts", "multiplicities", "parity-surjectivity", "gradients"])
def test_verify_suites_pass(tmp_path, capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite,
                           "--output", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / f"verify_{suite}.json").read_text())
    assert doc["all_passed"] is True
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_unknown_suite(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "nope",
                           "--output", str(tmp_path))
    assert code == 2 and "unknown suite" in err


def test_output_env_var(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "env_out"
    monkeypatch.setenv("SHALLOWBOSON_OUTPUT", str(env_dir))
    code, _, _ = run_cli(capsys, "verify", "dyck-counts")
    assert code == 0
    assert (env_dir / "verify_dyck-counts.json").exists()


@pytest.mark.parametrize("text", [
    "1,nan\nnan,2\n", "1,inf\n0,2\n", "[[1, -Infinity], [0, 2]]"])
def test_solve_qubo_non_finite_matrix(tmp_path, capsys, text):
    suffix = ".json" if text.startswith("[") else ".csv"
    matrix_path = tmp_path / f"q{suffix}"
    matrix_path.write_text(text)
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "solve-qubo", "--matrix",
                             str(matrix_path), "--samples", "8",
                             "--iterations", "1", "--output", str(out_dir))
    assert code == 2 and "non-finite" in err
    assert out == "" and not out_dir.exists()


def _write_moments(tmp_path, doc):
    path = tmp_path / "moments.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return path


@pytest.mark.parametrize("doc", [
    {"mu": [0.1, float("nan")], "sigma": [[1.0, 0.0], [0.0, 1.0]]},
    {"mu": [0.1, 0.2], "sigma": [[1.0, float("inf")], [0.0, 1.0]]},
])
def test_solve_portfolio_non_finite_moments(tmp_path, capsys, doc):
    moments = _write_moments(tmp_path, doc)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "solve-portfolio", "--moments",
                           str(moments), "--output", str(out_dir))
    assert code == 2 and "non-finite" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("doc", [
    {"mu": [0.1, 0.2]}, {"sigma": [[1.0, 0.0], [0.0, 1.0]]},
    [[0.1, 0.2], [[1.0, 0.0], [0.0, 1.0]]], "{not json",
])
def test_solve_portfolio_malformed_moments(tmp_path, capsys, doc):
    moments = _write_moments(tmp_path, doc)
    code, _, err = run_cli(capsys, "solve-portfolio", "--moments",
                           str(moments), "--output", str(tmp_path / "out"))
    assert code == 2 and err.startswith("error: ")


def test_non_finite_result_is_a_computational_failure(tmp_path, capsys,
                                                       monkeypatch):
    import shallowboson.cli as cli

    def nan_result(problem, config):
        result = run_variational(problem, config)
        result.e_min = float("nan")
        return result

    monkeypatch.setattr(cli, "run_variational", nan_result)
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "solve-mobius", "--n", "4", "--samples",
                           "8", "--iterations", "1", "--output", str(out_dir))
    assert code == 1 and err.startswith("error: ")
    assert not (out_dir / "mobius_result.json").exists()


def test_runtime_error_exits_1(tmp_path, capsys, monkeypatch):
    import shallowboson.cli as cli

    def drifted(problem, config):
        raise RuntimeError("input state norm 1.1e+00 deviates beyond 1e-09")

    monkeypatch.setattr(cli, "run_variational", drifted)
    code, _, err = run_cli(capsys, "solve-mobius", "--n", "4",
                           "--output", str(tmp_path))
    assert code == 1
    assert err.startswith("error: ") and "norm" in err
