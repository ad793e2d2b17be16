import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shallowboson import verify
from shallowboson.cli import main
from shallowboson.problems import (
    PortfolioProblem, random_portfolio_cloud, synthetic_portfolio,
)
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


_ENUMERATE_4_3_1 = """\
reachable patterns of the first 1 slice(s), M=4, n=3:
  3,0,0,0
  2,1,0,0
  2,0,1,0
  2,0,0,1
  1,2,0,0
  1,1,1,0
  1,1,0,1
  1,0,2,0
  1,0,1,1
  0,3,0,0
  0,2,1,0
  0,2,0,1
  0,1,2,0
  0,1,1,1
count = 14
path family: k=6, delta1=1, delta2=1; closed form = 14
"""

# SHA-256 of (stdout, enumeration.json) as written when catalan_basis was a
# recursive filler returning a list of tuples
_ENUMERATE_DIGESTS = {
    ("4", "3", "1"): (
        "94f961b2cd48d33ce85467e11a3f3314ee7e0917c96dc14a3b85786adb686722",
        "2e833d62f8edb77ea911320d9d1b758c6b31c08431adbf13fc9979ec931eef25"),
    ("6", "6", "2"): (
        "4205f56758551a5b7ef9bf91c381f022251234d8d2fb9a4e56743cdb600d8fea",
        "8c770f10e7b27e0c9accf2579e9f2715579ccd4d82c9bc4b1a614caf0c0df7ed"),
    ("7", "6", "3"): (
        "15835e2641ac6cf2a34673c177b63d5d86385035e091a3fd0e7cab2994a39d81",
        "6b7d193a1e17b29683d3d57e23b497f9d77956e2278d5677a8712076656efcf7"),
}


def test_enumerate_output_bytes(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "enumerate", "4", "3", "1")
    assert code == 0 and out == _ENUMERATE_4_3_1
    for args, digests in _ENUMERATE_DIGESTS.items():
        out_dir = tmp_path / "_".join(args)
        code, out, _ = run_cli(capsys, "enumerate", *args,
                               "--output", str(out_dir))
        written = (out_dir / "enumeration.json").read_bytes()
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest(),
                hashlib.sha256(written).hexdigest()) == digests


def test_enumerate_invalid_combination(capsys):
    code, _, err = run_cli(capsys, "enumerate", "4", "2", "1")
    assert code == 2 and "error" in err


def test_enumerate_refuses_oversized(capsys):
    # 6.9e10 reachable patterns: refused from the closed-form count
    code, out, err = run_cli(capsys, "enumerate", "20", "20", "19")
    assert code == 2 and "refusing" in err and out == ""


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


_REPLAY_MATRIX = np.array([[-1.0, 0.2, 0.1], [0.2, -0.5, 0.3],
                           [0.1, 0.3, -0.2]])


@pytest.mark.parametrize("depth", [1, 2])
def test_solve_qubo_replay_identical(tmp_path, capsys, depth):
    matrix_path = tmp_path / "q.csv"
    # a depth-d mesh needs at least d + 1 modes
    np.savetxt(matrix_path, _REPLAY_MATRIX[:depth + 1, :depth + 1],
               delimiter=",")
    outputs = []
    for sub in ("a", "b"):
        out_dir = tmp_path / sub
        code, _, _ = run_cli(
            capsys, "solve-qubo", "--matrix", str(matrix_path), "--samples",
            "32", "--iterations", "5", "--seed", "11", "--depth", str(depth),
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


@pytest.mark.parametrize("argv", [
    ("solve-qubo", "--eta", "nan"), ("solve-qubo", "--eta", "inf"),
    ("solve-qubo", "--plateau", "nan"), ("solve-mobius", "--ja", "nan"),
    ("solve-mobius", "--jb", "inf"), ("solve-portfolio", "--gamma", "inf"),
    ("solve-portfolio", "--gamma", "1,nan"), ("solve-qubo", "--config"),
    ("solve-portfolio", "--random-baseline", "-5"),
], ids=" ".join)
def test_bad_input_is_refused_before_solving(tmp_path, capsys, monkeypatch,
                                             argv):
    import shallowboson.cli as cli
    import shallowboson.problems as problems

    def refuse(problem, config):
        raise AssertionError("solver called on non-finite input")

    monkeypatch.setattr(cli, "run_variational", refuse)
    monkeypatch.setattr(problems, "run_variational", refuse)
    matrix = tmp_path / "q.csv"
    np.savetxt(matrix, np.eye(2), delimiter=",")
    config = tmp_path / "config.json"
    config.write_text('{"eta": NaN}')
    problem = synthetic_portfolio(4, seed=3)
    moments = _write_moments(tmp_path, {
        "mu": problem.mu.tolist(), "sigma": problem.sigma.tolist()})
    inputs = {"solve-qubo": ["--matrix", str(matrix)],
              "solve-mobius": ["--n", "4"],
              "solve-portfolio": ["--moments", str(moments)]}
    argv = list(argv) + ([str(config)] if argv[-1] == "--config" else [])
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, argv[0], *inputs[argv[0]], *argv[1:],
                             "--samples", "8", "--output", str(out_dir))
    assert code == 2 and err.startswith("error: ") and out == ""
    assert not out_dir.exists()


def test_negative_seed_names_the_field(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "solve-mobius", "--n", "4", "--seed",
                             "-1", "--output", str(out_dir))
    assert code == 2 and err.startswith("error: ") and out == ""
    assert "master_seed" in err
    assert not out_dir.exists()


def test_depth1_phases_are_refused(tmp_path, capsys):
    matrix = tmp_path / "q.csv"
    np.savetxt(matrix, np.eye(3), delimiter=",")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "solve-qubo", "--matrix", str(matrix),
                             "--depth", "1", "--phases", "--exact",
                             "--output", str(out_dir))
    assert code == 2 and err.startswith("error: ") and out == ""
    assert "optimize_phases" in err and "depth" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [("solve-qubo", "--matrix"),
                                  ("solve-portfolio", "--prices")],
                         ids=" ".join)
def test_empty_data_file_is_one_usage_error(tmp_path, argv):
    # a fresh interpreter shows what a user sees on stderr, warnings too
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "shallowboson.cli", *argv, str(empty),
         "--output", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: could not parse")
    assert not (tmp_path / "out").exists()


def _portfolio_baseline(capsys, tmp_path, moments, sub, *flags):
    out_dir = tmp_path / sub
    code, _, err = run_cli(
        capsys, "solve-portfolio", "--moments", str(moments), "--samples",
        "8", "--iterations", "1", "--random-baseline", "50", *flags,
        "--output", str(out_dir))
    assert code == 0, err
    return (out_dir / "random_portfolios.csv").read_bytes()


def test_random_baseline_follows_master_seed(tmp_path, capsys):
    problem = synthetic_portfolio(4, seed=3)
    moments = _write_moments(tmp_path, {
        "mu": problem.mu.tolist(), "sigma": problem.sigma.tolist()})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"master_seed": 7}))
    first = _portfolio_baseline(capsys, tmp_path, moments, "a")
    assert _portfolio_baseline(capsys, tmp_path, moments, "b") == first
    seeded = _portfolio_baseline(capsys, tmp_path, moments, "c",
                                 "--seed", "7")
    assert seeded != first
    assert _portfolio_baseline(capsys, tmp_path, moments, "d",
                               "--config", str(config)) == seeded


def test_random_baseline_rows_read_back_as_floats(tmp_path, capsys):
    problem = synthetic_portfolio(4, seed=3)
    moments = _write_moments(tmp_path, {
        "mu": problem.mu.tolist(), "sigma": problem.sigma.tolist()})
    written = _portfolio_baseline(capsys, tmp_path, moments, "a").decode()
    header, *rows = csv.reader(io.StringIO(written))
    assert header == ["risk", "return"]
    risks, returns = random_portfolio_cloud(
        PortfolioProblem(problem.mu, problem.sigma), 50, 0)
    assert [[float(v) for v in row] for row in rows] == np.column_stack(
        [risks, returns]).tolist()


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


# SHA-256 of (lattice.txt, lattice.json) as written when the text export
# labelled every vertex itself
_LATTICE_DIGESTS = {
    ("--mu", "2,3,4"): (
        "580c2b93eaaec2cb3f124222eb3394ca7ff2245c6825ed6f1c859b90fbc8e00d",
        "dcae7027d3d260501f4c2287adf82d40828d2dfbd7bda04273d9d618286a1342"),
    ("--sector", "6,6,2"): (
        "e563532f7724d09118de817eaee7a52e8697bdbc281e5fba548e2c0f9588482a",
        "889b217a800e2489d4f2f32db2c0c552dc35ff36e409fee7879534d82c857bff"),
}


@pytest.mark.parametrize("args", sorted(_LATTICE_DIGESTS), ids=" ".join)
def test_lattice_output_bytes(tmp_path, capsys, args):
    code, _, _ = run_cli(capsys, "lattice", *args, "--output", str(tmp_path))
    assert code == 0
    assert tuple(hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                 for name in ("lattice.txt", "lattice.json")
                 ) == _LATTICE_DIGESTS[args]


def test_lattice_vertex_count_14(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "lattice", "--mu", "1,2,3",
                           "--output", str(tmp_path))
    assert code == 0 and "vertices = 14" in out


def test_lattice_empty_mu(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "lattice", "--mu", "0",
                           "--output", str(tmp_path))
    assert code == 0 and "vertices = 1" in out


def test_lattice_accepts_a_long_bound_with_few_vertices(capsys, tmp_path):
    # 21 vertices, although the product of (mu_c + 1) is 2^20
    code, out, _ = run_cli(capsys, "lattice", "--mu", ",".join(["1"] * 20),
                           "--output", str(tmp_path))
    assert code == 0 and "vertices = 21 " in out


def test_lattice_refusal_states_the_vertex_count(capsys, tmp_path):
    code, _, err = run_cli(capsys, "lattice", "--mu", ",".join(["30"] * 10),
                           "--output", str(tmp_path))
    assert code == 2 and "847660528 vertices" in err
    code, _, err = run_cli(capsys, "lattice", "--mu", "0,5000000",
                           "--output", str(tmp_path))
    assert code == 2 and "more than 1000000 vertices" in err
    assert list(tmp_path.iterdir()) == []


def test_lattice_refuses_oversized(capsys, tmp_path):
    code, _, err = run_cli(capsys, "lattice", "--mu",
                           ",".join(["30"] * 10), "--output", str(tmp_path))
    assert code == 2 and "refusing" in err


def test_lattice_rejects_order_below_one_before_writing(capsys, tmp_path):
    code, out, err = run_cli(capsys, "lattice", "--mu", "1,2,3",
                             "--count-bk", "2", "0", "--output", str(tmp_path))
    assert code == 2 and "Boolean order must be >= 1" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("suite", [
    "dyck-counts", "multiplicities", "parity-surjectivity", "gradients"])
def test_verify_suites_pass(tmp_path, capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite,
                           "--output", str(tmp_path))
    assert code == 0
    doc = json.loads((tmp_path / f"verify_{suite}.json").read_text())
    assert doc["all_passed"] is True
    assert "[PASS]" in out and "[FAIL]" not in out
    # the report holds exactly the checks the acceptance criterion asserts
    assert doc["checks"] == json.loads(json.dumps(verify.SUITES[suite]()))
    assert out.count("[PASS]") == len(doc["checks"])


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


def test_solve_qubo_exact_depth1_beyond_sector_enumeration(tmp_path, capsys):
    # sectors (16, 16) and (16, 15) are past the Fock enumeration cap; the
    # exact depth-1 objective never enumerates them
    rng = np.random.default_rng(16)
    q = rng.normal(size=(16, 16))
    path = tmp_path / "q16.csv"
    np.savetxt(path, (q + q.T) / 2, delimiter=",")
    code, out, err = run_cli(capsys, "solve-qubo", "--matrix", str(path),
                             "--exact", "--depth", "1", "--iterations", "1",
                             "--output", str(tmp_path))
    assert code == 0, err
    doc = json.loads((tmp_path / "qubo_result.json").read_text())
    assert len(doc["b_min"]) == 16
    assert doc["e_min"] >= doc["brute_force"]["e_min"] - 1e-9
