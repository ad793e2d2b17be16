import ast
import importlib
import pkgutil
import re
import sys
import types
from pathlib import Path

import numpy as np

import shallowboson as sb


def test_all_names_the_public_imports_once():
    assert len(sb.__all__) == len(set(sb.__all__))
    for name in sb.__all__:
        assert getattr(sb, name) is not None
    imported = {name for name, value in vars(sb).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert set(sb.__all__) == imported


def test_package_imports_only_the_standard_library_and_numpy():
    # the test extras (scipy, hypothesis) are installed where the tests
    # run, so a stray import of one would pass every other test
    root = Path(__file__).parents[1]
    declared = re.search(r"^dependencies = \[(.*)\]$",
                         (root / "pyproject.toml").read_text(), re.M)
    assert re.findall(r'"(\w+)', declared.group(1)) == ["numpy"]
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted((root / "src" / "shallowboson").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name}: {name}"


def readme_removed_names():
    """Names before the arrow of each bullet under README's Removed names."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Removed names", 1)[1].split("\n#", 1)[0]
    names = []
    for line in section.splitlines():
        if line.startswith("- "):
            head = line.split(" -> ", 1)[0]
            names += [token.split("(", 1)[0]
                      for token in re.findall(r"`([^`]+)`", head)]
    return names


def resolves(owner, dotted):
    for part in dotted.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_removed_names_stay_removed():
    names = readme_removed_names()
    assert len(names) == len(set(names)) >= 20
    for name in ("qubo_energy", "IsingProblem.spin_energy",
                 "MobiusProblem.spin_energy", "parity_map", "bits_to_codes",
                 "CircuitSpec.bound"):
        assert name in names
    modules = [sb] + [importlib.import_module(f"shallowboson.{info.name}")
                      for info in pkgutil.iter_modules(sb.__path__)]
    for name in names:
        for module in modules:
            assert not resolves(module, name), f"{module.__name__}.{name}"


# every functools.lru_cache of the package, with sample arguments
DECLARED_CACHES = {
    "shallowboson.fock.enumerate_basis": (3, 3),
    "shallowboson.interferometer._spin_table": (7,),
    "shallowboson.interferometer._block_stack": (7, 0.3, 0.2),
    "shallowboson.interferometer._gate_orbits": (4, 3, 0, 1),
    "shallowboson.young._reach_depth": (4, 4),
    "shallowboson.solver._sector_codes": (4, 4, 0),
    "shallowboson.solver._code_energies": (sb.QuboProblem(np.eye(3)),),
}


def returned_arrays(value):
    if isinstance(value, sb.SectorBasis):
        return [value.patterns]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in returned_arrays(item)]
    return [value] if isinstance(value, np.ndarray) else []


def test_declared_caches_hand_out_read_only_arrays():
    # a cache hands the same result to every caller: none may write into it
    caches = {}
    for info in pkgutil.iter_modules(sb.__path__):
        module = importlib.import_module(f"shallowboson.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_info", None)):
                caches[f"{value.__module__}.{value.__qualname__}"] = value
    assert set(caches) == set(DECLARED_CACHES)
    for name, args in DECLARED_CACHES.items():
        arrays = returned_arrays(caches[name](*args))
        assert arrays, name
        for array in arrays:
            assert not array.flags.writeable, name


def test_solver_imports_only_public_sampling_names():
    # the exact depth-1 stencil has one entry point, the public
    # `depth1_shift_masses`; the solver reaches no private sampling name
    path = Path(__file__).parents[1] / "src" / "shallowboson" / "solver.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "sampling":
                imported += [alias.name for alias in node.names]
            elif node.module is None:  # `from . import sampling`
                assert "sampling" not in [a.name for a in node.names]
    assert "depth1_shift_masses" in imported
    assert [name for name in imported if name.startswith("_")] == []
    # sampled depth >= 2 draws codes, not bit rows
    assert "sample_indices" in imported and "sample_patterns" not in imported


def test_objective_keeps_no_state_between_calls():
    # a descent step's state lives in its `Evaluation`; an objective
    # attribute written after `__init__` once carried a stencil from
    # `value` to `shift_gradient`
    path = Path(__file__).parents[1] / "src" / "shallowboson" / "solver.py"
    tree = ast.parse(path.read_text())
    [objective] = [node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "ParityObjective"]
    writers = {method.name for method in objective.body
               if isinstance(method, ast.FunctionDef)
               for node in ast.walk(method)
               if isinstance(node, ast.Attribute)
               and isinstance(node.ctx, ast.Store)
               and isinstance(node.value, ast.Name)
               and node.value.id == "self"}
    assert writers == {"__init__"}
    assert "tobytes" not in path.read_text()


def test_solver_scores_bit_strings_through_the_table_and_chain_only():
    # every 2^M mass row reads `_code_energies`; chain shots (sampled
    # depth 1, in `value_batch`) are the only rows scored outside it
    path = Path(__file__).parents[1] / "src" / "shallowboson" / "solver.py"
    tree = ast.parse(path.read_text())

    def energies_calls(root):
        return [node for node in ast.walk(root)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "energies"]

    callers = {func.name: len(energies_calls(func))
               for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and energies_calls(func)}
    assert callers == {"_code_energies": 1, "value_batch": 1}
    assert len(energies_calls(tree)) == 2
