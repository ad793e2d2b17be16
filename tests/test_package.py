import importlib
import pkgutil
import re
import types
from pathlib import Path

import shallowboson as sb


def test_all_names_the_public_imports_once():
    assert len(sb.__all__) == len(set(sb.__all__))
    for name in sb.__all__:
        assert getattr(sb, name) is not None
    imported = {name for name, value in vars(sb).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert set(sb.__all__) == imported


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
