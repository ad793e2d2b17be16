"""The benchmark's calls into the package must resolve and succeed.

`perfbench/spans.py` wraps package functions by module and attribute name,
and `perfbench/workloads.py` calls the package's public API, so renaming a
traced function or changing a signature would otherwise only show up as a
failing benchmark run.  Both modules are loaded from their files and never
installed here.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def _load_spans():
    return _load(SPANS, "_perfbench_spans")


def test_every_traced_boundary_resolves():
    targets = _load_spans().targets()
    assert targets
    for name, module_name, attr, _ in targets:
        module = importlib.import_module(module_name)
        owner_name, _, method = attr.partition(".")
        owner = getattr(module, owner_name, None)
        assert owner is not None, f"{name}: {module_name}.{owner_name}"
        if method:
            # the tracer swaps the method in the class's own namespace
            assert callable(vars(owner).get(method)), f"{name}: {attr}"
        else:
            assert callable(owner), f"{name}: {module_name}.{attr}"


def test_every_workload_runs_a_smoke_unit():
    workloads = _load(WORKLOADS, "_perfbench_workloads")
    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert len(names) == 4
    for name in names:
        outcome = workloads.build(name, 0, True).unit()
        assert outcome.attempted > 0 and outcome.failed == 0, (
            name, outcome.errors)


def test_census_unit_passes_in_full():
    # the full-size census also checks the recorded Boolean counts of
    # catalan_lattice(6, 6, 1) and (6, 6, 2) in perfbench/references.json
    workloads = _load(WORKLOADS, "_perfbench_workloads")
    census = workloads.build("census-lattice", 0, False)
    labels = [label for label, _ in census.checks()]
    for label in ("B3 in catalan_lattice(6, 6, 1)",
                  "B2 in catalan_lattice(6, 6, 2)"):
        assert f"{label} (regression reference)" in labels
    outcome = census.unit()
    assert outcome.attempted == len(labels)
    assert outcome.failed == 0, outcome.errors
