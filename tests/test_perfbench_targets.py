"""The benchmark tracer's boundaries must name functions of the package.

`perfbench/spans.py` wraps package functions by module and attribute name,
so renaming a traced function would otherwise only show up as a failing
traced benchmark run.  The tracer module is loaded from its file and never
installed here.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
