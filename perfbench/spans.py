"""Span tracer for the benchmark: wraps layer boundaries from outside src/.

`Tracer.install()` swaps a timing wrapper in for each traced function or
method.  A function is replaced under every name that holds it in a loaded
`shallowboson` module, because the package modules import each other's
functions by name (`solver.evolve` is `interferometer.evolve`).
`Tracer.uninstall()` puts the original objects back, and `leftover_wrappers()`
scans the package for any wrapper still reachable.

Spans stay in memory as flat arrays (name, parent, start, end) and are
written once, by `Tracer.write`.  Every span belongs to one phase root
("setup" or "run"); a span whose parent is the root is top-level.  No traced
function calls itself through its own wrapper, so per-name sums of span
durations count no time twice.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

_MARK = "__perfbench_span__"
_BYTES_PER_AMPLITUDE = 32  # complex128 read once and written once


class Tracer:
    """Records spans and counts at the boundaries listed in `targets`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, float] = dict.fromkeys(COUNT_KEYS, 0)
        self._stack = [-1]
        self._swapped: list[tuple[object, str, object]] = []
        self._bases: dict[tuple[int, int], object] = {}

    # -- recording -----------------------------------------------------
    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, nid: int) -> int:
        sid = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Root span of one benchmark phase ("setup" or "run")."""
        sid = self._open(self._name_id("phase." + name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, name: str, fn, on_result):
        nid = self._name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if on_result is not None:
                on_result(tracer, result, args)
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    # -- installing ----------------------------------------------------
    def install(self) -> None:
        import shallowboson  # noqa: F401  (loads every package module)

        if self._swapped:
            raise RuntimeError("tracer is already installed")
        for name, module_name, attr, on_result in targets():
            module = sys.modules[module_name]
            owner_name, _, method = attr.partition(".")
            if method:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._swap(owner, method, original,
                           self._wrap(name, original, on_result))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, on_result)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._swap(mod, key, original, wrapper)

    def _swap(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._swapped.append((owner, key, original))

    def uninstall(self) -> None:
        while self._swapped:
            owner, key, original = self._swapped.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------
    def span_count(self) -> int:
        return len(self.starts)

    def summary(self) -> dict:
        """Per-name calls, inclusive and self seconds; per-phase roots."""
        names = np.asarray(self.name_ids, dtype=np.int64)
        parents = np.asarray(self.parents, dtype=np.int64)
        dur = np.asarray(self.ends) - np.asarray(self.starts)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent],
                                 weights=dur[has_parent],
                                 minlength=len(dur))
        self_time = dur - child_time
        out = {"calls": {}, "s": {}, "self_s": {}, "phases": {}}
        for nid, name in enumerate(self.names):
            sel = names == nid
            if name.startswith("phase."):
                for sid in np.nonzero(sel)[0]:
                    top = parents == sid
                    out["phases"][name[6:]] = {
                        "s": float(dur[sid]),
                        "top_level_s": float(dur[top].sum()),
                    }
                continue
            out["calls"][name] = int(sel.sum())
            out["s"][name] = float(dur[sel].sum())
            out["self_s"][name] = float(self_time[sel].sum())
        return out

    def write(self, path, meta: dict) -> None:
        """Write every span once, as gzip-compressed JSON columns."""
        origin = self.starts[0] if len(self.starts) else 0.0
        doc = {
            "run_id": self.run_id,
            "meta": meta,
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "name": list(self.name_ids),
            "parent": list(self.parents),
            "start_s": [round(t - origin, 9) for t in self.starts],
            "end_s": [round(t - origin, 9) for t in self.ends],
            "counts": self.counts,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def _package_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "shallowboson"
                                    or key.startswith("shallowboson."))]


def leftover_wrappers() -> list[str]:
    """Names under which a tracing wrapper is still reachable."""
    found = []
    for mod in _package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, _MARK):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                for attr, member in vars(value).items():
                    if hasattr(member, _MARK):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


# -- what is traced ----------------------------------------------------
COUNT_KEYS = (
    "fock.sector_dim",
    "interferometer.apply_gate.bytes_computed",
    "sampling.chain_sample_depth1_batch.rows",
    "sampling.chain_sample_depth1_batch.shots",
    "problems.energies.rows",
    "dyck.enumerate_dyck_paths.paths",
    "young.catalan_basis.patterns",
    "young.catalan_lattice.vertices",
    "young.count_boolean_sublattices.found",
)


def _count_basis(tracer, basis, args):
    key = (basis.num_modes, basis.num_photons)
    if tracer._bases.get(key) is not basis:
        tracer._bases[key] = basis
        tracer.add("fock.sector_dim", basis.size)


def _count_gate(tracer, result, args):
    tracer.add("interferometer.apply_gate.bytes_computed",
               _BYTES_PER_AMPLITUDE * args[0].basis.size)


def _count_chain(tracer, pats, args):
    tracer.add("sampling.chain_sample_depth1_batch.rows", pats.shape[0])
    tracer.add("sampling.chain_sample_depth1_batch.shots",
               pats.shape[0] * pats.shape[1])


def _counter(key, measure):
    def count(tracer, result, args):
        tracer.add(key, measure(result))
    return count


_ENERGY_CLASSES = ("QuboProblem", "IsingProblem", "MobiusProblem",
                   "PortfolioProblem")


def targets():
    """(span name, module, attribute, result counter) per traced boundary."""
    pkg = "shallowboson."
    out = [
        ("fock.enumerate_basis", pkg + "fock", "enumerate_basis",
         _count_basis),
        ("fock.rank", pkg + "fock", "SectorBasis.rank", None),
        ("interferometer.evolve", pkg + "interferometer", "evolve", None),
        ("interferometer.apply_gate", pkg + "interferometer", "apply_gate",
         _count_gate),
        ("interferometer.two_mode_block", pkg + "interferometer",
         "two_mode_block", None),
        ("interferometer.two_mode_block_column", pkg + "interferometer",
         "two_mode_block_column", None),
        ("sampling.chain_sample_depth1_batch", pkg + "sampling",
         "chain_sample_depth1_batch", _count_chain),
        ("sampling.sample_patterns", pkg + "sampling", "sample_patterns",
         None),
        ("solver.value", pkg + "solver", "ParityObjective.value", None),
        ("solver.value_batch", pkg + "solver", "ParityObjective.value_batch",
         None),
        ("problems.reference", pkg + "problems", "brute_force_min", None),
        ("problems.reference", pkg + "problems", "mobius_min", None),
        ("parity.verify_surjectivity", pkg + "parity", "verify_surjectivity",
         None),
        ("dyck.enumerate_dyck_paths", pkg + "dyck", "enumerate_dyck_paths",
         _counter("dyck.enumerate_dyck_paths.paths", len)),
        ("young.catalan_basis", pkg + "young", "catalan_basis",
         _counter("young.catalan_basis.patterns", len)),
        ("young.catalan_lattice", pkg + "young", "catalan_lattice",
         _counter("young.catalan_lattice.vertices", len)),
        ("young.count_boolean_sublattices", pkg + "young",
         "count_boolean_sublattices",
         _counter("young.count_boolean_sublattices.found", int)),
    ]
    out += [("problems.energies", pkg + "problems", cls + ".energies",
             _counter("problems.energies.rows", len))
            for cls in _ENERGY_CLASSES]
    return out
