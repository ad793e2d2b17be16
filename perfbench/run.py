"""Benchmark entry point: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones of
BENCHMARK.json, with --trace 1 the per-layer ones.  Lines before it start
with "#" and record the environment, the raw samples and failed_frac.

Phases of a run:
  set-up   build the workload (problem, sector bases, objectives, reference
           optimum, one warm-up evaluation per sector and parity).  The
           set-up is timed in this process and repeated in fresh child
           processes; setup_s is the median.
  measure  run fixed-work units back to back until --seconds would be
           exceeded (at least one); run_s is the median unit time.
  traced   (--trace 1 only) one more unit with the span tracer installed,
           after a traced set-up; the wrappers are removed afterwards.
Every timed set-up and unit sits between two runs of the host-speed probe
(calibration.py; long units are probed between their parts as well), and
setup_s and run_s are scaled to the probe's reference speed.  The raw wall
times are printed as "#" lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
MIN_SETUP_REPS = 2
MAX_SETUP_REPS = 3
CHEAP_SETUP_S = 1.0  # keep repeating set-ups while their sum is below this
CHILD_TIMEOUT_S = 170
DEFAULT_SEED = 0  # the held-out seed is in README.md


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to a failed check)."""


def import_package():
    """Steady numpy's environment, then import shallowboson from SRC.

    BLAS gets one thread.  numpy's huge-page advice is off: whether the
    kernel finds a free huge page at fault time depends on the host's
    memory state, and with the advice on, the same exact-qubo11 unit
    varied twice as much between processes.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    if not (SRC / "shallowboson" / "__init__.py").is_file():
        raise BenchmarkError(f"no shallowboson sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shallowboson

    if not Path(shallowboson.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(
            f"imported shallowboson from {shallowboson.__file__}, not {SRC}")


def _benchmark_spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as fh:
        return json.load(fh)


def environment(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")[
            "Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_head(),
        "source_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy_madvise_hugepage": os.environ["NUMPY_MADVISE_HUGEPAGE"],
    }


def _git_head() -> str | None:
    """Commit of the checkout when it is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _child_setup_s(args) -> tuple[float, float]:
    """Scaled and raw set-up time of the workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--size", args.size,
           "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up child failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return doc["setup_s"], doc["wall_s"]


def timed_setup(args):
    """Build the workload; return it, its scaled and its raw set-up time."""
    import calibration
    import workloads

    calibration.probe()  # first use warms the probe's own code paths
    before = calibration.probe()
    t0 = time.perf_counter()
    bench = workloads.build(args.workload, args.seed, args.size == "smoke")
    wall = time.perf_counter() - t0
    return bench, calibration.scale(wall, before, calibration.probe()), wall


def measure(bench, seconds: float):
    """Fixed-work units back to back; stop before exceeding `seconds`.

    Returns the scaled and the raw unit times and the outcomes.
    """
    import calibration

    scaled, times, outcomes = [], [], []
    start = time.perf_counter()
    watch = calibration.Stopwatch()
    while True:
        outcomes.append(bench.unit(watch.lap))
        unit_scaled, unit_wall = watch.stop()
        scaled.append(unit_scaled)
        times.append(unit_wall)
        elapsed = time.perf_counter() - start  # probes included
        if elapsed + elapsed / len(times) > seconds:
            return scaled, times, outcomes


def _report_errors(outcomes) -> None:
    for outcome in outcomes:
        for error in outcome.errors:
            print(error, file=sys.stderr)


def _leftovers_failed(tag: str) -> int:
    import spans

    left = spans.leftover_wrappers()
    if left:
        print(f"tracing wrappers left installed {tag}: {left}",
              file=sys.stderr)
    return int(bool(left))


def run_untraced(args, spec: dict) -> dict:
    bench, setup_main, wall_main = timed_setup(args)
    setup_times, setup_walls = [setup_main], [wall_main]
    while len(setup_times) < MIN_SETUP_REPS or (
            len(setup_times) < MAX_SETUP_REPS
            and sum(setup_walls) < CHEAP_SETUP_S):
        scaled, wall = _child_setup_s(args)
        setup_times.append(scaled)
        setup_walls.append(wall)
    failed = _leftovers_failed("before the untraced run")
    scaled_times, times, outcomes = measure(bench, args.seconds)
    _report_errors(outcomes)
    run_s = statistics.median(scaled_times)
    attempted = sum(o.attempted for o in outcomes)
    failed += sum(o.failed for o in outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        "run_s": run_s,
        "evals_per_s": outcomes[0].evaluations / run_s,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print("# setup_s samples: " + json.dumps(setup_times))
    print("# set-up wall samples: " + json.dumps(setup_walls))
    print("# run_s samples: " + json.dumps(scaled_times))
    print("# unit wall samples: " + json.dumps(times))
    print(f"# wall medians: set-up {statistics.median(setup_walls)!r} s, "
          f"unit {statistics.median(times)!r} s")
    kind = ("census checks" if args.workload == "census-lattice"
            else "angle vectors")
    print(f"# evaluations per unit: {outcomes[0].evaluations} ({kind})")
    print(f"# result digest: {outcomes[0].digest}")
    return _result(attempted, failed, values, spec["end_to_end"])


def run_traced(args, spec: dict) -> dict:
    import spans
    import workloads

    tracer = spans.Tracer(uuid.uuid4().hex)
    tracer.install()
    try:
        with tracer.phase("setup"):
            bench = workloads.build(args.workload, args.seed,
                                    args.size == "smoke")
    finally:
        tracer.uninstall()
    failed = _leftovers_failed("after the traced set-up")
    before = tracer.span_count()
    _, times, outcomes = measure(bench, args.seconds)
    if tracer.span_count() != before:
        print("the untraced run reached a tracing wrapper", file=sys.stderr)
        failed += 1
    tracer.install()
    try:
        with tracer.phase("run"):
            traced = bench.unit()
    finally:
        tracer.uninstall()
    failed += _leftovers_failed("after the traced run")
    _report_errors(outcomes + [traced])
    attempted = sum(o.attempted for o in outcomes) + traced.attempted
    failed += sum(o.failed for o in outcomes) + traced.failed

    summary = tracer.summary()
    values = layer_values(args, summary, tracer.counts, traced,
                          statistics.median(times))
    values["trace.spans"] = tracer.span_count()
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / (f"{args.workload}-seed{args.seed}-"
                        f"{tracer.run_id}.json.gz")
    tracer.write(path, {"env": environment(args.workload, args.seed),
                        "values": values})
    print(f"# spans written to {path.relative_to(ROOT)}")
    return _result(attempted, failed, values, spec["per_layer"])


def layer_values(args, summary, counts, traced, untraced_run_s) -> dict:
    """Per-layer figures of one traced set-up plus one traced unit."""
    import spans

    values = dict(counts)
    for name in {t[0] for t in spans.targets()}:
        values[f"{name}.calls"] = summary["calls"].get(name, 0)
        values[f"{name}.s"] = summary["s"].get(name, 0.0)
        values[f"{name}.self_s"] = summary["self_s"].get(name, 0.0)
    values["solver.self_s"] = (values["solver.value.self_s"]
                               + values["solver.value_batch.self_s"])
    values["problems.reference_s"] = values["problems.reference.s"]
    solver = args.workload != "census-lattice"
    values["solver.evaluations"] = traced.evaluations if solver else 0
    values["solver.steps"] = traced.steps
    values["solver.gap_to_opt"] = traced.gap_to_opt
    reference = None
    if solver and args.size == "full":
        import workloads

        reference = workloads.load_references()["digests"].get(
            args.workload, {}).get(str(args.seed))
    values["solver.result_digest_known"] = int(reference is not None)
    values["solver.result_digest_changed"] = int(
        reference is not None and reference != traced.digest)
    values["census.checks"] = 0 if solver else traced.attempted
    setup, run = summary["phases"]["setup"], summary["phases"]["run"]
    values["traced_setup_s"] = setup["s"]
    values["setup_other_s"] = setup["s"] - setup["top_level_s"]
    values["traced_run_s"] = run["s"]
    values["other_s"] = run["s"] - run["top_level_s"]
    values["trace_overhead_frac"] = (run["s"] - untraced_run_s
                                     ) / untraced_run_s
    return values


def _result(attempted, failed, values, metric_specs) -> dict:
    print(f"# failed_frac: {failed}/{attempted} = {failed / attempted!r}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metric_specs},
    }


def smoke(spec: dict) -> int:
    """Run every workload at minimal size in both modes; check the keys."""
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(DEFAULT_SEED),
                   "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S,
                                  check=False)
            problem = None
            if proc.returncode != 0:
                problem = f"exit {proc.returncode}: {proc.stderr[-2000:]}"
            else:
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                want = {m["name"] for m in spec[kind]}
                if set(doc["metrics"]) != want:
                    problem = f"metrics differ: {set(doc['metrics']) ^ want}"
                elif not doc["correct"] or doc["failed"]:
                    problem = f"failed {doc['failed']}/{doc['attempted']}"
            status = "ok" if problem is None else f"FAIL {problem}"
            print(f"smoke {workload} trace={trace}: {status}")
            bad += problem is not None
    return int(bad > 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: minimal problem sizes, for --smoke")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and exit")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal size and check "
                             "that every metric is emitted")
    args = parser.parse_args(argv)
    try:
        import_package()
        spec = _benchmark_spec()
        if args.smoke:
            return smoke(spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        if args.setup_only:
            _, setup_s, wall_s = timed_setup(args)
            print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
            return 0
        print("# env " + json.dumps(environment(args.workload, args.seed)))
        result = (run_traced if args.trace else run_untraced)(args, spec)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
