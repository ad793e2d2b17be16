"""Record the replay digest of every solver workload for the given seeds.

    python3 perfbench/record_references.py [--workload NAME] SEED [SEED ...]

The digest is the SHA-256 of the unit's `SolverResult.to_json()` texts (one
per solve, newline-joined).  Run it at the commit whose results are the
replay reference; digests of other seeds already in references.json stay.
The traced run reports `solver.result_digest_changed` against this table.
"""

from __future__ import annotations

import json
import sys

import run


def main(argv: list[str]) -> int:
    only = None
    if argv[:1] == ["--workload"] and len(argv) > 1:
        only, argv = argv[1], argv[2:]
    seeds = [int(s) for s in argv]
    if not seeds:
        print(__doc__, file=sys.stderr)
        return 2
    run.import_package()
    import workloads

    refs = workloads.load_references()
    names = [only] if only else list(workloads.SOLVER_SPECS)
    if not set(names) <= set(workloads.SOLVER_SPECS):
        print(f"no solver workload {only!r}", file=sys.stderr)
        return 2
    for name in names:
        for seed in seeds:
            outcome = workloads.build(name, seed, smoke=False).unit()
            if outcome.failed:
                print("\n".join(outcome.errors), file=sys.stderr)
                return 1
            refs["digests"].setdefault(name, {})[str(seed)] = outcome.digest
            print(f"{name} seed {seed}: {outcome.digest}", flush=True)
    with workloads.REFERENCES.open("w") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
