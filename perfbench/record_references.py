"""Record the simulated outcomes the benchmark checks every run against.

Usage: ``python3 perfbench/record_references.py [SEED ...]`` (default: seeds
0 to 10, which include the default seed 7, and the seeds the first
``DEFAULT_RUN_WORKERS`` workers of a run at the default seed simulate).  Each (workload, seed) is run
once in a fresh worker process; its outcome digest and headline totals are
written to ``perfbench/references.json``.  Re-record only when a change is
meant to alter simulated results, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import checkout
from run import run_worker

# Workers of a default-seed run whose seeds get a reference.
DEFAULT_RUN_WORKERS = 8


def main() -> int:
    checkout.import_repro()
    import workloads

    seeds = [int(arg) for arg in sys.argv[1:]] or sorted(
        set(range(11))
        | {workloads.run_seed(workloads.DEFAULT_SEED, i) for i in range(DEFAULT_RUN_WORKERS)}
    )
    outcomes = {}
    for workload in workloads.SPECS:
        outcomes[workload] = {}
        for seed in seeds:
            result = run_worker(workload, seed, traced=False)
            if result["errors"]:
                print(f"{workload} seed {seed}: {result['errors'][:3]}", file=sys.stderr)
                return 1
            outcomes[workload][str(seed)] = result["outcome"]
            print(f"{workload} seed {seed}: {result['outcome']['digest'][:16]}")
    document = {
        "about": "Simulated outcomes per workload and seed; see workloads.outcome.",
        "provenance": checkout.provenance(),
        "outcomes": outcomes,
    }
    workloads.REFERENCES.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
