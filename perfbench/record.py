"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME ...]

Run from the repository root at the reference commit only: it runs each
workload once per simulator seed of the pool and of the held-out set and
rewrites ``perfbench/reference.json``.  A later change must not re-record
to make its own outputs pass; ``sim_error`` is measured against these.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import workloads
from run import ROOT, code_digest

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def record(name: str) -> dict:
    config = workloads.workload_config(name, 0)
    seeds = {}
    for sim_seed in workloads.reference_seeds():
        _timing, scenario = workloads.run_iteration(config, sim_seed, probe=False)
        seeds[str(sim_seed)] = workloads.outputs(scenario)
        print(f"{name} sim seed {sim_seed}: {seeds[str(sim_seed)]}", file=sys.stderr)
    return {"definition_digest": workloads.definition_digest(name), "seeds": seeds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    recorded = {name: record(name) for name in args.workload or sorted(workloads.WORKLOADS)}
    # Read-modify-write at the end, so runs recording different
    # workloads side by side keep each other's entries.
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    reference["code_digest"] = code_digest()
    reference["pool"] = {"base": workloads.POOL_BASE, "size": workloads.POOL_SIZE,
                         "holdout": list(workloads.HOLDOUT_SEEDS)}
    reference["workloads"].update(recorded)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
