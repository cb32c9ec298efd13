"""Compare benchmark records of two commits.

    python3 perfbench/compare.py BASE_DIR CANDIDATE_DIR

Each directory holds the JSON records ``run.py`` writes (a checkout's
``.perfbench-out``, or a copy).  Records pair by (workload, seed,
holdout, trace).  The comparison refuses, exit code 2 and no numbers,
when a pair's workload configs differ (config digest) or when the two
sides ran different benchmark code (bench digest): their numbers do not
measure the same thing.  Otherwise it prints, per workload and metric,
both medians over the paired seeds, the relative change and the verdict
against the metric's bound in ``BENCHMARK.json``; exit code 1 when an
end-to-end metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    records = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if "provenance" not in record:
            continue
        key = (record["workload"], record["seed"], record["holdout"], record["trace"])
        records[key] = record
    return records


def pair(base: dict, candidate: dict) -> tuple[list, list[str]]:
    """Matched keys, plus the reasons (if any) to refuse the comparison."""
    keys = sorted(set(base) & set(candidate))
    refusals = []
    for key in keys:
        old, new = base[key]["provenance"], candidate[key]["provenance"]
        if old["config_digest"] != new["config_digest"]:
            refusals.append(f"{key}: workload configs differ")
        if old["bench_digest"] != new["bench_digest"]:
            refusals.append(f"{key}: benchmark code differs")
    return keys, refusals


def compare(base: dict, candidate: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines and whether an end-to-end metric regressed."""
    keys, refusals = pair(base, candidate)
    if refusals:
        raise ValueError("; ".join(refusals))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines, regressed = [], False
    for workload, trace in sorted({(k[0], k[3]) for k in keys}):
        group = [k for k in keys if k[0] == workload and k[3] == trace]
        old_codes = {base[k]["provenance"]["code_digest"] for k in group}
        new_codes = {candidate[k]["provenance"]["code_digest"] for k in group}
        lines.append(f"{workload} trace {trace}: {len(group)} paired seeds"
                     + ("  (same code on both sides)" if old_codes == new_codes else ""))
        names = base[group[0]]["result"]["metrics"]
        for name in names:
            old = statistics.median(base[k]["result"]["metrics"][name]["value"] for k in group)
            new = statistics.median(candidate[k]["result"]["metrics"][name]["value"] for k in group)
            change = (new - old) / old if old else 0.0
            verdict = ""
            if name in bounds:
                worse = -change if metrics[name]["better"] == "higher" else change
                verdict = "WORSE" if worse > bounds[name] else "ok"
                regressed = regressed or verdict == "WORSE"
            lines.append(f"  {name:28s} {old:>14.6g} -> {new:>14.6g}  {change:+8.2%}  {verdict}")
    return lines, regressed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        lines, regressed = compare(load(Path(argv[0])), load(Path(argv[1])), spec)
    except ValueError as refusal:
        print(f"refusing to compare: {refusal}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
