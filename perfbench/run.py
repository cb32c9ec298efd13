"""Run one benchmark workload against the ``repro`` simulator.

    python3 perfbench/run.py --workload fig4-packet --seed 1 --seconds 20 --trace 0

Run from the repository root; the simulator is imported from ``src/``.
``--trace 0`` times whole iterations (build, traffic, drain) in this
single-threaded process with tracing off, for ``--seconds`` host
seconds, and reports the end-to-end metrics as medians over iterations.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics (see ``layertrace.py``).  Every iteration's simulated
outputs are checked against ``reference.json``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record,
with provenance digests, goes to ``.perfbench-out/``; traced runs also
dump their spans there.  The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

#: Iterations a timed run makes even when ``--seconds`` is already up.
MIN_ITERATIONS = 3
#: Extra build-only samples per iteration for the ``setup_s`` median.
SETUP_REPEATS = 5
#: Per-layer raw self times must add up to the traced host time within
#: this share (they do exactly unless spans were lost or double-counted).
SELF_SUM_TOLERANCE = 0.01


def code_digest() -> str:
    """Digest of the ``repro`` package sources."""
    return _files_digest(ROOT / "src" / "repro", "*.py")


def bench_digest() -> str:
    """Digest of the benchmark's own files (code, reference, predictions)."""
    return _files_digest(HERE, "*.py", "*.json")


def _files_digest(base: Path, *patterns: str) -> str:
    sha = hashlib.sha256()
    paths = sorted({p for pattern in patterns for p in base.rglob(pattern)})
    for path in paths:
        if "__pycache__" in path.parts:
            continue
        sha.update(path.relative_to(base).as_posix().encode())
        sha.update(b"\0")
        sha.update(path.read_bytes())
        sha.update(b"\0")
    return sha.hexdigest()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Outcome:
    """Tallies of one run: requests attempted/failed and check problems."""

    def __init__(self, references: dict):
        #: simulator seed -> reference outputs
        self.references = references
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.sim_errors: list[float] = []
        self.ok = 0
        #: simulator seed -> (fingerprint, outputs) of its first iteration
        self.first: dict[int, tuple] = {}

    def add(self, scenario, label: str) -> dict:
        """Check one finished iteration; returns its outputs."""
        reference = self.references[scenario.sim_seed]
        observed = workloads.outputs(scenario)
        problems = workloads.check(observed, reference)
        fingerprint = workloads.fingerprint(scenario)
        first = self.first.setdefault(scenario.sim_seed, (fingerprint, observed))
        if (fingerprint, observed) != first:
            problems.append("simulated results differ between iterations of one seed")
        self.attempted += observed["issued"]
        self.ok += observed["ok"]
        self.sim_errors.append(workloads.sim_error(observed, reference))
        if problems:
            self.failed += observed["issued"]
            self.problems.extend(f"{label}: {problem}" for problem in problems)
        return observed

    def crashed(self, label: str, sim_seed: int) -> None:
        issued = self.references[sim_seed]["issued"]
        self.attempted += issued
        self.failed += issued
        self.problems.append(f"{label}: raised\n{traceback.format_exc()}")


def run_timed(config: dict, outcome: Outcome, seconds: float) -> tuple[dict, dict]:
    """Untraced iterations for ``seconds``; medians of the timings."""
    seeds = config["sim_seeds"]
    workloads.time_setup(config, seeds[0])  # lazy imports and first-use costs
    iterations, setups = [], []
    deadline = time.perf_counter() + seconds
    while len(iterations) < MIN_ITERATIONS or time.perf_counter() < deadline:
        gc.collect()
        sim_seed = seeds[len(iterations) % len(seeds)]
        label = f"iteration {len(iterations)} (simulator seed {sim_seed})"
        try:
            timing, scenario = workloads.run_iteration(config, sim_seed)
        except Exception:
            outcome.crashed(label, sim_seed)
            break
        outcome.add(scenario, label)
        del scenario
        iterations.append(dict(timing, sim_seed=sim_seed))
        setups.append(timing["setup_s"])
        for _ in range(SETUP_REPEATS):
            setups.append(workloads.time_setup(config, sim_seed))
    if not iterations:
        return {}, {}
    metrics = {
        "wall_s": statistics.median(t["wall_s"] for t in iterations),
        "setup_s": statistics.median(setups),
        "req_per_host_s": statistics.median(t["req_per_host_s"] for t in iterations),
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": outcome.ok / outcome.attempted,
        "sim_agreement": 1.0 - max(outcome.sim_errors),
    }
    return metrics, {"iterations": iterations, "setup_samples": setups}


def run_traced(config: dict, outcome: Outcome, seconds: float) -> tuple[dict, dict]:
    """(untraced, traced) iteration pairs for ``seconds``; per-layer
    metrics from the medians, plus the traced run's checks."""
    from layertrace import LAYERS, LayerTracer
    from repro.transport.connection import ConnectionEnd

    seeds = config["sim_seeds"]
    workloads.time_setup(config, seeds[0])
    pairs = []
    deadline = time.perf_counter() + seconds
    tracer = None
    while not pairs or time.perf_counter() < deadline:
        gc.collect()
        sim_seed = seeds[len(pairs) % len(seeds)]
        label = f"pair {len(pairs)} (simulator seed {sim_seed})"
        try:
            plain, scenario = workloads.run_iteration(config, sim_seed)
            observed = outcome.add(scenario, f"{label} untraced")
            del scenario
            gc.collect()
            tracer = LayerTracer(track=(ConnectionEnd,)).calibrate().install()
            try:
                traced, scenario = workloads.run_iteration(
                    config, sim_seed, wrap=tracer.root, probe=False
                )
            finally:
                tracer.uninstall()
        except Exception:
            outcome.crashed(label, sim_seed)
            break
        traced_outputs = outcome.add(scenario, f"{label} traced")
        if traced_outputs != observed:
            outcome.problems.append(f"{label}: traced outputs differ from untraced")
        totals = tracer.layer_totals(untraced_s=plain["wall_s"])
        raw_sum = sum(entry["raw_self_s"] for entry in totals.values())
        if abs(raw_sum - traced["host_s"]) > SELF_SUM_TOLERANCE * traced["host_s"]:
            outcome.problems.append(
                f"{label}: layer self times sum to {raw_sum:.4f}s, traced host "
                f"time is {traced['host_s']:.4f}s"
            )
        counters = workloads.layer_counters(scenario, tracer.instances[ConnectionEnd])
        counters["sim.events"] = scenario.sim.processed_events
        counters["sim.timers"] = sum(tracer.hooked)
        pairs.append({
            "sim_seed": sim_seed,
            "plain": plain,
            "traced": traced,
            "totals": totals,
            "counters": counters,
            "requests": traced_outputs["recorded"],
        })
        del scenario
    if not pairs:
        return {}, {}
    first_counters = {}
    for pair in pairs:
        counters = first_counters.setdefault(pair["sim_seed"], pair["counters"])
        if pair["counters"] != counters:
            outcome.problems.append("layer counters differ between traced iterations")
        if not config["obs_planes"] and pair["totals"]["obs"]["calls"] != 0:
            outcome.problems.append(
                f"obs.calls is {pair['totals']['obs']['calls']} with no plane attached"
            )

    def median(value):
        return statistics.median(value(pair) for pair in pairs)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = median(lambda pair: pair["totals"][layer]["calls"])
        metrics[f"{layer}.self_us_per_req"] = median(
            lambda pair: pair["totals"][layer]["self_s"] * 1e6 / pair["requests"]
        )
    for name in pairs[0]["counters"]:
        metrics[name] = median(lambda pair: pair["counters"][name])
    metrics["sim.events_per_s"] = median(
        lambda pair: pair["counters"]["sim.events"] / pair["plain"]["run_s"]
    )
    metrics["trace_overhead"] = median(
        lambda pair: pair["traced"]["raw_wall_s"] / pair["plain"]["raw_wall_s"]
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{config['name']}.spans.npz"
    stored = tracer.dump(spans_path)
    details = {
        "pairs": pairs,
        "spans": {"path": str(spans_path.relative_to(ROOT)), "stored": stored,
                  "total": tracer.spans_total},
        "calibration": tracer.weights,
        "shares": {
            layer: median(lambda pair: pair["totals"][layer]["self_s"] / pair["plain"]["wall_s"])
            for layer in pairs[0]["totals"]
        },
    }
    details["predictions"] = evaluate_predictions(config["name"], details["shares"], metrics)
    return metrics, details


def evaluate_predictions(workload: str, shares: dict, metrics: dict) -> list[dict]:
    """Check this workload's dominance predictions (held or failed)."""
    table = json.loads((HERE / "predictions.json").read_text())
    results = []
    for prediction in table["dominance"]:
        if prediction["workload"] != workload:
            continue
        if "counter" in prediction:
            value = metrics[prediction["counter"]]
        else:
            value = sum(shares[layer] for layer in prediction["group"])
        held = True
        detail = {"value": value}
        if "min_share" in prediction:
            held = value >= prediction["min_share"]
        if "max_share" in prediction:
            held = value <= prediction["max_share"]
        if "min_value" in prediction:
            held = value >= prediction["min_value"]
        if "over" in prediction:
            rival = sum(shares[layer] for layer in prediction["over"])
            detail["rival"] = rival
            held = value > rival
        results.append({"id": prediction["id"], "held": held, **detail})
    return results


def load_references(name: str, sim_seeds: list[int]) -> dict:
    """Reference outputs of ``name`` per simulator seed."""
    reference = json.loads((HERE / "reference.json").read_text())
    entry = reference["workloads"].get(name)
    if entry is None or entry["definition_digest"] != workloads.definition_digest(name):
        raise SystemExit(
            f"reference.json has no outputs for the current {name!r} definition; "
            "re-record it at the reference commit with perfbench/record.py"
        )
    missing = [seed for seed in sim_seeds if str(seed) not in entry["seeds"]]
    if missing:
        raise SystemExit(f"reference.json has no outputs for simulator seeds {missing}")
    return {seed: entry["seeds"][str(seed)] for seed in sim_seeds}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="run the held-out simulator seeds instead of the pool's")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import repro.experiments.scenario  # noqa: F401  (imported before timing)
    import repro.obs  # noqa: F401

    config = workloads.workload_config(args.workload, args.seed, args.holdout)
    outcome = Outcome(load_references(args.workload, config["sim_seeds"]))
    runner = run_traced if args.trace else run_timed
    metrics, details = runner(config, outcome, args.seconds)
    units = {entry["name"]: entry["unit"] for entry in _benchmark_metrics(args.trace)}
    missing = [name for name in units if name not in metrics]
    if metrics and missing:
        outcome.problems.append(f"metrics not measured: {missing}")
    correct = not outcome.problems and bool(metrics)
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "holdout": args.holdout,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": {
            "code_digest": code_digest(),
            "bench_digest": bench_digest(),
            "config_digest": workloads.digest(config),
            "config": config,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "problems": outcome.problems,
        "outputs": {seed: observed for seed, (_fp, observed) in outcome.first.items()},
        "sim_error": max(outcome.sim_errors) if outcome.sim_errors else None,
        "failed_share": 1.0 - outcome.ok / outcome.attempted if outcome.attempted else None,
        "details": details,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / (
        f"{args.workload}-seed{args.seed}{'-holdout' if args.holdout else ''}"
        f"-trace{args.trace}.json"
    )
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print_summary(record, record_path)
    print(json.dumps(result))
    return 0 if correct else 1


def _benchmark_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def print_summary(record: dict, path: Path) -> None:
    result = record["result"]
    print(f"{record['workload']}  seed {record['seed']} "
          f"(simulator seeds {record['provenance']['config']['sim_seeds']})  "
          f"trace {record['trace']}  code {record['provenance']['code_digest'][:12]}")
    for name, entry in result["metrics"].items():
        print(f"  {name:28s} {entry['value']:>16.6g} {entry['unit']}")
    if record["sim_error"] is not None:
        print(f"  sim_error {record['sim_error']:.6g} (gate {workloads.SIM_ERROR_GATE}), "
              f"failed_share {record['failed_share']:.6g}")
    for prediction in record["details"].get("predictions", []):
        print(f"  prediction {prediction['id']}: {'held' if prediction['held'] else 'FAILED'} "
              f"({prediction['value']:.4g})")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(f"  record: {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
