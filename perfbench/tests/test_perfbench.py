"""The benchmark's own tests.

    python3 -m pytest perfbench/tests

The smoke test runs every workload once untraced and once traced (about
a minute on a 2-CPU host).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_metric_and_workload_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    for layer in layertrace.LAYERS:
        assert f"{layer}.calls" in names and f"{layer}.self_us_per_req" in names


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_gives_same_workload_config():
    for name in workloads.WORKLOADS:
        assert workloads.workload_config(name, 7) == workloads.workload_config(name, 7)
        assert workloads.digest(workloads.workload_config(name, 7)) == workloads.digest(
            workloads.workload_config(name, 7)
        )
        assert (
            workloads.workload_config(name, 7)["sim_seeds"]
            != workloads.workload_config(name, 8)["sim_seeds"]
        )


def test_holdout_seeds_are_outside_the_pool_and_every_seed_is_recorded():
    pool = {s for seed in range(1000) for s in workloads.sim_seeds_for(seed)}
    assert len(pool) == workloads.POOL_SIZE
    assert not pool & set(workloads.HOLDOUT_SEEDS)
    reference = json.loads((BENCH / "reference.json").read_text())
    for name in workloads.WORKLOADS:
        entry = reference["workloads"][name]
        assert entry["definition_digest"] == workloads.definition_digest(name)
        assert set(entry["seeds"]) == {str(s) for s in workloads.reference_seeds()}


def test_sim_error_is_zero_on_identical_outputs_and_relative_otherwise():
    ref = {"ls": {"p50": 1.0, "tail": 2.0}, "li": {"p50": 4.0, "tail": 8.0}}
    assert workloads.sim_error(ref, ref) == 0.0
    drifted = json.loads(json.dumps(ref))
    drifted["li"]["tail"] = 8.8
    assert workloads.sim_error(drifted, ref) == pytest.approx(0.1)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    point = workloads.latency_point([float(i) for i in range(100)])
    assert point["tail"] == 89.0 and point["tail_pct"] == 90.0
    assert workloads.latency_point([1.0] * 10)["tail"] is None


def test_layer_of_module():
    assert layertrace.layer_of_module("repro.net.qdisc") == "qdisc"
    assert layertrace.layer_of_module("repro.net.link") == "net"
    assert layertrace.layer_of_module("repro.obs.metrics") == "obsstore"
    assert layertrace.layer_of_module("repro.obs.graph") == "obs"
    assert layertrace.layer_of_module("repro.core.manager") == "other"
    assert layertrace.layer_of_module("json") is None


def test_tracer_restores_everything_it_wraps():
    import repro.experiments.scenario  # noqa: F401
    import repro.obs  # noqa: F401
    from repro.sim.core import Simulator

    before = dict(vars(Simulator))
    tracer = layertrace.LayerTracer().install()
    assert vars(Simulator)["call_later"] is not before["call_later"]
    tracer.uninstall()
    assert dict(vars(Simulator)) == before


def _record(config_digest="c", bench_digest="b", value=1.0):
    return {
        "workload": "w", "seed": 1, "holdout": False, "trace": 0,
        "provenance": {"config_digest": config_digest, "bench_digest": bench_digest,
                       "code_digest": "x"},
        "result": {"metrics": {"wall_s": {"value": value, "unit": "s"}}},
    }


def test_compare_refuses_records_with_different_workload_configs():
    key = ("w", 1, False, 0)
    with pytest.raises(ValueError, match="workload configs differ"):
        compare.compare({key: _record()}, {key: _record(config_digest="d")}, SPEC)
    with pytest.raises(ValueError, match="benchmark code differs"):
        compare.compare({key: _record()}, {key: _record(bench_digest="e")}, SPEC)
    lines, regressed = compare.compare({key: _record()}, {key: _record(value=2.0)}, SPEC)
    assert regressed and "WORSE" in lines[-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        obs_calls = result["metrics"]["obs.calls"]["value"]
        assert (obs_calls > 0) == (workload == "overload-observed")
    else:
        assert result["metrics"]["sim_agreement"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())
