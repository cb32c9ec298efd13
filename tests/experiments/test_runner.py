"""The sweep engine: caching, determinism, measurement pickling."""

import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.experiments import (
    Runner,
    ScenarioConfig,
    ScenarioMeasurement,
    cache_key,
    config_digest,
    measure_scenario,
    replicate,
    run_figure4,
)
import repro
from repro.experiments.runner import canonical, code_digest
from repro.util.stats import LatencySummary

TINY = dict(rps=5.0, duration=1.5, warmup=0.3, drain=10.0)


@dataclass(frozen=True)
class _CountedPoint:
    """A trivial point whose execution leaves a mark on disk."""

    scratch: str
    value: float = 1.0


def _counted(point: _CountedPoint) -> ScenarioMeasurement:
    # Module-level so it is picklable and has a stable qualname for the
    # content hash; appends one line per actual execution.
    with open(point.scratch, "a") as handle:
        handle.write("ran\n")
    return ScenarioMeasurement(config=point, counters={"value": point.value})


def _executions(scratch: Path) -> int:
    return len(scratch.read_text().splitlines()) if scratch.exists() else 0


class TestDigest:
    def test_stable_across_equal_configs(self):
        a = ScenarioConfig(**TINY)
        b = ScenarioConfig(**TINY)
        assert config_digest(measure_scenario, a) == config_digest(measure_scenario, b)

    def test_sensitive_to_any_field_change(self):
        base = ScenarioConfig(**TINY)
        assert config_digest(measure_scenario, base) != config_digest(
            measure_scenario, replace(base, rps=6.0)
        )
        assert config_digest(measure_scenario, base) != config_digest(
            measure_scenario, replace(base, seed=7)
        )

    def test_sensitive_to_function(self):
        config = _CountedPoint(scratch="x")
        assert config_digest(_counted, config) != config_digest(
            measure_scenario, config
        )

    def test_canonical_dataclass_includes_class_and_fields(self):
        out = canonical(_CountedPoint(scratch="s", value=2.0))
        assert out["__class__"].endswith("_CountedPoint")
        assert out["scratch"] == "s" and out["value"] == 2.0

    def test_canonical_dict_key_order_irrelevant(self):
        assert canonical({"b": 1, "a": 2}) == canonical({"a": 2, "b": 1})


class TestCache:
    def test_hit_miss_and_invalidation(self, tmp_path):
        scratch = tmp_path / "marks.txt"
        point = _CountedPoint(scratch=str(scratch))
        cache_dir = tmp_path / "cache"

        with Runner(workers=1, cache_dir=cache_dir) as runner:
            runner.map(_counted, [point])
            assert runner.stats.simulated == 1 and runner.stats.hits == 0
        assert _executions(scratch) == 1

        # Same config, fresh runner: pure cache hit, no execution.
        with Runner(workers=1, cache_dir=cache_dir) as runner:
            [measurement] = runner.map(_counted, [point])
            assert runner.stats.hits == 1 and runner.stats.simulated == 0
        assert _executions(scratch) == 1
        assert measurement.counters["value"] == 1.0

        # Changing one field invalidates only through the content hash.
        with Runner(workers=1, cache_dir=cache_dir) as runner:
            runner.map(_counted, [point, replace(point, value=2.0)])
            assert runner.stats.hits == 1 and runner.stats.simulated == 1
        assert _executions(scratch) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        scratch = tmp_path / "marks.txt"
        point = _CountedPoint(scratch=str(scratch))
        cache_dir = tmp_path / "cache"
        with Runner(workers=1, cache_dir=cache_dir) as runner:
            runner.map(_counted, [point])
            path = runner.cache.path(cache_key(_counted, point))
        assert path.exists()
        path.write_bytes(b"not a pickle")
        with Runner(workers=1, cache_dir=cache_dir) as runner:
            runner.map(_counted, [point])
            assert runner.stats.simulated == 1
        assert _executions(scratch) == 2

    def test_cache_key_folds_in_the_sources(self):
        config = _CountedPoint(scratch="x")
        assert len(code_digest()) == 64
        assert cache_key(_counted, config) != config_digest(_counted, config)
        assert cache_key(_counted, config) == cache_key(_counted, config)
        assert cache_key(_counted, config) != cache_key(
            _counted, replace(config, value=2.0)
        )

    def test_source_edit_misses_the_cache(self, tmp_path):
        # A copy of the package, run twice against one cache directory:
        # unchanged sources hit, an edited source simulates again.
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            Path(repro.__file__).parent, package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        cache_dir = tmp_path / "cache"
        script = (
            "import sys\n"
            "from repro.experiments import Runner, ScenarioMeasurement\n"
            "def point(config):\n"
            "    return ScenarioMeasurement(config=config)\n"
            "with Runner(workers=1, cache_dir=sys.argv[1]) as runner:\n"
            "    runner.map(point, [1])\n"
            "    print(runner.stats.hits, runner.stats.simulated)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(package.parent),
                   PYTHONDONTWRITEBYTECODE="1")

        def rerun() -> str:
            done = subprocess.run(
                [sys.executable, "-c", script, str(cache_dir)],
                capture_output=True, text=True, env=env, check=True,
            )
            return done.stdout.strip()

        assert rerun() == "0 1"
        assert rerun() == "1 0"
        edited = package / "sim" / "core.py"
        edited.write_text(edited.read_text() + "\n# edited\n")
        assert rerun() == "0 1"
        assert rerun() == "1 0"

    def test_no_cache_dir_means_no_caching(self, tmp_path):
        scratch = tmp_path / "marks.txt"
        point = _CountedPoint(scratch=str(scratch))
        with Runner(workers=1) as runner:
            runner.map(_counted, [point])
            runner.map(_counted, [point])
            assert runner.stats.simulated == 2
        assert _executions(scratch) == 2

    def test_progress_reports_cache_hits(self, tmp_path, capsys):
        point = _CountedPoint(scratch=str(tmp_path / "marks.txt"))
        cache_dir = tmp_path / "cache"
        import sys
        with Runner(workers=1, cache_dir=cache_dir, progress=True,
                    stream=sys.stderr) as runner:
            runner.map(_counted, [point], title="warm")
        with Runner(workers=1, cache_dir=cache_dir, progress=True,
                    stream=sys.stderr) as runner:
            runner.map(_counted, [point], title="cached")
        err = capsys.readouterr().err
        assert "cache hit" in err
        assert "1 cache hits, 0 simulated" in err


class TestMeasurement:
    def test_pickle_round_trip(self):
        measurement = measure_scenario(ScenarioConfig(**TINY))
        clone = pickle.loads(pickle.dumps(measurement))
        assert clone == measurement
        assert clone.ls == measurement.ls
        assert clone.counters["issued"] > 0

    def test_summaries_and_counters_present(self):
        measurement = measure_scenario(ScenarioConfig(**TINY))
        assert set(measurement.summaries) == {"ls", "li"}
        assert measurement.sim_events > 0
        assert measurement.sim_time > 0
        assert measurement.wall_clock > 0
        assert measurement.counters["mesh_requests"] > 0

    def test_empty_window_yields_empty_summary(self):
        # warmup past the generation window: no samples, but the point
        # must still produce a (cacheable) measurement.
        config = ScenarioConfig(rps=2.0, duration=0.5, warmup=10.0, drain=5.0)
        measurement = measure_scenario(config)
        assert measurement.ls == LatencySummary.empty()
        assert measurement.ls.count == 0


class TestDeterminism:
    def test_serial_and_parallel_figure4_identical_csv(self):
        base = ScenarioConfig(**TINY)
        levels = (5, 10)
        with Runner(workers=1) as serial:
            first = run_figure4(base, rps_levels=levels, runner=serial)
        with Runner(workers=2) as parallel:
            second = run_figure4(base, rps_levels=levels, runner=parallel)
        assert first.csv() == second.csv()
        assert first.table() == second.table()

    def test_map_preserves_input_order(self):
        configs = [
            ScenarioConfig(**{**TINY, "rps": rps}) for rps in (4.0, 6.0)
        ]
        with Runner(workers=2) as runner:
            measurements = runner.map(measure_scenario, configs)
        assert [m.config.rps for m in measurements] == [4.0, 6.0]

    def test_replicate_accepts_runner(self):
        config = ScenarioConfig(**TINY)
        with Runner(workers=2) as runner:
            with_runner = replicate(config, seeds=(1, 2), runner=runner)
        serial = replicate(config, seeds=(1, 2))
        assert with_runner.ls_p99.values == serial.ls_p99.values
        assert with_runner.seeds == [1, 2]


class TestExperimentBase:
    def test_shared_runner_across_experiments(self, tmp_path):
        from repro.experiments import Figure4Experiment, OverheadExperiment

        fig4 = Figure4Experiment(rps_levels=(5,), **TINY)
        overhead = OverheadExperiment(rps=20.0, duration=1.0, seed=1)
        with Runner(workers=2, cache_dir=tmp_path / "cache") as runner:
            pending = [fig4.submit(runner), overhead.submit(runner)]
            fig4_result = pending[0].result()
            overhead_result = pending[1].result()
            assert runner.stats.submitted == 4
        assert fig4_result.rows[0].rps == 5.0
        assert overhead_result.overhead_p99 != 0.0

    def test_defaults_apply_only_without_base_config(self):
        from repro.experiments import OverheadExperiment

        assert OverheadExperiment().base.rps == 50.0
        assert OverheadExperiment(ScenarioConfig(**TINY)).base.rps == 5.0
        assert OverheadExperiment(rps=12.0).base.rps == 12.0


class TestDrainEarlyExit:
    def test_drain_stops_on_empty_event_heap(self):
        from repro.experiments.scenario import _drain

        class FakeSim:
            now = 0.0

            def __init__(self):
                self.run_calls = 0

            def peek(self):
                return float("inf")

            def run(self, until):
                self.run_calls += 1

        class FakeMix:
            recorder = []      # 0 recorded
            issued = 5         # but 5 issued: the old loop would spin

        sim = FakeSim()
        _drain(sim, FakeMix(), deadline=1000.0)
        assert sim.run_calls == 0
