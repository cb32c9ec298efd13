"""The sweep-execution engine: parallel experiment points with
deterministic on-disk result caching.

Every experiment in this repository is a *grid of independent scenario
runs* (independent configs, seeded RNG), which makes the whole
evaluation embarrassingly parallel.  This module provides the three
pieces the harnesses share:

* :class:`ScenarioMeasurement` — the picklable unit of result.  A
  finished :class:`~repro.experiments.scenario.ScenarioResult` holds
  live simulator/cluster handles and cannot cross a process boundary;
  the measurement keeps only what experiments tabulate (latency
  summaries per workload, telemetry counters, the config echo, and
  wall-clock/cost accounting).
* :class:`Runner` — fans point functions out across worker processes
  (``workers=N``; ``1`` runs inline) and caches finished measurements
  on disk keyed by a stable content hash of ``(function, config)`` and
  of the ``repro`` sources, so re-running a sweep with one changed
  point only simulates the changed point, and an edit to the simulator
  never serves a result the old code produced.  Progress (points
  done/total, per-point wall-clock, ETA and a cache-hit counter) is
  reported on ``stderr`` when enabled.
* :class:`Experiment` — the declarative base the harnesses subclass:
  a parameter grid (:meth:`Experiment.points`) plus a collection step
  (:meth:`Experiment.collect`) that folds the measurements back into
  the harness's result type (tables / CSV).

Determinism is a hard requirement: a point function must derive all
randomness from its config's seed, so serial and parallel execution of
the same grid produce identical results, byte for byte.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Iterable

from ..util.stats import LatencySummary, summarize
from ..workload.mixes import LI_WORKLOAD, LS_WORKLOAD
from .scenario import ScenarioConfig, ScenarioResult, run_scenario

#: Bump when the measurement layout changes; stale cache entries are
#: then treated as misses instead of being deserialized incorrectly.
#: 2: ScenarioMeasurement grew the ``profile`` field.
CACHE_SCHEMA = 2


class wall_timer:
    """Context manager for the wall-clock pattern every harness used to
    hand-roll (``start = perf_counter(); ...; perf_counter() - start``).

    The elapsed time is available as ``.elapsed`` — live while the block
    runs, frozen at exit::

        with wall_timer() as timer:
            result = run_scenario(config)
        measurement = ScenarioMeasurement.from_scenario(
            result, wall_clock=timer.elapsed
        )
    """

    __slots__ = ("_start", "_elapsed")

    def __init__(self):
        self._start = None
        self._elapsed = None

    def __enter__(self) -> "wall_timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._elapsed = time.perf_counter() - self._start

    @property
    def elapsed(self) -> float:
        if self._elapsed is not None:
            return self._elapsed
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start


# -- content hashing ------------------------------------------------------

def canonical(value: Any):
    """Reduce ``value`` to a canonical JSON-serializable structure.

    Dataclasses become ``{"__class__": ..., <field>: ...}`` mappings,
    tuples become lists, dict keys are stringified and sorted. Objects
    with address-bearing default reprs collapse to their type name so
    the digest never varies across processes.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr round-trips doubles exactly; ints-as-floats stay floats.
        return float(value)
    if isinstance(value, Enum):
        return [type(value).__qualname__, value.name]
    if is_dataclass(value) and not isinstance(value, type):
        out: dict[str, Any] = {
            "__class__": f"{type(value).__module__}.{type(value).__qualname__}"
        }
        for f in fields(value):
            out[f.name] = canonical(getattr(value, f.name))
        return out
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return sorted(json.dumps(canonical(item), sort_keys=True) for item in value)
    if isinstance(value, dict):
        return {
            str(key): canonical(val)
            for key, val in sorted(value.items(), key=lambda kv: str(kv[0]))
        }
    if callable(value):
        module = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", repr(value))
        return f"{module}.{name}"
    rep = repr(value)
    if " at 0x" in rep:  # default object repr embeds a memory address
        return f"{type(value).__module__}.{type(value).__qualname__}"
    return rep


def config_digest(fn: Callable, config: Any) -> str:
    """The cache key: sha256 of the canonicalized (function, config)."""
    payload = {
        "schema": CACHE_SCHEMA,
        "fn": f"{fn.__module__}.{fn.__qualname__}",
        "config": canonical(config),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=1)
def code_digest() -> str:
    """sha256 over every ``repro`` source file (relative path + bytes),
    read once per process."""
    package = Path(__file__).resolve().parent.parent
    sha = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        sha.update(path.relative_to(package).as_posix().encode("utf-8"))
        sha.update(b"\0")
        sha.update(path.read_bytes())
        sha.update(b"\0")
    return sha.hexdigest()


def cache_key(fn: Callable, config: Any) -> str:
    """The result-cache key: :func:`config_digest` folded with
    :func:`code_digest`, so a source edit misses the cache.  (Reports
    keep the code-free config digest, comparable across commits.)"""
    blob = f"{code_digest()}:{config_digest(fn, config)}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- the measurement ------------------------------------------------------

@dataclass
class ScenarioMeasurement:
    """What a worker returns and the cache stores: a picklable digest
    of one finished experiment point."""

    config: Any
    summaries: dict[str, LatencySummary] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    sim_time: float = 0.0
    sim_events: int = 0
    wall_clock: float = 0.0
    #: Self-profiler report (``SimProfiler.report()``) when the scenario
    #: ran with ``profile=True``; None otherwise.
    profile: dict | None = None

    def summary(self, workload: str) -> LatencySummary:
        return self.summaries[workload]

    @property
    def ls(self) -> LatencySummary:
        return self.summaries[LS_WORKLOAD]

    @property
    def li(self) -> LatencySummary:
        return self.summaries[LI_WORKLOAD]

    @classmethod
    def from_scenario(
        cls, result: ScenarioResult, wall_clock: float = 0.0
    ) -> "ScenarioMeasurement":
        """Summarize a live :class:`ScenarioResult` into picklable form."""
        summaries = {}
        for workload in (LS_WORKLOAD, LI_WORKLOAD):
            samples = result.recorder.latencies(workload, window=result.window)
            summaries[workload] = summarize(samples)
        telemetry = result.telemetry
        counters = {
            "issued": float(result.mix.issued),
            "recorded": float(len(result.recorder)),
            "mesh_requests": float(telemetry.request_count()),
            "mesh_errors": float(telemetry.error_count()),
            "retries": float(telemetry.retries_total),
            "timeouts": float(telemetry.timeouts_total),
            "breaker_rejections": float(telemetry.circuit_breaker_rejections),
            # Wire bytes moved by the flow-level fast path — nonzero iff
            # any connection actually ran fluid (X-8 validation hook).
            "fluid_bytes": float(
                sum(
                    iface.fluid_bytes_transmitted
                    for device in result.cluster.network.devices.values()
                    for iface in device.interfaces
                )
            ),
        }
        extra = {}
        classifier = result.config.classifier
        if classifier is not None and hasattr(classifier, "learned_sizes"):
            extra["learned_sizes"] = dict(classifier.learned_sizes)
        profiler = result.sim.profiler
        return cls(
            config=result.config,
            summaries=summaries,
            counters=counters,
            extra=extra,
            sim_time=result.sim.now,
            sim_events=result.sim.processed_events,
            wall_clock=wall_clock,
            profile=profiler.report() if profiler is not None else None,
        )


def measure_scenario(config: ScenarioConfig) -> ScenarioMeasurement:
    """The point function for full §4.3-scenario experiments."""
    with wall_timer() as timer:
        result = run_scenario(config)
    return ScenarioMeasurement.from_scenario(result, wall_clock=timer.elapsed)


# -- the cache ------------------------------------------------------------

class ResultCache:
    """Content-addressed pickle store for finished measurements."""

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        # Fail fast on an unusable location instead of after the first
        # (possibly minutes-long) point has already been simulated.
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except (OSError, FileExistsError) as error:
            raise ValueError(
                f"cache directory {self.directory} is not usable: {error}"
            ) from error

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def load(self, key: str) -> ScenarioMeasurement | None:
        try:
            with open(self.path(key), "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError, ValueError,
                AttributeError, ImportError, IndexError):
            return None  # missing or corrupt entry: treat as a miss
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA:
            return None
        return payload.get("measurement")

    def store(self, key: str, measurement: ScenarioMeasurement) -> None:
        target = self.path(key)
        # Write-then-rename keeps concurrent writers from interleaving.
        scratch = target.with_suffix(f".tmp-{os.getpid()}-{threading.get_ident()}")
        with open(scratch, "wb") as handle:
            pickle.dump({"schema": CACHE_SCHEMA, "measurement": measurement}, handle)
        os.replace(scratch, target)


# -- the runner -----------------------------------------------------------

@dataclass
class RunnerStats:
    """Counters for one runner's lifetime (cache hits vs simulations)."""

    submitted: int = 0
    hits: int = 0
    simulated: int = 0
    point_seconds: float = 0.0   # summed per-point wall-clock


class _Progress:
    """Per-point progress lines on a stream (thread-safe)."""

    def __init__(self, stream):
        self.stream = stream
        self.lock = threading.Lock()
        self.total = 0
        self.done = 0
        self.hits = 0
        self.started = time.perf_counter()

    def expect(self, count: int = 1) -> None:
        with self.lock:
            self.total += count

    def finish(self, label: str, cached: bool, wall: float) -> None:
        with self.lock:
            self.done += 1
            if cached:
                self.hits += 1
            status = "cache hit" if cached else f"{wall:.2f}s"
            line = f"[{self.done}/{self.total}] {label}: {status}"
            remaining = self.total - self.done
            if remaining:
                elapsed = time.perf_counter() - self.started
                eta = elapsed / self.done * remaining
                line += f" (eta ~{eta:.0f}s)"
            print(line, file=self.stream, flush=True)

    def batch_summary(self, name: str, points: int, hits: int, elapsed: float) -> None:
        with self.lock:
            print(
                f"{name}: {points} points in {elapsed:.1f}s — "
                f"{hits} cache hits, {points - hits} simulated",
                file=self.stream,
                flush=True,
            )


def _timed_call(fn: Callable, config: Any):
    """Worker-side wrapper: run the point and time it."""
    start = time.perf_counter()
    return fn(config), time.perf_counter() - start


_UNSET = object()


class PointHandle:
    """A submitted point: resolved immediately (cache hit / serial run)
    or backed by a pool future."""

    def __init__(self, label: str, key: str, value=_UNSET, future=None, cached=False):
        self.label = label
        self.key = key
        self.cached = cached
        self._value = value
        self._future = future
        # Set once the runner has stored/reported the finished point, so
        # result() never returns before its progress line is printed.
        self._recorded = threading.Event()
        if future is None:
            self._recorded.set()

    @property
    def done(self) -> bool:
        return self._value is not _UNSET or self._future.done()

    def result(self) -> ScenarioMeasurement:
        if self._value is _UNSET:
            value, _wall = self._future.result()
            self._recorded.wait()
            self._value = value
            self._future = None
        return self._value


class Runner:
    """Executes experiment points, in parallel, with result caching.

    * ``workers`` — worker processes; ``1`` (or ``None`` on a 1-core
      host) runs every point inline in this process. Defaults to
      ``os.cpu_count()``.
    * ``cache_dir`` — directory for the content-addressed result cache;
      ``None`` disables caching entirely.
    * ``progress`` — when true, per-point progress lines (including the
      cache-hit counter) are printed to ``stream`` (default stderr).

    One runner can serve many experiments concurrently: ``submit`` from
    several :class:`Experiment` grids and the points share the same
    process pool (this is how ``python -m repro all`` interleaves the
    whole evaluation).
    """

    def __init__(
        self,
        workers: int | None = None,
        cache_dir: str | os.PathLike | None = None,
        progress: bool = False,
        stream=None,
    ):
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.stats = RunnerStats()
        self._progress = (
            _Progress(stream if stream is not None else sys.stderr)
            if progress
            else None
        )
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()
        self._preexpected = 0

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    # -- execution -----------------------------------------------------
    def expect(self, count: int) -> None:
        """Pre-register ``count`` upcoming points with the progress
        display, so serial (inline) execution still shows ``[n/total]``
        against the full batch size."""
        if self._progress:
            self._progress.expect(count)
            self._preexpected += count

    def submit(self, fn: Callable, config: Any, label: str | None = None) -> PointHandle:
        """Submit one point; returns a handle whose ``result()`` blocks.

        ``fn`` must be a module-level function taking exactly the config
        (so it can cross a process boundary), and must be deterministic
        given the config.
        """
        if label is None:
            label = getattr(fn, "__name__", "point")
        key = cache_key(fn, config)
        self.stats.submitted += 1
        if self._progress:
            if self._preexpected > 0:
                self._preexpected -= 1
            else:
                self._progress.expect()
        if self.cache is not None:
            cached = self.cache.load(key)
            if cached is not None:
                self.stats.hits += 1
                if self._progress:
                    self._progress.finish(label, cached=True, wall=0.0)
                return PointHandle(label, key, value=cached, cached=True)
        self.stats.simulated += 1
        if self.workers == 1:
            start = time.perf_counter()
            value = fn(config)
            self._record(key, label, value, time.perf_counter() - start)
            return PointHandle(label, key, value=value)
        future = self._pool().submit(_timed_call, fn, config)
        handle = PointHandle(label, key, future=future)
        future.add_done_callback(lambda f: self._on_done(f, handle))
        return handle

    def _on_done(self, future, handle: "PointHandle") -> None:
        try:
            if future.cancelled() or future.exception() is not None:
                return
            value, wall = future.result()
            self._record(handle.key, handle.label, value, wall)
        finally:
            handle._recorded.set()

    def _record(self, key: str, label: str, value, wall: float) -> None:
        with self._lock:
            self.stats.point_seconds += wall
            if self.cache is not None:
                self.cache.store(key, value)
        if self._progress:
            self._progress.finish(label, cached=False, wall=wall)

    def map(
        self,
        fn: Callable,
        configs: Iterable[Any],
        labels: Iterable[str] | None = None,
        title: str | None = None,
    ) -> list[ScenarioMeasurement]:
        """Run ``fn`` over every config; results come back in input
        order regardless of completion order."""
        configs = list(configs)
        if labels is None:
            name = getattr(fn, "__name__", "point")
            labels = [f"{name}[{index}]" for index in range(len(configs))]
        started = time.perf_counter()
        self.expect(len(configs))
        handles = [
            self.submit(fn, config, label=label)
            for config, label in zip(configs, labels)
        ]
        values = [handle.result() for handle in handles]
        if self._progress and title:
            hits = sum(1 for handle in handles if handle.cached)
            self._progress.batch_summary(
                title, len(handles), hits, time.perf_counter() - started
            )
        return values


# -- the declarative experiment base --------------------------------------

@dataclass(frozen=True)
class Point:
    """One grid point: a label, a picklable point function, its config."""

    label: str
    fn: Callable
    config: Any


class PendingExperiment:
    """An experiment whose grid is submitted; ``result()`` collects."""

    def __init__(self, experiment: "Experiment", runner: Runner, handles,
                 started: float | None = None):
        self.experiment = experiment
        self._runner = runner
        self._handles = handles
        self._started = started if started is not None else time.perf_counter()

    def result(self):
        measurements = {label: handle.result() for label, handle in self._handles}
        progress = self._runner._progress
        if progress is not None:
            hits = sum(1 for _label, handle in self._handles if handle.cached)
            progress.batch_summary(
                self.experiment.name,
                len(self._handles),
                hits,
                time.perf_counter() - self._started,
            )
        return self.experiment.collect(measurements)


class Experiment:
    """Base class: a declarative parameter grid over scenario configs.

    Subclasses set ``name``, optionally ``defaults`` (ScenarioConfig
    field defaults specific to the harness, applied when no base config
    is given), and implement :meth:`points` and :meth:`collect`.
    """

    name = "experiment"
    #: ScenarioConfig field values this harness defaults to.
    defaults: dict = {}

    def __init__(self, base_config: ScenarioConfig | None = None, **overrides):
        self.base = self.resolve(base_config, overrides)

    @classmethod
    def resolve(
        cls, base_config: ScenarioConfig | None, overrides: dict
    ) -> ScenarioConfig:
        if base_config is None:
            merged = dict(cls.defaults)
            merged.update(overrides)
            return ScenarioConfig(**merged)
        return replace(base_config, **overrides) if overrides else base_config

    def points(self) -> list[Point]:
        raise NotImplementedError

    def collect(self, measurements: dict[str, ScenarioMeasurement]):
        raise NotImplementedError

    def submit(self, runner: Runner) -> PendingExperiment:
        started = time.perf_counter()
        grid = self.points()
        runner.expect(len(grid))
        handles = [
            (point.label, runner.submit(point.fn, point.config,
                                        label=f"{self.name}/{point.label}"))
            for point in grid
        ]
        return PendingExperiment(self, runner, handles, started=started)

    def run(self, runner: Runner | None = None):
        """Execute the grid and collect the harness result.

        With no runner, points run serially in-process without caching
        (the backward-compatible default of every ``run_*`` harness).
        """
        if runner is not None:
            return self.submit(runner).result()
        with Runner(workers=1) as local:
            return self.submit(local).result()
