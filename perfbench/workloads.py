"""The benchmark's workloads: configs, one timed iteration, outputs.

A workload is a plain dict of the knobs the benchmark sets (so its
digest does not move when ``repro``'s config classes are refactored)
plus the simulator seeds.  ``--seed`` picks ``SEEDS_PER_RUN`` simulator
seeds from a pool whose outputs were recorded at the reference commit
(``reference.json``); further seeds are held out of the pool and only
run with ``--holdout``, for checking later claims on inputs no change
was tuned on.

Traffic is open-loop in simulated time: LS and LI requests arrive at a
fixed rate with evenly spaced (deterministic) gaps, so every seed issues
the same requests and the seed varies only the simulated service times,
load-balancing draws and retries.  The simulator itself runs flat out:
host load is a closed loop.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import json
import math
import random
import statistics
import time

#: The simulator seeds ``--seed`` draws from: ``POOL_BASE`` onwards.
POOL_BASE = 1000
POOL_SIZE = 32
#: Simulator seeds per run.  A seed's inputs alone shift host time by
#: ~5%, so each run cycles through several and reports medians.
SEEDS_PER_RUN = 4
#: Held-out simulator seeds (outside the pool, recorded too).
HOLDOUT_SEEDS = (7919, 7927, 7933, 7937)

#: The X-8 fidelity agreement gate: simulated outputs may drift at most
#: this far (relative) from the reference before the run is incorrect.
SIM_ERROR_GATE = 0.05

#: Timed slices per traffic phase (see ``Scenario.run``): ~25-30 ms of
#: host time each, so the speed probe tracks the host's drift.
PROBE_SLICES = 80
#: The probe kernel's host seconds at the reference speed; normalized
#: times read as host seconds on a host where the probe takes this long.
PROBE_NOMINAL_S = 0.0007

#: A tail percentile needs at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

_SIM_TRANSPORT = {"mss": 15_000, "header_bytes": 60}

#: name -> workload definition (seed-free).  Why each was chosen is
#: recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "fig4-packet": {
        "app": "elibrary",
        "nodes": 1,
        "ls_rps": 30.0,
        "li_rps": 30.0,
        "arrivals": "deterministic",
        "fidelity": "packet",
        **_SIM_TRANSPORT,
        "cross_layer": True,
        "overload": None,
        "obs_planes": [],
        "duration_s": 2.0,
        "warmup_s": 0.5,
        "drain_s": 30.0,
    },
    "dag-fluid": {
        "app": "dag",
        "dag": {"layers": 4, "services_per_layer": 4, "fanout": 2,
                "replicas": 2, "seed": 0},
        "nodes": 2,
        "ls_rps": 100.0,
        "li_rps": 100.0,
        "arrivals": "deterministic",
        "fidelity": "hybrid",
        **_SIM_TRANSPORT,
        "cross_layer": True,
        "overload": None,
        "obs_planes": [],
        "duration_s": 1.0,
        "warmup_s": 0.25,
        "drain_s": 30.0,
    },
    "overload-observed": {
        "app": "elibrary",
        "elibrary": {"batch_multiplier": 20.0, "frontend_workers": 1,
                     "frontend_service_median_s": 0.03,
                     "frontend_service_p99_s": 0.06},
        "nodes": 1,
        # 3x the ~30 rps frontend capacity, 20% latency-sensitive.
        "ls_rps": 18.0,
        "li_rps": 72.0,
        "arrivals": "deterministic",
        "fidelity": "hybrid",
        **_SIM_TRANSPORT,
        "cross_layer": True,
        "overload": {"gate_target_s": 0.5, "ls_escalation": 12.0,
                     "concurrency": 2, "queue_depth": 64},
        "obs_planes": ["slo", "graph", "resources"],
        "slo": {"name": "LS-p99", "target": "LS", "threshold_s": 0.5,
                "quantile": 99.0, "window_s": 4.0},
        "duration_s": 20.0,
        "warmup_s": 2.0,
        "drain_s": 30.0,
    },
}


def sim_seeds_for(seed: int, holdout: bool = False) -> list[int]:
    """The simulator seeds a benchmark ``--seed`` runs, in order."""
    if holdout:
        return list(HOLDOUT_SEEDS)
    picks = random.Random(seed).sample(range(POOL_SIZE), SEEDS_PER_RUN)
    return [POOL_BASE + pick for pick in picks]


def reference_seeds() -> list[int]:
    """Every simulator seed a run can use (the pool and the held-out)."""
    return [POOL_BASE + i for i in range(POOL_SIZE)] + list(HOLDOUT_SEEDS)


def workload_config(name: str, seed: int, holdout: bool = False) -> dict:
    """The full workload config of one run: definition + simulator seeds."""
    return dict(WORKLOADS[name], name=name, sim_seeds=sim_seeds_for(seed, holdout))


def digest(value) -> str:
    """sha256 of a JSON-able value in canonical form."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def definition_digest(name: str) -> str:
    """Digest of a workload's seed-free definition (pairs references)."""
    return digest(WORKLOADS[name])


# -- building ---------------------------------------------------------------

def scenario_config(config: dict, sim_seed: int):
    """The ``repro`` ScenarioConfig a workload config describes."""
    from repro.apps.dag import DagConfig
    from repro.apps.elibrary import ELibraryConfig
    from repro.experiments.scenario import ScenarioConfig
    from repro.mesh.config import MeshConfig
    from repro.overload import GateConfig, OverloadConfig
    from repro.transport import TransportSpec

    kwargs = {}
    if config["app"] == "dag":
        kwargs["dag"] = DagConfig(**config["dag"])
    if "elibrary" in config:
        lib = config["elibrary"]
        kwargs["elibrary"] = ELibraryConfig(
            batch_multiplier=lib["batch_multiplier"],
            specs_overrides={
                "frontend": {
                    "workers": lib["frontend_workers"],
                    "service_time_median": lib["frontend_service_median_s"],
                    "service_time_p99": lib["frontend_service_p99_s"],
                }
            },
        )
    if config["overload"] is not None:
        posture = config["overload"]
        kwargs["mesh"] = MeshConfig(
            overload=OverloadConfig(
                gate=GateConfig(
                    target_s=posture["gate_target_s"],
                    ls_escalation=posture["ls_escalation"],
                ),
                concurrency=posture["concurrency"],
                queue_depth=posture["queue_depth"],
            )
        )
    return ScenarioConfig(
        app=config["app"],
        nodes=config["nodes"],
        rps=config["ls_rps"],
        li_rps=config["li_rps"],
        arrivals=config["arrivals"],
        transport=TransportSpec(
            fidelity=config["fidelity"],
            mss=config["mss"],
            header_bytes=config["header_bytes"],
        ),
        cross_layer=config["cross_layer"],
        duration=config["duration_s"],
        warmup=config["warmup_s"],
        drain=config["drain_s"],
        seed=sim_seed,
        **kwargs,
    )


class Scenario:
    """One built scenario (plus its observability planes, if any)."""

    def __init__(self, config: dict, sim_seed: int):
        from repro.experiments.scenario import build_scenario

        self.config = config
        self.sim_seed = sim_seed
        (self.sim, self.cluster, self.mesh, self.app, self.gateway,
         self.mix, self.manager) = build_scenario(scenario_config(config, sim_seed))
        self.slo = None
        if config["obs_planes"]:
            self._install_planes(config)

    def _install_planes(self, config: dict) -> None:
        from repro.obs import (
            GraphCollector,
            ObservabilityPlane,
            ResourceCollector,
            SloEngine,
            SloSpec,
        )

        planes = set(config["obs_planes"])
        if "slo" in planes:
            self.slo = SloEngine()
            self.slo.register(SloSpec(**config["slo"]))
        ObservabilityPlane(
            slo=self.slo,
            graph=GraphCollector() if "graph" in planes else None,
            resources=ResourceCollector() if "resources" in planes else None,
        ).install(mesh=self.mesh, cluster=self.cluster, gateway=self.gateway)
        if self.slo is not None:
            self.slo.attach(self.sim)

    def run(self, watch: "Stopwatch") -> None:
        """Generate traffic, then drain until every request is recorded
        (or nothing is left to simulate, or the grace period ends).

        The simulator runs in ``PROBE_SLICES`` sim-time slices per
        traffic phase, each timed by ``watch``.  Slicing ``run(until=)``
        changes nothing simulated; the drain still checks for completion
        once per simulated second, as ``repro``'s own scenario runner does.
        """
        config = self.config
        sim, mix = self.sim, self.mix
        duration = config["duration_s"]
        deadline = duration + config["drain_s"]
        watch.time(mix.start, duration)
        self._run_slices(watch, 0.0, duration)
        while len(mix.recorder) < mix.issued and sim.now < deadline:
            if sim.peek() == float("inf"):
                break
            self._run_slices(watch, sim.now, min(sim.now + 1.0, deadline))

    def _run_slices(self, watch: "Stopwatch", start: float, end: float) -> None:
        step = self.config["duration_s"] / PROBE_SLICES
        count = max(1, math.ceil((end - start) / step - 1e-9))
        for index in range(1, count):
            watch.time(self.sim.run, start + (end - start) * index / count)
        watch.time(self.sim.run, end)


def _probe_kernel() -> float:
    """Host seconds of a fixed pure-Python kernel shaped like the
    simulator's work (heap pushes and pops, small objects, dict updates)."""
    start = time.perf_counter()
    heap, counts = [], {}
    for i in range(400):
        heapq.heappush(heap, ((i * 7919) % 1009, i, _ProbeItem(i, counts)))
        counts[i & 127] = counts.get(i & 127, 0) + 1
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - start


class _ProbeItem:
    __slots__ = ("key", "owner")

    def __init__(self, key, owner):
        self.key = key
        self.owner = owner


class Stopwatch:
    """Host time of timed calls, raw and speed-normalized.

    The host's CPU speed drifts by up to ~1.8x within seconds on shared
    virtual machines, far beyond any regression bound.  With ``probe``
    on, the probe kernel runs around every timed call (outside the
    timing), and each call's host seconds are scaled by
    ``PROBE_NOMINAL_S`` over the mean of the probe times on either side:
    seconds at a fixed reference speed.
    """

    def __init__(self, probe: bool = True):
        self.raw_s = 0.0
        self.seconds = 0.0
        self._probe = probe
        self._last = _probe_kernel() if probe else None

    def time(self, fn, *args):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        self.raw_s += elapsed
        if self._probe:
            now = _probe_kernel()
            self.seconds += elapsed * PROBE_NOMINAL_S * 2.0 / (self._last + now)
            self._last = now
        else:
            self.seconds += elapsed
        return result


def run_iteration(
    config: dict, sim_seed: int, wrap=None, probe: bool = True
) -> tuple[dict, "Scenario"]:
    """Build and run one scenario, timing its phases in host seconds
    (speed-normalized with ``probe``; see :class:`Stopwatch`).

    ``wrap`` (a context-manager factory) encloses all the work; the
    traced run passes its root span and turns the probe off.
    """
    setup, running = Stopwatch(probe), Stopwatch(probe)
    start = time.perf_counter()
    with (wrap() if wrap is not None else contextlib.nullcontext()):
        scenario = setup.time(Scenario, config, sim_seed)
        scenario.run(running)
    host_s = time.perf_counter() - start
    timing = {
        "wall_s": setup.seconds + running.seconds,
        "setup_s": setup.seconds,
        "run_s": running.seconds,
        "req_per_host_s": len(scenario.mix.recorder) / running.seconds,
        "raw_wall_s": setup.raw_s + running.raw_s,
        "host_s": host_s,
    }
    return timing, scenario


def time_setup(config: dict, sim_seed: int) -> float:
    """Speed-normalized host seconds to build a scenario (and install
    its planes)."""
    watch = Stopwatch()
    watch.time(Scenario, config, sim_seed)
    return watch.seconds


# -- outputs ----------------------------------------------------------------

def latency_point(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least
    ``TAIL_SAMPLES_BEYOND`` samples beyond it."""
    values = sorted(latencies)
    n = len(values)
    out = {"n": n, "p50": statistics.median(values) if values else None,
           "tail": None, "tail_pct": None}
    if n > TAIL_SAMPLES_BEYOND:
        out["tail"] = values[n - TAIL_SAMPLES_BEYOND - 1]
        out["tail_pct"] = 100.0 * (n - TAIL_SAMPLES_BEYOND) / n
    return out


def outputs(scenario: Scenario) -> dict:
    """The simulated outputs a run is checked on."""
    config = scenario.config
    recorder = scenario.mix.recorder
    window = (config["warmup_s"], config["duration_s"])
    samples = recorder.samples
    return {
        "ls": latency_point(recorder.latencies("ls", window)),
        "li": latency_point(recorder.latencies("li", window)),
        "issued": scenario.mix.issued,
        "recorded": len(samples),
        "ok": sum(1 for sample in samples if sample.ok),
        "events": scenario.sim.processed_events,
    }


def fingerprint(scenario: Scenario) -> str:
    """Digest of every recorded request (workload, send time, latency,
    status): equal fingerprints mean byte-identical simulated results."""
    return digest([
        [s.workload, repr(s.sent_at), repr(s.latency), s.status]
        for s in scenario.mix.recorder.samples
    ])


def sim_error(observed: dict, reference: dict) -> float:
    """Largest relative deviation of the LS/LI median and tail from the
    reference (0 when identical; inf when a point is missing)."""
    worst = 0.0
    for cls in ("ls", "li"):
        for key in ("p50", "tail"):
            ref = reference[cls][key]
            got = observed[cls][key]
            if ref is None and got is None:
                continue
            if ref is None or got is None or ref <= 0:
                return float("inf")
            worst = max(worst, abs(got - ref) / ref)
    return worst


def check(observed: dict, reference: dict) -> list[str]:
    """Output-check failures of one iteration (empty when correct)."""
    problems = []
    if observed["issued"] != reference["issued"]:
        problems.append(
            f"issued {observed['issued']} != reference {reference['issued']}"
        )
    if observed["recorded"] != observed["issued"]:
        problems.append(
            f"{observed['issued'] - observed['recorded']} requests never drained"
        )
    error = sim_error(observed, reference)
    if error > SIM_ERROR_GATE:
        problems.append(f"sim_error {error:.4f} > gate {SIM_ERROR_GATE}")
    return problems


def layer_counters(scenario: Scenario, connections) -> dict:
    """Per-layer work counters read from the program after a run.

    ``connections`` are all transport connection ends the run created
    (closed ones are gone from the stacks, so the tracer collects them).
    """
    interfaces = [
        interface
        for name in sorted(scenario.cluster.network.devices)
        for interface in scenario.cluster.network.devices[name].interfaces
    ]
    packet_bytes = sum(i.bytes_transmitted for i in interfaces)
    fluid_bytes = sum(i.fluid_bytes_transmitted for i in interfaces)
    telemetry = scenario.mesh.telemetry
    wire_bytes = packet_bytes + fluid_bytes
    return {
        "net.packets": sum(i.packets_transmitted for i in interfaces),
        "qdisc.drops": sum(i.qdisc.stats.dropped for i in interfaces),
        "qdisc.wait_s": sum(i.qdisc.stats.queue_wait_seconds for i in interfaces),
        "transport.retransmits": sum(c.retransmits for c in connections),
        "transport.downgrades": sum(getattr(c, "downgrades", 0) for c in connections),
        "transport.fluid_share": fluid_bytes / wire_bytes if wire_bytes else 0.0,
        "mesh.requests": len(telemetry.records),
        "mesh.retries": telemetry.retries_total,
        "mesh.timeouts": telemetry.timeouts_total,
        "overload.shed": scenario.gateway.requests_shed,
        "overload.rejected": telemetry.overload_rejections_total,
        "overload.retries_denied": telemetry.retries_denied_total,
    }
