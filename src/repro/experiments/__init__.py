"""Experiment harnesses regenerating the paper's evaluation.

* :mod:`scenario` — the §4.3 testbed as a parameterized scenario.
* :mod:`runner` — the sweep engine: parallel workers, result caching,
  the declarative :class:`Experiment` base every harness builds on.
* :mod:`figure4` — the RPS sweep of Fig. 4 (+ the T-1 LI-cost claim).
* :mod:`overhead` — T-2, sidecar latency overhead (§3.6).
* :mod:`hops` — T-3, overhead amplification over deep call chains (§3.6).
* :mod:`ablations` — A-1/A-2/A-3 over the §4.2 components.
* :mod:`te` — A-4, priority-aware traffic engineering (§4.2d).
* :mod:`hedging` — X-1, redundant requests (§3.4).
* :mod:`inference` — X-2, automatic priority inference (§3.3).
* :mod:`resilience` — X-3, fault injection + resilience under chaos.
* :mod:`compute` — X-4, prioritized request queueing on CPU (§5).
* :mod:`observe` — X-5, per-layer latency attribution waterfall (§3).
* :mod:`slo` — X-6, online SLO engine + burn-rate alerting (§3/§4.1).
* :mod:`bench` — X-7, the self-profiled benchmark grid behind
  ``python -m repro bench`` (BENCH_<n>.json reports).
* :mod:`fidelity` — X-8, fluid-vs-packet agreement on the Figure-4
  scenario (the hybrid-transport validation gate).
* :mod:`overload` — X-9, overload & admission control at saturation
  (the graceful-degradation curves behind ``python -m repro overload``).
* :mod:`dataplane` — X-10, the data-plane dissection: sidecar vs
  ambient vs no-mesh, with the proxy layer sub-attributed into its
  :mod:`repro.dataplane` cost components.
* :mod:`diagnose` — X-11, service-graph root-cause localization:
  seeded single faults on the Fig. 4 and DAG topologies, graded
  against the localizer's top-1 culprit.
* :mod:`capacity` — X-12, resource-capacity observability: USE
  telemetry for every shared resource, bottleneck ranking, and the
  knee-prediction gate behind ``python -m repro capacity``.

Every harness follows one contract::

    run_<name>(base_config: ScenarioConfig | None = None,
               *, runner: Runner | None = None, **overrides)

``overrides`` patch :class:`ScenarioConfig` fields (``rps``,
``duration``, ``seed``, ``mesh``, ...); passing a :class:`Runner` fans
the harness's grid out across worker processes with result caching.
"""

from .ablations import AblationExperiment, AblationResult, ablation_policies, run_ablations
from .capacity import (
    CapacityExperiment,
    CapacityResult,
    measure_capacity,
    run_capacity,
)
from .bench import (
    BENCH_SCHEMA,
    BenchExperiment,
    BenchResult,
    bench_scenarios,
    next_bench_path,
    run_bench,
)
from .compute import ComputeExperiment, ComputeResult, run_compute
from .dataplane import (
    DataplaneExperiment,
    DataplaneResult,
    measure_dataplane,
    run_dataplane,
)
from .diagnose import (
    DiagnoseExperiment,
    DiagnosePoint,
    DiagnoseResult,
    DiagnoseRow,
    measure_diagnose,
    run_diagnose,
)
from .fidelity import (
    FidelityExperiment,
    FidelityLevel,
    FidelityResult,
    FidelityRow,
    run_fidelity,
)
from .figure4 import (
    PAPER_RPS_LEVELS,
    Figure4Experiment,
    Figure4Result,
    Figure4Row,
    run_figure4,
)
from .hedging import HedgingExperiment, HedgingResult, run_hedging
from .hops import HopsExperiment, HopsResult, HopsRow, chain_specs, run_hops
from .inference import InferenceExperiment, InferenceResult, run_inference
from .observe import (
    ObserveExperiment,
    ObserveResult,
    measure_observed,
    run_observe,
)
from .overhead import OverheadExperiment, OverheadResult, run_overhead
from .overload import (
    OverloadExperiment,
    OverloadResult,
    measure_overload,
    run_overload,
)
from .replicate import Replicated, ReplicationResult, compare_with_replication, replicate
from .report import format_table, ms, to_csv
from .resilience import (
    ResilienceExperiment,
    ResiliencePoint,
    ResilienceResult,
    ResilienceRow,
    measure_resilience,
    run_resilience,
)
from .runner import (
    Experiment,
    Point,
    ResultCache,
    Runner,
    RunnerStats,
    ScenarioMeasurement,
    cache_key,
    config_digest,
    measure_scenario,
    wall_timer,
)
from .scenario import (
    DEFAULT_MSS,
    ScenarioConfig,
    ScenarioResult,
    build_scenario,
    run_scenario,
)
from .slo import SloExperiment, SloResult, default_slos, measure_slo, run_slo
from .te import TeExperiment, TeResult, run_te

__all__ = [
    "AblationExperiment",
    "AblationResult",
    "BENCH_SCHEMA",
    "BenchExperiment",
    "BenchResult",
    "CapacityExperiment",
    "CapacityResult",
    "ComputeExperiment",
    "ComputeResult",
    "DEFAULT_MSS",
    "DataplaneExperiment",
    "DataplaneResult",
    "DiagnoseExperiment",
    "DiagnosePoint",
    "DiagnoseResult",
    "DiagnoseRow",
    "Experiment",
    "FidelityExperiment",
    "FidelityLevel",
    "FidelityResult",
    "FidelityRow",
    "Figure4Experiment",
    "Figure4Result",
    "Figure4Row",
    "HedgingExperiment",
    "HedgingResult",
    "HopsExperiment",
    "HopsResult",
    "HopsRow",
    "InferenceExperiment",
    "InferenceResult",
    "ObserveExperiment",
    "ObserveResult",
    "OverheadExperiment",
    "OverheadResult",
    "OverloadExperiment",
    "OverloadResult",
    "PAPER_RPS_LEVELS",
    "Point",
    "Replicated",
    "ReplicationResult",
    "ResilienceExperiment",
    "ResiliencePoint",
    "ResilienceResult",
    "ResilienceRow",
    "ResultCache",
    "Runner",
    "RunnerStats",
    "ScenarioConfig",
    "ScenarioMeasurement",
    "ScenarioResult",
    "SloExperiment",
    "SloResult",
    "TeExperiment",
    "TeResult",
    "ablation_policies",
    "bench_scenarios",
    "build_scenario",
    "cache_key",
    "chain_specs",
    "compare_with_replication",
    "config_digest",
    "default_slos",
    "format_table",
    "measure_capacity",
    "measure_dataplane",
    "measure_diagnose",
    "measure_observed",
    "measure_overload",
    "measure_resilience",
    "measure_scenario",
    "measure_slo",
    "ms",
    "next_bench_path",
    "replicate",
    "run_ablations",
    "run_bench",
    "run_capacity",
    "run_compute",
    "run_dataplane",
    "run_diagnose",
    "run_fidelity",
    "run_figure4",
    "run_hedging",
    "run_hops",
    "run_inference",
    "run_observe",
    "run_overhead",
    "run_overload",
    "run_resilience",
    "run_scenario",
    "run_slo",
    "run_te",
    "to_csv",
    "wall_timer",
]
