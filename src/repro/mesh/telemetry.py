"""Mesh telemetry: the metrics every sidecar reports (Fig. 1's metric
collection function).

Metrics are grouped by (source service, destination service) pair plus a
free-form label set, which is how the experiments slice latency by
priority class.

Since the observability plane landed, the aggregate counters and latency
distributions live in a :class:`repro.obs.MetricsRegistry` — bounded
memory, mergeable across worker processes — while the per-request
``records`` list is kept (behind the same public API) for queries that
need exact samples or per-record fields.  ``max_records`` opts into a
ring buffer for long sweeps: once it truncates, distribution queries
transparently fall back to the registry histograms, which saw every
request.
"""

from __future__ import annotations

import warnings
from collections import defaultdict, deque
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry, summary_from_histograms
from ..util.stats import LatencySummary, summarize

#: Bucket resolution for the mesh latency histograms: 0.9 % relative
#: width, well under experiment noise, at a few hundred buckets/decade.
_LATENCY_BINS_PER_DECADE = 1000

#: The request header naming the workload that issued a request, and the
#: class each workload maps to.  The gateway stamps the header; both the
#: gateway (admission, class SLOs) and the sidecars (service-graph edge
#: classes) resolve it through :func:`workload_class` so the two layers
#: can never disagree on what "LS" means.
WORKLOAD_HEADER = "x-workload"
WORKLOAD_CLASSES = {"interactive": "LS", "batch": "LI"}


def workload_class(workload: str | None) -> str:
    """The request class a workload name maps to ("default" if unset)."""
    return WORKLOAD_CLASSES.get(workload, workload or "default")


@dataclass(slots=True)
class RequestRecord:
    """One proxied request as observed by a sidecar."""

    time: float
    source: str
    destination: str
    latency: float
    status: int
    priority: str | None = None
    retries: int = 0
    endpoint: str | None = None
    #: Request class (from the workload header) — lets the service graph
    #: keep per-class RED metrics per edge.
    request_class: str = "default"
    #: Wall time the callee reported spending on this request (via the
    #: server-timing response header, emitted only while a graph
    #: collector is attached).  ``None`` when the callee never answered
    #: or the graph layer is off; the graph treats the whole latency as
    #: wire time in that case.
    server_seconds: float | None = None


class Telemetry:
    """Aggregates request records mesh-wide."""

    def __init__(
        self,
        max_records: int | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if max_records is not None and max_records < 1:
            raise ValueError("max_records must be >= 1 (or None for unbounded)")
        self.registry = registry if registry is not None else MetricsRegistry()
        self.max_records = max_records
        self.records = (
            deque(maxlen=max_records) if max_records is not None else []
        )
        self._truncation_warned = False
        self.retries_total = 0
        self.timeouts_total = 0
        self.circuit_breaker_rejections = 0
        self.requests_shed_total = 0
        self.overload_rejections_total = 0
        self.retries_denied_total = 0
        #: Optional :class:`repro.obs.LayerAttributor`; when installed
        #: (by the observability plane) sidecars report per-layer
        #: intervals through it.
        self.attributor = None
        #: Optional :class:`repro.obs.SloEngine`; when installed (by the
        #: observability plane, and only if SLOs are registered) every
        #: per-hop request outcome streams into it as it is recorded.
        #: ``None`` keeps the streaming path zero-overhead.
        self.slo_engine = None
        #: Optional :class:`repro.obs.profile.SimProfiler`; when the
        #: simulator self-profiles, the registry/SLO ingest work below
        #: is charged to the ``obs`` section instead of whichever
        #: sidecar process happened to record the request.
        self.profiler = None
        #: Optional :class:`repro.obs.GraphCollector`; when installed
        #: (by the observability plane) every request record also feeds
        #: the online service-dependency graph.  ``None`` keeps the
        #: path zero-overhead, exactly like the attributor hook.
        self.graph = None
        #: Optional :class:`repro.obs.ResourceCollector`; when installed
        #: (by the observability plane) every contended resource — pod
        #: worker pools, sidecar queues, node proxies, the admission
        #: gate, retry budgets, links, qdiscs — reports windowed USE
        #: (utilization/saturation/errors) telemetry.  ``None`` keeps
        #: every resource hot path zero-overhead.
        self.resources = None

    @property
    def truncated(self) -> bool:
        """True once the ring buffer has evicted at least one record."""
        return (
            self.max_records is not None
            and len(self.records) == self.max_records
            and self.registry.counter_total("mesh_requests_total")
            > self.max_records
        )

    def record_request(self, record: RequestRecord) -> None:
        if (
            self.max_records is not None
            and len(self.records) == self.max_records
            and not self._truncation_warned
        ):
            self._truncation_warned = True
            warnings.warn(
                f"Telemetry.records hit max_records={self.max_records}; "
                "oldest records are being evicted. Distribution queries "
                "now answer from the streaming histograms (which saw "
                "every request); per-record queries see only the most "
                "recent window.",
                RuntimeWarning,
                stacklevel=2,
            )
        self.records.append(record)
        if self.profiler is None:
            self._ingest(record)
        else:
            self.profiler.run_section("obs", self._ingest, record)

    def _ingest(self, record: RequestRecord) -> None:
        """Stream one record into the registry (and SLO engine)."""
        self.registry.counter(
            "mesh_requests_total",
            source=record.source,
            destination=record.destination,
        ).inc()
        if record.status >= 500:
            self.registry.counter(
                "mesh_errors_total",
                source=record.source,
                destination=record.destination,
            ).inc()
        self.registry.histogram(
            "mesh_request_latency_seconds",
            bins_per_decade=_LATENCY_BINS_PER_DECADE,
            destination=record.destination,
            priority=str(record.priority),
        ).record(record.latency)
        if record.retries:
            self.retries_total += record.retries
            self.registry.counter("mesh_retries_total").inc(record.retries)
        if self.slo_engine is not None:
            self.slo_engine.observe(
                "destination",
                record.destination,
                record.time,
                latency=record.latency,
                ok=record.status < 500,
            )
        if self.graph is not None:
            self.graph.observe_request(record)

    def record_timeout(
        self, destination: str | None = None, now: float | None = None
    ) -> None:
        """A request that produced no response at all.  ``destination``
        and ``now`` let per-destination SLOs count the timeout against
        their budget the moment it happens (there is no latency sample
        to stream); both default to None for back-compat callers."""
        self.timeouts_total += 1
        self.registry.counter("mesh_timeouts_total").inc()
        if (
            self.slo_engine is not None
            and destination is not None
            and now is not None
        ):
            self.slo_engine.observe("destination", destination, now, ok=False)

    def record_breaker_rejection(self) -> None:
        self.circuit_breaker_rejections += 1
        self.registry.counter("mesh_breaker_rejections_total").inc()

    def record_shed(self, request_class: str) -> None:
        """A request shed by the gateway's admission gate."""
        self.requests_shed_total += 1
        self.registry.counter(
            "overload_shed_total", request_class=request_class
        ).inc()

    def record_overload_rejection(self, service: str) -> None:
        """A request rejected (or displaced) by a sidecar's bounded
        leveling queue."""
        self.overload_rejections_total += 1
        self.registry.counter("overload_rejected_total", service=service).inc()

    def record_retry_denied(self) -> None:
        """A retry attempt denied by the sidecar's retry budget."""
        self.retries_denied_total += 1
        self.registry.counter("overload_retries_denied_total").inc()

    # -- queries ----------------------------------------------------------
    def request_count(self, source: str | None = None, destination: str | None = None) -> int:
        match = {}
        if source is not None:
            match["source"] = source
        if destination is not None:
            match["destination"] = destination
        return int(self.registry.counter_total("mesh_requests_total", **match))

    def error_count(self, destination: str | None = None) -> int:
        match = {} if destination is None else {"destination": destination}
        return int(self.registry.counter_total("mesh_errors_total", **match))

    def latencies(
        self,
        destination: str | None = None,
        priority: str | None = None,
        since: float = 0.0,
    ) -> list[float]:
        return [
            record.latency
            for record in self.records
            if (destination is None or record.destination == destination)
            and (priority is None or record.priority == priority)
            and record.time >= since
        ]

    def latency_summary(
        self, destination: str | None = None, priority: str | None = None
    ) -> LatencySummary:
        if self.truncated:
            # The ring buffer no longer holds every sample; answer from
            # the histograms instead (bounded-error quantiles over the
            # complete stream).
            match = {}
            if destination is not None:
                match["destination"] = destination
            if priority is not None:
                match["priority"] = str(priority)
            return summary_from_histograms(
                self.registry.histograms_matching(
                    "mesh_request_latency_seconds", **match
                )
            )
        samples = self.latencies(destination=destination, priority=priority)
        return summarize(samples)

    def endpoint_distribution(self, destination: str) -> dict[str, int]:
        """How many requests each endpoint of ``destination`` served."""
        counts: dict[str, int] = defaultdict(int)
        for record in self.records:
            if record.destination == destination and record.endpoint is not None:
                counts[record.endpoint] += 1
        return dict(counts)

    def service_table(self) -> list[dict]:
        """Per-destination dashboard rows: requests, error rate, p50/p99.

        The "monitoring requests and their key performance metrics"
        function of §2, aggregated the way a mesh dashboard would show it.
        """
        by_destination: dict[str, list[RequestRecord]] = defaultdict(list)
        for record in self.records:
            by_destination[record.destination].append(record)
        rows = []
        for destination in sorted(by_destination):
            records = by_destination[destination]
            latencies = [r.latency for r in records]
            errors = sum(1 for r in records if r.status >= 500)
            summary = summarize(latencies)
            rows.append(
                {
                    "destination": destination,
                    "requests": len(records),
                    "error_rate": errors / len(records),
                    "p50": summary.p50,
                    "p99": summary.p99,
                    "retries": sum(r.retries for r in records),
                }
            )
        return rows
