"""Online service-dependency graph: topology-level mesh observability.

The per-request planes (attribution waterfalls, SLO streams, span
critical paths) answer "where did *this* millisecond go?".  At the
topology level the mesh's vantage point is stronger: it sees every
caller→callee hop, so it can maintain the live service graph itself —
nodes are services (plus the ingress gateway), edges are discovered
from traffic, and each edge carries its own health signals.  This is
the dependency-graph telemetry the service-mesh surveys name as a core
observability capability, and the substrate the root-cause localizer
(:mod:`repro.obs.localize`) walks when an SLO alert fires.

Per edge the collector keeps:

* **RED metrics per request class** — rate, error ratio, and duration
  p50/p99 over the trailing sim-time window (the ISSUE-4
  :class:`WindowedHistogram` core, so quantile error stays within the
  documented ~1 % envelope).
* **Layer attribution** — windowed seconds per layer (proxy, retry,
  queue, and a wire tally from which transport is derived as the
  uncovered residual, mirroring the ISSUE-3 decomposition) plus the
  ISSUE-8 proxy component sub-split as cumulative totals.
* **Cumulative interop metrics** — ``repro_edge_requests_total``,
  ``repro_edge_errors_total`` and ``repro_edge_latency_seconds``
  families written into the observability plane's
  :class:`~repro.obs.metrics.MetricsRegistry`, so they ride the
  existing Prometheus text exposition unchanged.

The collector is attached as ``Telemetry.graph`` by the observability
plane and follows the same zero-overhead contract as the attributor
hook: every instrumentation site checks ``telemetry.graph is not None``
and the collector itself schedules nothing on the simulator, so runs
without a graph are byte-identical to runs before this module existed.

Wire accounting: while a collector is attached, callee sidecars stamp a
``x-server-timing`` response header with the seconds they spent serving
the request; the caller folds ``max(0, latency - server_seconds)`` into
the edge's wire tally.  Subtracting the callee's own time makes the
tally *edge-exclusive* — a slow grandchild inflates only its own edge,
not every edge above it — which is what lets the localizer rank edges
without double-counting downstream pain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..http.headers import SERVER_TIMING
from ..util.stats import LatencySummary
from .attribution import LAYER_PROXY, LAYER_QUEUE, LAYER_RETRY, LAYER_TRANSPORT
from .export import csv_escape
from .metrics import MetricsRegistry
from .windows import WindowedCounter, WindowedHistogram

#: Default trailing window for edge RED metrics and layer tallies;
#: matches the SLO engine's default so alert-time diagnosis and the
#: alert itself look at the same horizon.
DEFAULT_GRAPH_WINDOW_S = 4.0

#: The node every externally-submitted request appears to come from
#: (the gateway's sidecar reports this as its service name).
GATEWAY_NODE = "ingress-gateway"

#: Response header carrying the callee's serving time (stamped only
#: while a graph collector is attached); defined with the other
#: well-known header names.
SERVER_TIMING_HEADER = SERVER_TIMING

#: Edge layers with explicit tallies; transport is the derived residual.
_EDGE_LAYERS = (LAYER_PROXY, LAYER_RETRY, LAYER_QUEUE)

#: Header of :meth:`GraphCollector.edges_csv` (the graph snapshot
#: format ``repro compare`` diffs).
EDGES_CSV_HEADER = (
    "src,dst,class,requests,errors,error_ratio,rate_rps,p50_s,p99_s,"
    "proxy_s,retry_s,queue_s,transport_s"
)


class _ClassStats:
    """Windowed RED state for one (edge, request class)."""

    __slots__ = ("requests", "errors", "latency")

    def __init__(self, window: float) -> None:
        self.requests = WindowedCounter(window)
        self.errors = WindowedCounter(window)
        self.latency = WindowedHistogram(window)


class _EdgeState:
    """Everything the collector knows about one caller→callee edge."""

    __slots__ = (
        "window", "classes", "layers", "wire", "components",
        "requests_total", "errors_total",
    )

    def __init__(self, window: float) -> None:
        self.window = window
        self.classes: dict[str, _ClassStats] = {}
        self.layers = {layer: WindowedCounter(window) for layer in _EDGE_LAYERS}
        self.wire = WindowedCounter(window)
        self.components: dict[str, float] = {}
        self.requests_total = 0
        self.errors_total = 0

    def class_stats(self, request_class: str) -> _ClassStats:
        stats = self.classes.get(request_class)
        if stats is None:
            stats = _ClassStats(self.window)
            self.classes[request_class] = stats
        return stats

    def requests_in_window(self, now: float) -> float:
        return sum(c.requests.total(now) for c in self.classes.values())

    def layer_seconds(self, now: float) -> dict[str, float]:
        """Windowed per-layer seconds, transport as the wire residual."""
        seconds = {layer: self.layers[layer].total(now) for layer in _EDGE_LAYERS}
        wire = self.wire.total(now)
        covered = sum(seconds.values())
        seconds[LAYER_TRANSPORT] = max(0.0, wire - covered)
        return seconds

    def per_request_layers(self, now: float) -> dict[str, float]:
        """Windowed per-layer seconds divided by windowed requests."""
        requests = self.requests_in_window(now)
        if requests <= 0:
            return {layer: 0.0 for layer in (*_EDGE_LAYERS, LAYER_TRANSPORT)}
        return {
            layer: seconds / requests
            for layer, seconds in self.layer_seconds(now).items()
        }


class _NodeState:
    """Service-local state: app compute plus inbound-side proxy time."""

    __slots__ = ("app_seconds", "app_calls", "proxy_seconds")

    def __init__(self, window: float) -> None:
        self.app_seconds = WindowedCounter(window)
        self.app_calls = WindowedCounter(window)
        self.proxy_seconds = WindowedCounter(window)


@dataclass(frozen=True)
class EdgeSummary:
    """One (edge, class) row of :meth:`GraphCollector.edge_summaries`."""

    src: str
    dst: str
    request_class: str
    requests: int
    errors: int
    rate: float
    error_ratio: float
    latency: LatencySummary
    layers: dict[str, float] = field(hash=False, default_factory=dict)


class GraphBaseline:
    """Frozen per-edge/per-node reference levels (end of warmup)."""

    __slots__ = ("time", "edge_error_ratio", "edge_layers", "edge_p99", "node_app")

    def __init__(self) -> None:
        self.time = 0.0
        #: (src, dst, class) -> error ratio in the baseline window.
        self.edge_error_ratio: dict[tuple, float] = {}
        #: (src, dst) -> per-request layer seconds at freeze time.
        self.edge_layers: dict[tuple, dict[str, float]] = {}
        #: (src, dst, class) -> windowed p99 at freeze time.
        self.edge_p99: dict[tuple, float] = {}
        #: service -> per-call app seconds at freeze time.
        self.node_app: dict[str, float] = {}


class GraphCollector:
    """The online dependency graph, fed by sidecar/gateway telemetry.

    Hooked into the mesh as ``Telemetry.graph`` (by
    :meth:`repro.obs.ObservabilityPlane.install`); purely passive — it
    never schedules simulator events, so attaching it perturbs wall
    time only, never simulated behavior beyond the (deterministic)
    server-timing response header it asks the sidecars to stamp.
    """

    def __init__(
        self,
        window: float = DEFAULT_GRAPH_WINDOW_S,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.window = float(window)
        self.registry = registry
        self._edges: dict[tuple, _EdgeState] = {}
        self._nodes: dict[str, _NodeState] = {}
        #: flow id -> (src, dst): which edge a transport flow serves,
        #: so qdisc dequeue hooks can charge packet waits per edge.
        self._flows: dict[int, tuple] = {}
        self.baseline: GraphBaseline | None = None
        #: (src, dst) edge observations that arrived via sampled trace
        #: spans rather than live telemetry (see :meth:`ingest_spans`).
        self.span_edges: dict[tuple, int] = {}

    # -- ingest (called from mesh instrumentation) ---------------------

    def _edge(self, src: str, dst: str) -> _EdgeState:
        state = self._edges.get((src, dst))
        if state is None:
            state = _EdgeState(self.window)
            self._edges[(src, dst)] = state
        return state

    def _node(self, service: str) -> _NodeState:
        state = self._nodes.get(service)
        if state is None:
            state = _NodeState(self.window)
            self._nodes[service] = state
        return state

    def observe_request(self, record) -> None:
        """One logical caller→callee request (from ``Telemetry``):
        discovers the edge and feeds its RED metrics.  Hedges and
        retries already collapsed into one record — one logical edge
        traversal, however many tries it took."""
        edge = self._edge(record.source, record.destination)
        stats = edge.class_stats(record.request_class)
        now = record.time
        stats.requests.add(now)
        stats.latency.record(now, record.latency)
        edge.requests_total += 1
        error = record.status >= 500
        if error:
            stats.errors.add(now)
            edge.errors_total += 1
        if record.server_seconds is not None:
            edge.wire.add(now, max(0.0, record.latency - record.server_seconds))
        else:
            # The callee never answered (timeout/synthetic reply): the
            # whole latency was spent against the wire.
            edge.wire.add(now, record.latency)
        if self.registry is not None:
            labels = {
                "src": record.source,
                "dst": record.destination,
                "class": record.request_class,
            }
            self.registry.counter("repro_edge_requests_total", **labels).inc()
            if error:
                self.registry.counter("repro_edge_errors_total", **labels).inc()
            self.registry.histogram(
                "repro_edge_latency_seconds", bins_per_decade=1000, **labels
            ).record(record.latency)

    def observe_layer(
        self, src: str, dst: str, layer: str, seconds: float, now: float
    ) -> None:
        """Charge ``seconds`` of ``layer`` time to the (src, dst) edge
        (proxy traversals, retry backoffs/hedge waits, failed tries)."""
        if seconds <= 0:
            return
        edge = self._edge(src, dst)
        counter = edge.layers.get(layer)
        if counter is not None:
            counter.add(now, seconds)

    def observe_components(self, src: str, dst: str, components) -> None:
        """Proxy component sub-split (repro.dataplane), cumulative:
        every ``(component, seconds)`` pair of one traversal."""
        if not components:
            return
        tally = self._edge(src, dst).components
        for component, seconds in components:
            tally[component] = tally.get(component, 0.0) + seconds

    def observe_node_proxy(self, service: str, seconds: float, now: float) -> None:
        """Inbound-side proxy time at a callee (no caller identity on
        the inbound path, so it lands on the node, not an edge)."""
        if seconds > 0:
            self._node(service).proxy_seconds.add(now, seconds)

    def observe_app(self, service: str, seconds: float, now: float) -> None:
        """One app-handler compute interval at ``service``."""
        node = self._node(service)
        node.app_seconds.add(now, seconds)
        node.app_calls.add(now)

    # -- flow→edge mapping for qdisc queue waits ----------------------

    def claim_flow(self, flow_id: int, src: str, dst: str) -> None:
        if flow_id is not None:
            self._flows[flow_id] = (src, dst)

    def release_flow(self, flow_id: int) -> None:
        self._flows.pop(flow_id, None)

    def observe_queue_wait(self, packet, now: float) -> None:
        """Interface dequeue hook: charge the packet's qdisc wait to
        the edge its flow currently serves (same shape as the
        attributor's hook; the plane installs both)."""
        edge = self._flows.get(getattr(packet, "flow_id", None))
        if edge is None:
            return
        enqueued = getattr(packet, "enqueued_at", None)
        if enqueued is not None and now > enqueued:
            self.observe_layer(edge[0], edge[1], LAYER_QUEUE, now - enqueued, now)

    def ingest_spans(self, collector) -> None:
        """Merge trace-derived caller→callee pairs from the span
        collector (client spans name their callee in the operation).
        Sampled traces can only confirm edges, so this feeds discovery
        counts, not RED metrics."""
        for (src, dst), count in getattr(collector, "edge_counts", {}).items():
            self.span_edges[(src, dst)] = (
                self.span_edges.get((src, dst), 0) + count
            )

    # -- baseline ------------------------------------------------------

    def freeze_baseline(self, now: float) -> GraphBaseline:
        """Snapshot per-edge/node reference levels (call at warmup end);
        the localizer scores anomalies as deviations from this."""
        baseline = GraphBaseline()
        baseline.time = now
        for (src, dst), edge in self._edges.items():
            baseline.edge_layers[(src, dst)] = edge.per_request_layers(now)
            for cls, stats in edge.classes.items():
                requests = stats.requests.total(now)
                errors = stats.errors.total(now)
                baseline.edge_error_ratio[(src, dst, cls)] = (
                    errors / requests if requests > 0 else 0.0
                )
                baseline.edge_p99[(src, dst, cls)] = stats.latency.quantile(now, 99.0)
        for service, node in self._nodes.items():
            calls = node.app_calls.total(now)
            baseline.node_app[service] = (
                node.app_seconds.total(now) / calls if calls > 0 else 0.0
            )
        self.baseline = baseline
        return baseline

    # -- queries -------------------------------------------------------

    def services(self) -> list[str]:
        """Every node the graph knows, sorted (edge endpoints + nodes
        with app/proxy observations)."""
        names = set(self._nodes)
        for src, dst in self._edges:
            names.add(src)
            names.add(dst)
        for src, dst in self.span_edges:
            names.add(src)
            names.add(dst)
        return sorted(names)

    def edges(self) -> list[tuple]:
        """Discovered (src, dst) pairs, sorted (telemetry + span-fed)."""
        return sorted(set(self._edges) | set(self.span_edges))

    def edge_summaries(self, now: float) -> list[EdgeSummary]:
        """Windowed RED + layer rows, one per (edge, class), sorted."""
        rows = []
        for (src, dst) in sorted(self._edges):
            edge = self._edges[(src, dst)]
            layers = edge.per_request_layers(now)
            for cls in sorted(edge.classes):
                stats = edge.classes[cls]
                requests = stats.requests.total(now)
                errors = stats.errors.total(now)
                rows.append(
                    EdgeSummary(
                        src=src,
                        dst=dst,
                        request_class=cls,
                        requests=int(requests),
                        errors=int(errors),
                        rate=stats.requests.rate(now),
                        error_ratio=errors / requests if requests > 0 else 0.0,
                        latency=stats.latency.summary(now),
                        layers=layers,
                    )
                )
        return rows

    def node_app_seconds(self, now: float) -> dict[str, float]:
        """Per-call app seconds per service over the window."""
        result = {}
        for service in sorted(self._nodes):
            node = self._nodes[service]
            calls = node.app_calls.total(now)
            result[service] = (
                node.app_seconds.total(now) / calls if calls > 0 else 0.0
            )
        return result

    # -- exports -------------------------------------------------------

    def edges_csv(self, now: float) -> str:
        """The graph snapshot as CSV (sorted rows, trailing newline —
        the byte-stability contract every exporter honors)."""
        lines = [EDGES_CSV_HEADER]
        for row in self.edge_summaries(now):
            lines.append(
                ",".join(
                    [
                        csv_escape(row.src),
                        csv_escape(row.dst),
                        csv_escape(row.request_class),
                        str(row.requests),
                        str(row.errors),
                        f"{row.error_ratio:.6f}",
                        f"{row.rate:.6f}",
                        f"{row.latency.p50:.9f}",
                        f"{row.latency.p99:.9f}",
                        f"{row.layers[LAYER_PROXY]:.9f}",
                        f"{row.layers[LAYER_RETRY]:.9f}",
                        f"{row.layers[LAYER_QUEUE]:.9f}",
                        f"{row.layers[LAYER_TRANSPORT]:.9f}",
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def dot(self, now: float | None = None) -> str:
        """The service graph as DOT text (sorted nodes/edges, trailing
        newline).  With ``now`` given, edges are labeled with windowed
        aggregate rate and p99."""
        lines = ["digraph services {", "  rankdir=LR;"]
        for service in self.services():
            shape = "box" if service == GATEWAY_NODE else "ellipse"
            lines.append(f'  "{service}" [shape={shape}];')
        for (src, dst) in self.edges():
            edge = self._edges.get((src, dst))
            if edge is None or now is None:
                lines.append(f'  "{src}" -> "{dst}";')
                continue
            rate = sum(c.requests.rate(now) for c in edge.classes.values())
            p99 = max(
                (c.latency.quantile(now, 99.0) for c in edge.classes.values()),
                default=0.0,
            )
            lines.append(
                f'  "{src}" -> "{dst}" '
                f'[label="{rate:.1f} rps / p99 {p99 * 1e3:.2f} ms"];'
            )
        lines.append("}")
        return "\n".join(lines) + "\n"
