"""Per-layer latency attribution: where does each millisecond go?

Instrumented layers (mesh sidecar, gateway, transport, qdisc/link)
report *intervals* — "(root request, layer, start, end)" — keyed by the
root ``x-request-id`` that the gateway stamps on ingress and the mesh
propagates to every child call.  When the root request finishes, its
intervals are decomposed into a disjoint partition of the end-to-end
window ``[start, end]``:

* every instant covered by at least one interval is charged to the
  highest-priority layer active at that instant
  (app > proxy > queue > retry > transport);
* every *uncovered* instant is charged to ``transport`` — in this
  simulator, time that is neither application service time, proxy CPU,
  queueing, nor retry/hedge wait is time the bytes spend in the
  transport/CC machinery (handshakes, pacing, RTTs, retransmit waits).

Because the decomposition partitions the window, the layer components
sum to the end-to-end latency *exactly* — the ≤1 % acceptance bound in
ISSUE 3 holds by construction, and any residual error visible in a
report comes only from float rounding.

The fan-out subtlety: the e-library frontend calls details and reviews
in parallel, so naive per-hop duration sums double-count overlapping
time and can exceed the end-to-end latency.  Sweeping intervals instead
of summing them makes overlap harmless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Application service time: handler compute (incl. CPU-queue wait).
LAYER_APP = "app"
#: Sidecar proxy overhead: per-traversal proxy delay, mTLS handshake
#: CPU, pool connect extras — the §3.6 "sidecar tax".
LAYER_PROXY = "proxy"
#: Retry/hedge wait: backoff sleeps, hedge-delay timers, fault delays.
LAYER_RETRY = "retry"
#: Transport/CC time: everything on the wire not otherwise covered.
LAYER_TRANSPORT = "transport"
#: Link queueing: packet wait inside qdiscs before transmission.
LAYER_QUEUE = "queue"

#: Report/display order (matches the ISSUE and the paper's stack walk).
LAYERS = (LAYER_APP, LAYER_PROXY, LAYER_RETRY, LAYER_TRANSPORT, LAYER_QUEUE)

#: When intervals overlap, the most specific signal wins: app compute
#: over proxy CPU over measured queueing over retry wait.  Transport is
#: never an explicit interval — it is the uncovered residual.
_SWEEP_PRIORITY = (LAYER_APP, LAYER_PROXY, LAYER_QUEUE, LAYER_RETRY)


def decompose(
    start: float, end: float, intervals: list[tuple[str, float, float]]
) -> tuple[dict[str, float], list[tuple[str, float, float]]]:
    """Partition ``[start, end]`` across layers via an event sweep.

    ``intervals`` is a list of ``(layer, t0, t1)``; portions outside
    the window are clipped.  Returns ``(components, segments)`` where
    ``components`` maps every layer in :data:`LAYERS` to its share
    (summing exactly to ``end - start``) and ``segments`` is the
    ordered disjoint partition ``[(layer, t0, t1), ...]`` for
    waterfall rendering (adjacent same-layer segments merged).
    """
    components = {layer: 0.0 for layer in LAYERS}
    segments: list[tuple[str, float, float]] = []
    if end <= start:
        return components, segments

    events: list[tuple[float, int, int]] = []  # (time, +1/-1, layer_rank)
    for layer, t0, t1 in intervals:
        if layer == LAYER_TRANSPORT:
            continue  # transport is the residual, never an input
        t0 = max(t0, start)
        t1 = min(t1, end)
        if t1 <= t0:
            continue
        rank = _SWEEP_PRIORITY.index(layer)
        events.append((t0, +1, rank))
        events.append((t1, -1, rank))
    events.sort()

    active = [0] * len(_SWEEP_PRIORITY)

    def current_layer() -> str:
        for rank, layer in enumerate(_SWEEP_PRIORITY):
            if active[rank] > 0:
                return layer
        return LAYER_TRANSPORT

    def emit(layer: str, t0: float, t1: float) -> None:
        if t1 <= t0:
            return
        components[layer] += t1 - t0
        if segments and segments[-1][0] == layer and segments[-1][2] == t0:
            segments[-1] = (layer, segments[-1][1], t1)
        else:
            segments.append((layer, t0, t1))

    cursor = start
    i = 0
    while i < len(events):
        time = events[i][0]
        if time > cursor:
            emit(current_layer(), cursor, min(time, end))
            cursor = min(time, end)
        # Drain every event at this instant before sampling the state.
        while i < len(events) and events[i][0] == time:
            _, delta, rank = events[i]
            active[rank] += delta
            i += 1
    if cursor < end:
        emit(current_layer(), cursor, end)
    return components, segments


@dataclass
class RequestAttribution:
    """The finished decomposition of one root request."""

    root: str
    request_class: str
    start: float
    end: float
    status: int
    components: dict[str, float]
    segments: list[tuple[str, float, float]] = field(default_factory=list)
    #: Sub-attribution of the proxy layer (repro.dataplane): component
    #: name → seconds, scaled so the values sum exactly to
    #: ``components["proxy"]`` (raw per-traversal durations can overlap
    #: under fan-out; the sweep total is authoritative).
    proxy_components: dict[str, float] = field(default_factory=dict)

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    @property
    def attribution_error(self) -> float:
        """Relative |sum(components) − elapsed| / elapsed (0 when
        instantaneous); float-rounding noise only, by construction."""
        if self.elapsed <= 0:
            return 0.0
        total = sum(self.components.values())
        return abs(total - self.elapsed) / self.elapsed


class LayerAttributor:
    """Collects layer intervals per in-flight root request.

    Lifecycle: the ingress gateway calls :meth:`start_request` when it
    stamps the root ``x-request-id``, instrumented layers call
    :meth:`record` (unknown or already-finished roots are dropped, so
    instrumentation never needs to know whether attribution is on),
    and the gateway's completion callback calls :meth:`finish_request`,
    which runs the sweep and files the result under the request class.

    Packets do not carry request ids, so the transport claims flows:
    :meth:`claim_flow` maps a connection's ``flow_id`` to the root it
    currently serves, letting :meth:`observe_queue_wait` attribute
    qdisc wait measured at dequeue time back to a request.
    """

    def __init__(self) -> None:
        self._open: dict[str, tuple[str, float]] = {}
        self._intervals: dict[str, list[tuple[str, float, float]]] = {}
        self._proxy_components: dict[str, dict[str, float]] = {}
        self._flow_roots: dict[int, str] = {}
        self.finished: list[RequestAttribution] = []
        self.dropped_intervals = 0

    # -- request lifecycle --------------------------------------------

    def start_request(self, root: str, request_class: str, now: float) -> None:
        self._open[root] = (request_class, now)
        self._intervals[root] = []

    def record(self, root: str | None, layer: str, start: float, end: float) -> None:
        if root is None or end <= start:
            return
        if root not in self._open:
            self.dropped_intervals += 1
            return
        self._intervals[root].append((layer, start, end))

    def record_components(self, root: str | None, components) -> None:
        """Tally proxy work by component (repro.dataplane) for ``root``:
        every ``(component, seconds)`` pair of one traversal.

        A parallel accounting to :meth:`record`: the interval stream
        still drives the sweep (so layers partition the window exactly,
        unchanged), while the component tally sub-divides the proxy
        layer. At :meth:`finish_request` the raw tally is scaled to the
        swept proxy total, so the sub-components also sum exactly.
        """
        if root is None or root not in self._open:
            return
        tally = None
        for component, seconds in components:
            if seconds <= 0:
                continue
            if tally is None:
                tally = self._proxy_components.setdefault(root, {})
            tally[component] = tally.get(component, 0.0) + seconds

    def finish_request(
        self, root: str, now: float, status: int = 200
    ) -> RequestAttribution | None:
        entry = self._open.pop(root, None)
        if entry is None:
            return None
        request_class, started = entry
        intervals = self._intervals.pop(root, [])
        components, segments = decompose(started, now, intervals)
        raw = self._proxy_components.pop(root, {})
        proxy_components: dict[str, float] = {}
        proxy_total = components.get(LAYER_PROXY, 0.0)
        raw_total = sum(raw.values())
        if raw_total > 0 and proxy_total > 0:
            # Scale the per-traversal tallies onto the swept proxy time:
            # overlapping traversals (fan-out) and clipping make the raw
            # sum drift from the partitioned total; the ratio keeps the
            # sub-components summing to the proxy layer exactly.
            scale = proxy_total / raw_total
            proxy_components = {
                component: seconds * scale for component, seconds in raw.items()
            }
        attribution = RequestAttribution(
            root=root,
            request_class=request_class,
            start=started,
            end=now,
            status=status,
            components=components,
            segments=segments,
            proxy_components=proxy_components,
        )
        self.finished.append(attribution)
        return attribution

    # -- flow → root mapping (queue attribution) ----------------------

    def claim_flow(self, flow_id: int, root: str | None) -> None:
        if root is not None and flow_id is not None:
            self._flow_roots[flow_id] = root

    def release_flow(self, flow_id: int, root: str | None = None) -> None:
        if root is None or self._flow_roots.get(flow_id) == root:
            self._flow_roots.pop(flow_id, None)

    def flow_root(self, flow_id: int) -> str | None:
        return self._flow_roots.get(flow_id)

    def observe_queue_wait(self, packet, now: float) -> None:
        """Interface dequeue hook: charge the packet's qdisc wait to the
        request its flow currently serves."""
        root = self._flow_roots.get(getattr(packet, "flow_id", None))
        if root is None:
            return
        enqueued = getattr(packet, "enqueued_at", None)
        if enqueued is not None and now > enqueued:
            self.record(root, LAYER_QUEUE, enqueued, now)

    # -- reporting ----------------------------------------------------

    def classes(self) -> list[str]:
        return sorted({a.request_class for a in self.finished})

    def class_report(
        self, window: tuple[float, float] | None = None
    ) -> dict[str, dict]:
        """Per-class aggregation: mean per-layer components, mean
        end-to-end, and the worst per-request attribution error.

        ``window`` filters on request *start* time, mirroring how the
        workload recorder scopes its summaries to the steady state.
        """
        report: dict[str, dict] = {}
        for attribution in self.finished:
            if window is not None:
                low, high = window
                if not (low <= attribution.start <= high):
                    continue
            row = report.setdefault(
                attribution.request_class,
                {
                    "count": 0,
                    "errors": 0,
                    "e2e_total": 0.0,
                    "layers": {layer: 0.0 for layer in LAYERS},
                    "proxy_components": {},
                    "max_error": 0.0,
                },
            )
            row["count"] += 1
            if attribution.status >= 400:
                row["errors"] += 1
            row["e2e_total"] += attribution.elapsed
            for layer, value in attribution.components.items():
                row["layers"][layer] += value
            for component, value in attribution.proxy_components.items():
                row["proxy_components"][component] = (
                    row["proxy_components"].get(component, 0.0) + value
                )
            row["max_error"] = max(row["max_error"], attribution.attribution_error)
        for row in report.values():
            count = row["count"]
            row["e2e_mean"] = row["e2e_total"] / count if count else 0.0
            row["layer_means"] = {
                layer: (total / count if count else 0.0)
                for layer, total in row["layers"].items()
            }
            row["proxy_component_means"] = {
                component: (total / count if count else 0.0)
                for component, total in sorted(row["proxy_components"].items())
            }
        return dict(sorted(report.items()))

    def exemplar(
        self, request_class: str, window: tuple[float, float] | None = None
    ) -> RequestAttribution | None:
        """The in-window request of ``request_class`` closest to the
        class median latency — a representative waterfall subject."""
        candidates = [
            a
            for a in self.finished
            if a.request_class == request_class
            and (window is None or window[0] <= a.start <= window[1])
        ]
        if not candidates:
            return None
        ordered = sorted(candidates, key=lambda a: (a.elapsed, a.root))
        return ordered[len(ordered) // 2]
