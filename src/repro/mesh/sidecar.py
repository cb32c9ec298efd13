"""The sidecar proxy (Envoy's role in Fig. 1).

Each pod gets one sidecar. All of the pod's communication flows through
it, in both directions:

* **Outbound**: the application asks for "the response to this HTTP
  request from service X" (:meth:`Sidecar.request`). The sidecar resolves
  the route (header-match rules / subsets), load balances across
  endpoints, applies retries/timeouts/circuit breaking/hedging, manages
  a connection pool, and returns the response.
* **Inbound**: the sidecar accepts mesh connections, optionally queues
  requests by priority, hands them to the application handler, and ships
  the response back.

Every proxy traversal costs a decomposed proxy delay — the §3.6
overhead, sampled and split by the mesh's
:class:`~repro.dataplane.ProxyCostModel` — and emits telemetry and
trace spans.  *Where* traversals are charged is the installed data
plane's decision (:mod:`repro.dataplane`): per-pod (``sidecar``),
per-node shared (``ambient``, which also delivers node-local hops
without touching the network), or nowhere (``none``).
"""

from __future__ import annotations

import typing
from typing import Callable

from ..cluster.pod import Pod
from ..cluster.service import Endpoint
from ..dataplane import make_data_plane
from ..http.headers import (
    PRIORITY,
    REQUEST_ID,
    SERVER_TIMING,
    SPAN_ID,
    TRACE_ID,
    propagate,
)
from ..http.message import HttpRequest, HttpResponse, HttpStatus
from ..obs.attribution import LAYER_PROXY, LAYER_RETRY
from ..overload import REJECTED, LevelingQueue, RetryBudget
from ..sim import Interrupt, PriorityStore, Simulator
from ..sim.rng import Distributions
from ..transport import ConnectionEnd
from .config import MESH_PORT, MeshConfig
from .loadbalancer import LoadBalancer, make_lb
from .policy import PolicyHooks, TransportParams
from .resilience import CircuitBreaker
from .routing import RouteTable
from .telemetry import (
    WORKLOAD_HEADER,
    RequestRecord,
    Telemetry,
    workload_class,
)
from .tracing import Tracer, _default_ids

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..net.topology import Network

AppHandler = Callable[[HttpRequest], typing.Generator]


def _new_request_id() -> str:
    """Back-compat process-global request id (tests / ad-hoc callers).
    Mesh code paths allocate from the per-simulation tracer instead."""
    return _default_ids.request_id()


class NoHealthyUpstream(Exception):
    """No endpoint available for a service (all missing or broken)."""


class Sidecar:
    """One pod's proxy."""

    def __init__(
        self,
        sim: Simulator,
        pod: Pod,
        service_name: str,
        config: MeshConfig,
        tracer: Tracer,
        telemetry: Telemetry,
        rng_registry,
        policy: PolicyHooks | None = None,
        dataplane=None,
    ):
        self.sim = sim
        self.pod = pod
        self.service_name = service_name
        self.config = config
        self._transport_spec = config.transport_spec()
        self.tracer = tracer
        self.telemetry = telemetry
        self.policy = policy if policy is not None else PolicyHooks()
        self.name = f"sidecar:{pod.name}"
        self._dist = Distributions(rng_registry.stream(self.name))
        # The data plane decides where proxy cost lands (repro.dataplane).
        # The control plane shares one plane mesh-wide; directly
        # constructed sidecars (tests) build their own.
        self._dataplane = (
            dataplane
            if dataplane is not None
            else make_data_plane(config, sim=sim, rng_registry=rng_registry)
        )
        # Per-message wire overhead the plane adds (mTLS records; zero
        # without a proxy on the path).
        self._msg_overhead = self._dataplane.message_overhead()
        # Control-plane-pushed state.
        self.endpoints: dict[str, list[Endpoint]] = {}
        self.routes = RouteTable(rng=rng_registry.stream(f"{self.name}:routes"))
        self.config_generation = 0
        # Data-plane state.
        self._lbs: dict[str, LoadBalancer] = {}
        self._pools: dict[tuple, list[ConnectionEnd]] = {}
        self._mux_channels: dict[tuple, object] = {}
        self._outliers: dict[str, object] = {}   # service -> OutlierDetector
        self._breakers: dict[str, CircuitBreaker] = {}
        self._app_handler: AppHandler | None = None
        self._inbound_queue: PriorityStore | None = None
        self._started = False
        # Overload posture (repro.overload): the bounded leveling queue
        # replaces the unbounded inbound queue, and the retry budget
        # caps retries as a fraction of in-flight requests.
        overload = getattr(config, "overload", None)
        self._overload = (
            overload if overload is not None and overload.enabled else None
        )
        self._leveling: LevelingQueue | None = None
        self._retry_budget: RetryBudget | None = None
        if (
            self._overload is not None
            and self._overload.retry_budget_ratio is not None
        ):
            self._retry_budget = RetryBudget(
                ratio=self._overload.retry_budget_ratio,
                min_retries=self._overload.retry_budget_min,
            )
        #: Optional :class:`repro.obs.resources.TrackedResource` for the
        #: inbound worker pool; set by the resource collector (None by
        #: default: zero overhead detached).
        self._worker_tracker = None
        # Telemetry local to this sidecar.
        self.requests_proxied = 0
        self.requests_shed = 0
        self.hedges_issued = 0
        self.hedges_cancelled = 0
        self.pool_connections_created = 0

    # ------------------------------------------------------------------
    # Layer attribution (repro.obs)
    # ------------------------------------------------------------------
    def _note(
        self,
        request,
        layer: str,
        start: float,
        end: float,
        component: str | None = None,
        components=None,
    ) -> None:
        """Report a layer interval for the request's root id to the
        attributor, when one is installed (no-op otherwise).

        ``component``/``components`` additionally tally the interval
        into the proxy layer's sub-attribution (repro.dataplane): either
        a single component name for the whole interval, or a pre-split
        ``[(component, seconds), ...]`` list from the cost model.

        The same intervals feed the service graph when a collector is
        attached: outbound intervals (the request names a *different*
        service) belong to the caller→callee edge, inbound proxy time
        lands on the node (the callee cannot name the caller).
        """
        if request is None:
            return
        if component is not None:
            components = ((component, end - start),)
        attributor = self.telemetry.attributor
        if attributor is not None:
            root = request.headers.get(REQUEST_ID)
            attributor.record(root, layer, start, end)
            if components is not None:
                attributor.record_components(root, components)
        graph = self.telemetry.graph
        if graph is None:
            return
        if request.service != self.service_name:
            graph.observe_layer(
                self.service_name, request.service, layer, end - start, end
            )
            if components is not None:
                graph.observe_components(
                    self.service_name, request.service, components
                )
        elif layer == LAYER_PROXY:
            graph.observe_node_proxy(self.service_name, end - start, end)

    def _traverse(self, request, phase: str, nbytes: int = 0,
                  peer_node: str | None = None):
        """One proxy traversal (generator): the installed data plane
        samples the decomposed §3.6 cost, attributes it to the proxy
        layer, and yields the delay — or nothing at all, when no proxy
        interposes at this ``phase`` (ambient local hops, no-mesh).
        Returns the data plane's generator itself, so a traversal adds
        no delegating frame to every resume."""
        return self._dataplane.traverse(
            self, request, phase, nbytes, peer_node=peer_node
        )

    # ------------------------------------------------------------------
    # Control-plane interface
    # ------------------------------------------------------------------
    def update_endpoints(self, service: str, endpoints: list[Endpoint]) -> None:
        self.endpoints[service] = list(endpoints)
        self.config_generation += 1

    def update_routes(self, service: str, rules) -> None:
        self.routes.set_rules(service, rules)
        self.config_generation += 1

    # ------------------------------------------------------------------
    # Inbound path
    # ------------------------------------------------------------------
    def set_app_handler(self, handler: AppHandler) -> None:
        self._app_handler = handler

    def start(self) -> None:
        """Begin accepting mesh traffic on the pod's mesh port."""
        if self._started:
            return
        self._started = True
        self.pod.stack.listen(MESH_PORT, self._on_accept)
        if self._overload is not None and self._overload.concurrency is not None:
            # Queue-based load leveling: a bounded priority buffer in
            # front of a fixed worker pool. Supersedes the legacy
            # unbounded inbound queue.
            self._leveling = LevelingQueue(
                self.sim,
                depth=self._overload.queue_depth,
                key=lambda item: item[0],
            )
            self._inbound_queue = self._leveling.store
            for index in range(self._overload.concurrency):
                self.sim.process(
                    self._inbound_worker(), name=f"{self.name}-worker{index}"
                )
        elif self.config.inbound_concurrency is not None:
            self._inbound_queue = PriorityStore(
                self.sim, key=lambda item: item[0]
            )
            for index in range(self.config.inbound_concurrency):
                self.sim.process(
                    self._inbound_worker(), name=f"{self.name}-worker{index}"
                )

    def enable_inbound_queue(self, concurrency: int) -> None:
        """Retrofit prioritized request queueing (§5): at most
        ``concurrency`` inbound requests execute at once; excess waits in
        a priority queue ordered by the policy's ``request_priority``."""
        if self._inbound_queue is not None:
            return
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self._inbound_queue = PriorityStore(self.sim, key=lambda item: item[0])
        for index in range(concurrency):
            self.sim.process(
                self._inbound_worker(), name=f"{self.name}-worker{index}"
            )

    def _on_accept(self, conn: ConnectionEnd) -> None:
        if getattr(conn, "alpn", "message") == "mux":
            self.sim.process(
                self._serve_mux_connection(conn), name=f"{self.name}-serve-mux"
            )
        else:
            self.sim.process(
                self._serve_connection(conn), name=f"{self.name}-serve"
            )

    def _plain_replier(self, conn: ConnectionEnd):
        def reply(response: HttpResponse) -> None:
            if not conn.closed:
                conn.send(response, response.wire_size() + self._msg_overhead)

        return reply

    def _serve_connection(self, conn: ConnectionEnd):
        """Plain (HTTP/1.1-like) serving: one request at a time per
        connection; the client pool provides concurrency."""
        reply = self._plain_replier(conn)
        while True:
            request, _size = yield conn.receive()
            # Inbound traversal. A connection always crosses nodes under
            # the ambient plane (node-local hops never reach the network),
            # so the peer is remote by construction: no peer_node hint.
            yield from self._traverse(
                request, "ingress-req", request.wire_size()
            )
            if not (yield from self._admit(request, reply)):
                continue
            if self._inbound_queue is None:
                yield from self._handle_inbound(request, reply)

    def _serve_mux_connection(self, conn: ConnectionEnd):
        """Multiplexed serving: streams are independent, so requests on
        one connection execute concurrently; responses go back on
        priority-scheduled streams (no head-of-line blocking)."""
        from ..transport import MuxConnection

        mux = MuxConnection(
            conn,
            chunk_bytes=self._transport_spec.mux_chunk_bytes,
            scheduler="priority",
        )
        while True:
            request, _size = yield mux.receive()
            priority = self.policy.request_priority(request)

            def make_reply(stream_priority):
                def reply(response: HttpResponse) -> None:
                    if not conn.closed:
                        mux.send(
                            response,
                            response.wire_size() + self._msg_overhead,
                            priority=stream_priority,
                        )

                return reply

            self.sim.process(
                self._serve_mux_request(request, make_reply(priority)),
                name=f"{self.name}-mux-request",
            )

    def _serve_mux_request(self, request: HttpRequest, reply):
        # Inbound traversal (remote by construction: see _serve_connection).
        yield from self._traverse(request, "ingress-req", request.wire_size())
        if not (yield from self._admit(request, reply)):
            return
        if self._inbound_queue is None:
            yield from self._handle_inbound(request, reply)

    def _admit(self, request: HttpRequest, reply):
        """Common admission: backpressure shedding + priority queueing.

        Returns True if the caller should run the handler inline (no
        queue configured); enqueued/shedded requests return False.
        """
        if self._inbound_queue is None:
            return True
        if self._leveling is not None:
            # Bounded load leveling: the queue itself decides. Either
            # the newcomer is rejected outright, or it displaces the
            # worst queued entry (which is then shed in its place).
            priority = self.policy.request_priority(request)
            outcome, displaced = self._leveling.offer((priority, request, reply))
            if outcome == REJECTED:
                self._shed_inbound(request, reply)
            elif displaced is not None:
                _vp, victim_request, victim_reply = displaced
                self._shed_inbound(victim_request, victim_reply)
            return False
        limit = self.config.max_inbound_queue
        if limit is not None and len(self._inbound_queue) >= limit:
            # Backpressure: shed load instead of queueing without
            # bound (§3.6). 503 is retryable upstream.
            self.requests_shed += 1
            reply(request.reply(HttpStatus.SERVICE_UNAVAILABLE))
            return False
        priority = self.policy.request_priority(request)
        yield self._inbound_queue.put((priority, request, reply))
        return False

    def _shed_inbound(self, request: HttpRequest, reply) -> None:
        """Answer an overload-rejected inbound request with the shed
        status (429: not retryable, so the load leaves the system)."""
        self.requests_shed += 1
        self.telemetry.record_overload_rejection(self.service_name)
        reply(request.reply(self._overload.shed_status))

    def _inbound_worker(self):
        while True:
            _priority, request, reply = yield self._inbound_queue.get()
            tracker = self._worker_tracker
            if tracker is None:
                yield from self._handle_inbound(request, reply)
                continue
            tracker.busy_acquire(self.sim.now, len(self._inbound_queue))
            try:
                yield from self._handle_inbound(request, reply)
            finally:
                tracker.busy_release(self.sim.now, len(self._inbound_queue))

    def _handle_inbound(self, request: HttpRequest, reply):
        serve_start = self.sim.now
        span = self.tracer.start_span(
            trace_id=request.headers.get(TRACE_ID, "untraced"),
            service=self.service_name,
            operation=f"server:{request.path}",
            now=self.sim.now,
            parent_span_id=request.headers.get(SPAN_ID),
            priority=request.headers.get(PRIORITY),
        )
        if self._app_handler is None:
            response = request.reply(HttpStatus.NOT_FOUND)
        else:
            # Children the app spawns nest under this server span.
            request.headers[SPAN_ID] = span.span_id
            try:
                response = yield from self._app_handler(request)
            except Exception:
                response = request.reply(HttpStatus.INTERNAL_ERROR)
        # Response traversal: always charged (the callee-side proxy
        # carries the response out whether the caller is local or not).
        yield from self._traverse(request, "ingress-resp", response.wire_size())
        span.finish(self.sim.now, status=response.status)
        self.tracer.record(span)
        if self.telemetry.graph is not None:
            # Server timing: lets the caller split the hop's latency
            # into "the callee's time" vs "the wire's" per graph edge.
            response.headers[SERVER_TIMING] = f"{self.sim.now - serve_start:.9f}"
        reply(response)

    # ------------------------------------------------------------------
    # Outbound path
    # ------------------------------------------------------------------
    def request(
        self, request: HttpRequest, timeout: float | None = None
    ):
        """Issue ``request``; returns an event carrying the HttpResponse.

        This is the service-mesh API of §3.1: the caller names a service,
        not an address, and the sidecar does the rest.
        """
        result = self.sim.event(name=f"response-{request.message_id}")
        self.sim.process(
            self._request_process(request, result, timeout),
            name=f"{self.name}-request",
        )
        return result

    def _prepare_headers(self, request: HttpRequest) -> None:
        if REQUEST_ID not in request.headers:
            request.headers[REQUEST_ID] = self.tracer.ids.request_id()
        if TRACE_ID not in request.headers:
            request.headers[TRACE_ID] = self.tracer.ids.trace_id()

    def _request_process(self, request, result, timeout):
        self._prepare_headers(request)
        self.requests_proxied += 1
        if self._retry_budget is not None:
            self._retry_budget.request_started()
        start = self.sim.now
        deadline = start + (timeout if timeout is not None else self.config.default_timeout)
        span = self.tracer.start_span(
            trace_id=request.headers[TRACE_ID],
            service=self.service_name,
            operation=f"client:{request.service}{request.path}",
            now=start,
            parent_span_id=request.headers.get(SPAN_ID),
            priority=request.headers.get(PRIORITY),
        )
        child_headers = request.headers.copy()
        child_headers[SPAN_ID] = span.span_id
        request.headers = child_headers

        # Fault injection (Istio VirtualService faults): applied once per
        # logical request, upstream of retries/hedges. The same rule also
        # carries the per-route resilience overrides.
        rule = self.routes.matching_rule(request)
        fault = rule.fault if rule is not None else None
        if timeout is None and rule is not None and rule.timeout is not None:
            deadline = min(deadline, start + rule.timeout)
        retry_policy = self.config.retry
        if rule is not None and rule.retry is not None:
            retry_policy = rule.retry
        aborted = None
        if fault is not None:
            delay = fault.sample_delay(self._dist.rng)
            if delay > 0:
                self._note(
                    request, LAYER_RETRY, self.sim.now, self.sim.now + delay
                )
                yield self.sim.timeout(delay)
            aborted = fault.sample_abort(self._dist.rng)

        hedge = self.config.hedge
        upstream_seconds = 0.0
        if aborted is not None:
            response, retries, endpoint = request.reply(aborted), 0, None
        elif (
            hedge is not None
            and hedge.max_hedges > 0
            and hedge.applies_to(request.headers.get(PRIORITY))
        ):
            response, retries, endpoint = yield from self._hedged_request(
                request, deadline, hedge
            )
        else:
            (
                response,
                retries,
                endpoint,
                upstream_seconds,
            ) = yield from self._retried_request(request, deadline, retry_policy)

        latency = self.sim.now - start
        span.finish(self.sim.now, status=response.status, retries=retries)
        self.tracer.record(span)
        server_seconds = None
        if self.telemetry.graph is not None:
            # Total callee serving time across *every* attempt (failed
            # tries included), so the edge's wire residual never counts
            # seconds the callee legitimately spent working.
            timing = response.headers.get(SERVER_TIMING)
            if timing is not None:
                server_seconds = float(timing) + upstream_seconds
            elif upstream_seconds > 0.0:
                server_seconds = upstream_seconds
        self.telemetry.record_request(
            RequestRecord(
                time=self.sim.now,
                source=self.service_name,
                destination=request.service,
                latency=latency,
                status=response.status,
                priority=request.headers.get(PRIORITY),
                retries=retries,
                endpoint=endpoint.pod_name if endpoint is not None else None,
                request_class=workload_class(
                    request.headers.get(WORKLOAD_HEADER)
                ),
                server_seconds=server_seconds,
            )
        )
        if self._retry_budget is not None:
            self._retry_budget.request_finished()
        result.succeed(response)

    def _retried_request(self, request, deadline, policy):
        """Retry loop under ``policy`` (the mesh-wide budget or a
        per-route override). Returns
        (response, retries_used, endpoint|None, upstream_seconds) —
        the last being the callee serving time of *failed* attempts
        (stamped server-timing headers), which the caller folds into
        the logical record so graph wire accounting stays
        edge-exclusive under retries.

        Budget exhaustion surfaces the *last real error* (e.g. the 503
        that kept us retrying), not a synthetic 504 — only a run with no
        response at all maps to GATEWAY_TIMEOUT.

        When the mesh carries a retry budget (``overload.retry_budget_*``)
        every retry must first claim a token; a denied claim ends the
        loop with whatever response we have. The token is held through
        the backoff and the retried attempt, so the budget bounds
        retries genuinely in flight.
        """
        budget = self._retry_budget
        holding = False
        response = None
        endpoint = None
        attempt = 0
        upstream_seconds = 0.0
        for attempt in range(1, policy.max_attempts + 1):
            if holding:
                # The retry the previous iteration paid for is now done
                # (or about to start its attempt): settle the token at a
                # single point so every exit path below is covered.
                budget.release()
                holding = False
            remaining = deadline - self.sim.now
            if remaining <= 0:
                if response is None:
                    response = request.reply(HttpStatus.GATEWAY_TIMEOUT)
                return response, attempt - 1, endpoint, upstream_seconds
            per_try = remaining
            if policy.per_try_timeout is not None:
                per_try = min(per_try, policy.per_try_timeout)
            try:
                endpoint = self._pick_endpoint(request)
            except NoHealthyUpstream:
                response = request.reply(HttpStatus.SERVICE_UNAVAILABLE)
                if policy.should_retry(attempt, response.status):
                    if budget is not None and not budget.try_acquire():
                        self.telemetry.record_retry_denied()
                        return response, attempt - 1, None, upstream_seconds
                    holding = budget is not None
                    backoff = policy.backoff(attempt, self._dist.rng)
                    self._note(
                        request, LAYER_RETRY, self.sim.now, self.sim.now + backoff
                    )
                    yield self.sim.timeout(backoff)
                    continue
                return response, attempt - 1, None, upstream_seconds
            attempt_start = self.sim.now
            outcome = yield from self._try_once(request, endpoint, per_try)
            status = outcome.status if outcome is not None else None
            graph = self.telemetry.graph
            if graph is not None and (outcome is None or outcome.retryable):
                # A failed attempt: the time it burned is retry cost on
                # this edge of the service graph (the attributor's
                # per-request sweep already classifies it its own way).
                # Edge-exclusive: subtract the time the callee reports
                # it spent serving the failed try — that pain belongs
                # to the callee's own outbound edges, not this one.
                burned = self.sim.now - attempt_start
                if outcome is not None:
                    timing = outcome.headers.get(SERVER_TIMING)
                    if timing is not None:
                        served = float(timing)
                        upstream_seconds += served
                        burned = max(0.0, burned - served)
                graph.observe_layer(
                    self.service_name,
                    request.service,
                    LAYER_RETRY,
                    burned,
                    self.sim.now,
                )
            self._update_breaker(endpoint, status, service=request.service)
            if outcome is not None and not outcome.retryable:
                return outcome, attempt - 1, endpoint, upstream_seconds
            if outcome is not None:
                response = outcome
            if not policy.should_retry(attempt, status):
                break
            if budget is not None and not budget.try_acquire():
                self.telemetry.record_retry_denied()
                break
            holding = budget is not None
            backoff = policy.backoff(attempt, self._dist.rng)
            self._note(request, LAYER_RETRY, self.sim.now, self.sim.now + backoff)
            yield self.sim.timeout(backoff)
        if holding:
            budget.release()
        if response is None:
            response = request.reply(HttpStatus.GATEWAY_TIMEOUT)
        return response, attempt - 1, endpoint, upstream_seconds

    def _hedged_request(self, request, deadline, hedge):
        """Primary try plus up to ``max_hedges`` duplicates after a delay;
        the first usable (non-retryable) response wins and still-pending
        losers are cancelled (§3.4, redundancy for tail latency)."""
        tries = [
            self.sim.process(
                self._single_try_process(request, deadline),
                name=f"{self.name}-try0",
            )
        ]
        hedge_wait_start = self.sim.now
        yield self.sim.deadline(tries[0], hedge.delay)
        if tries[0].processed:
            response, endpoint = tries[0].value
            if response is not None and not response.retryable:
                return response, 0, endpoint
        # The primary try did not win within the hedge delay: the time
        # spent holding back the duplicate is hedge wait (§3.4).
        self._note(request, LAYER_RETRY, hedge_wait_start, self.sim.now)
        for index in range(hedge.max_hedges):
            self.hedges_issued += 1
            tries.append(
                self.sim.process(
                    self._single_try_process(request, deadline),
                    name=f"{self.name}-try{index + 1}",
                )
            )
        while True:
            fallback = None
            for try_proc in tries:
                if not try_proc.processed:
                    continue
                response, endpoint = try_proc.value
                if response is None:
                    continue
                if not response.retryable:
                    self._cancel_losers(tries, try_proc)
                    return response, 0, endpoint
                if fallback is None:
                    fallback = (response, endpoint)
            pending = [t for t in tries if not t.processed]
            if not pending:
                # All tries settled without a clean win: surface the best
                # error we saw rather than a synthetic 504.
                if fallback is not None:
                    return fallback[0], 0, fallback[1]
                self.telemetry.record_timeout(
                    destination=request.service, now=self.sim.now
                )
                return request.reply(HttpStatus.GATEWAY_TIMEOUT), 0, None
            yield self.sim.any_of(pending)

    def _cancel_losers(self, tries, winner) -> None:
        """Interrupt still-running hedge tries once a winner is in."""
        for try_proc in tries:
            if try_proc is not winner and try_proc.is_alive:
                try_proc.interrupt("hedge-winner")
                self.hedges_cancelled += 1

    def _single_try_process(self, request, deadline):
        """One endpoint pick + try, for hedging. Returns (response|None, ep)."""
        try:
            endpoint = self._pick_endpoint(request)
        except NoHealthyUpstream:
            return request.reply(HttpStatus.SERVICE_UNAVAILABLE), None
        per_try = max(deadline - self.sim.now, 1e-6)
        try:
            response = yield from self._try_once(request, endpoint, per_try)
        except Interrupt:
            # A hedge sibling won; this try was abandoned mid-flight.
            # No breaker update: an interrupted try says nothing about
            # the endpoint's health.
            return None, None
        self._update_breaker(
            endpoint,
            response.status if response else None,
            service=request.service,
        )
        return response, endpoint

    # -- endpoint selection -------------------------------------------------
    def _lb_for(self, service: str) -> LoadBalancer:
        lb = self._lbs.get(service)
        if lb is None:
            if self.config.lb_factory is not None:
                lb = self.config.lb_factory(self)
            elif self.config.lb_name == "locality":
                from .loadbalancer import LocalityAwareLB

                lb = LocalityAwareLB(self.pod.node.name)
            else:
                lb = make_lb(self.config.lb_name, rng=self._dist.rng)
            self._lbs[service] = lb
        return lb

    def _breaker_for(self, endpoint: Endpoint) -> CircuitBreaker:
        breaker = self._breakers.get(endpoint.ip)
        if breaker is None:
            breaker = CircuitBreaker(clock=lambda: self.sim.now)
            self._breakers[endpoint.ip] = breaker
        return breaker

    def _outlier_for(self, service: str):
        if self.config.outlier is None:
            return None
        detector = self._outliers.get(service)
        if detector is None:
            from .outlier import OutlierDetector

            detector = OutlierDetector(self.config.outlier)
            self._outliers[service] = detector
        return detector

    def _pick_endpoint(self, request: HttpRequest) -> Endpoint:
        destination = self.routes.resolve(request)
        candidates = self.endpoints.get(request.service, [])
        labels = destination.subset_labels
        if labels:
            candidates = [
                e
                for e in candidates
                if all(e.label_dict.get(k) == v for k, v in labels.items())
            ]
        available = [e for e in candidates if self._breaker_for(e).allow()]
        detector = self._outlier_for(request.service)
        if detector is not None and available:
            healthy_ips = set(
                detector.filter_healthy([e.ip for e in available], self.sim.now)
            )
            filtered = [e for e in available if e.ip in healthy_ips]
            if filtered:
                available = filtered
        if not available:
            if candidates:
                self.telemetry.record_breaker_rejection()
            raise NoHealthyUpstream(request.service)
        return self._lb_for(request.service).pick(available)

    def _update_breaker(
        self, endpoint: Endpoint, status: int | None, service: str | None = None
    ) -> None:
        breaker = self._breaker_for(endpoint)
        ok = status is not None and status < 500
        if ok:
            breaker.on_success()
        else:
            breaker.on_failure()
        if service is not None:
            detector = self._outlier_for(service)
            if detector is not None:
                detector.record(endpoint.ip, ok, self.sim.now)

    # -- a single network try -------------------------------------------------
    def _try_once(self, request, endpoint: Endpoint, per_try: float):
        """Send the request to one endpoint, await the response or a
        timeout. Returns HttpResponse or None on timeout/connect failure."""
        target = self._dataplane.local_sidecar(self, endpoint)
        if target is not None:
            result = yield from self._local_try_once(
                request, target, endpoint, per_try
            )
            return result
        if self._transport_spec.mux:
            result = yield from self._mux_try_once(request, endpoint, per_try)
            return result
        params = self.policy.transport_params(request)
        lb = self._lb_for(request.service)
        lb.on_request_start(endpoint)
        started = self.sim.now
        try:
            conn = yield from self._acquire_connection(
                endpoint, params, per_try, request=request
            )
        except (ConnectionError, TimeoutError):
            lb.on_request_end(endpoint, self.sim.now - started, ok=False)
            return None
        except Interrupt:
            lb.on_request_end(endpoint, self.sim.now - started, ok=False)
            raise
        # Map the connection's flow to this request so qdisc waits on
        # its packets (both directions) attribute to the right root.
        attributor = self.telemetry.attributor
        graph = self.telemetry.graph
        root = request.headers.get(REQUEST_ID)
        if attributor is not None:
            attributor.claim_flow(conn.flow_id, root)
        if graph is not None:
            graph.claim_flow(conn.flow_id, self.service_name, request.service)
        get = None
        try:
            # Outbound traversal.
            yield from self._traverse(request, "egress-req", request.wire_size())
            conn.send(request, request.wire_size() + self._msg_overhead)
            get = conn.receive()
            yield self.sim.deadline(get, per_try)
            if get.processed and get.ok:
                response, _size = get.value
                # Response traversal back through the caller-side proxy.
                yield from self._traverse(
                    request, "egress-resp", response.wire_size(),
                    peer_node=endpoint.node,
                )
                self._release_connection(endpoint, params, conn)
                lb.on_request_end(endpoint, self.sim.now - started, ok=True)
                return response
        except Interrupt:
            # Cancelled (hedge loser): tear the exchange down, then let
            # the interruption propagate. Not a timeout — no telemetry.
            if get is not None:
                conn.inbox.cancel(get)
            conn.close()
            self.pod.stack.drop_flow(conn.flow_id)
            lb.on_request_end(endpoint, self.sim.now - started, ok=False)
            raise
        finally:
            if attributor is not None:
                attributor.release_flow(conn.flow_id, root)
            if graph is not None:
                graph.release_flow(conn.flow_id)
        # Timed out: the connection has an orphaned in-flight exchange.
        conn.inbox.cancel(get)
        conn.close()
        self.pod.stack.drop_flow(conn.flow_id)
        lb.on_request_end(endpoint, self.sim.now - started, ok=False)
        self.telemetry.record_timeout(
            destination=request.service, now=self.sim.now
        )
        return None

    def _mux_try_once(self, request, endpoint: Endpoint, per_try: float):
        """One try over the shared multiplexed channel (§3.6): the
        request gets its own priority-scheduled stream; a timeout only
        abandons the stream, never the channel."""
        from .muxchannel import MuxChannel

        params = self.policy.transport_params(request)
        lb = self._lb_for(request.service)
        lb.on_request_start(endpoint)
        started = self.sim.now
        key = self._pool_key(endpoint, params)
        channel = self._mux_channels.get(key)
        if channel is None or channel.closed:
            # Created synchronously (sends buffer until the handshake
            # completes) so concurrent requests share one channel.
            conn = self.pod.stack.connect(
                endpoint.ip,
                MESH_PORT,
                tos=params.tos,
                cc_name=params.cc_name,
                name=f"{self.name}->{endpoint.pod_name}",
                alpn="mux",
            )
            self.pool_connections_created += 1
            channel = MuxChannel(
                self.sim, conn, chunk_bytes=self._transport_spec.mux_chunk_bytes
            )
            self._mux_channels[key] = channel
        # Mux streams share one flow: the last claimant wins, which is
        # an approximation but keeps queue wait attributed to a live
        # root rather than dropped on the floor.
        attributor = self.telemetry.attributor
        graph = self.telemetry.graph
        root = request.headers.get(REQUEST_ID)
        if attributor is not None:
            attributor.claim_flow(channel.conn.flow_id, root)
        if graph is not None:
            graph.claim_flow(
                channel.conn.flow_id, self.service_name, request.service
            )
        event = None
        try:
            # Outbound traversal.
            yield from self._traverse(request, "egress-req", request.wire_size())
            priority = self.policy.request_priority(request)
            event = channel.request(
                request,
                request.wire_size() + self._msg_overhead,
                priority,
            )
            yield self.sim.deadline(event, per_try)
            if event.processed and event.ok:
                response = event.value
                # Response traversal back through the caller-side proxy.
                yield from self._traverse(
                    request, "egress-resp", response.wire_size(),
                    peer_node=endpoint.node,
                )
                lb.on_request_end(endpoint, self.sim.now - started, ok=True)
                return response
        except Interrupt:
            # Cancelled (hedge loser): abandon the stream, keep the
            # channel, and propagate. Not a timeout — no telemetry.
            if event is not None:
                channel.abandon(request)
            lb.on_request_end(endpoint, self.sim.now - started, ok=False)
            raise
        finally:
            if attributor is not None:
                attributor.release_flow(channel.conn.flow_id, root)
            if graph is not None:
                graph.release_flow(channel.conn.flow_id)
        channel.abandon(request)
        lb.on_request_end(endpoint, self.sim.now - started, ok=False)
        self.telemetry.record_timeout(
            destination=request.service, now=self.sim.now
        )
        return None

    # -- connection pool --------------------------------------------------
    def _pool_key(self, endpoint: Endpoint, params: TransportParams) -> tuple:
        return (endpoint.ip, endpoint.port, params.tos, params.cc_name)

    def _acquire_connection(self, endpoint, params, budget: float, request=None):
        key = self._pool_key(endpoint, params)
        pool = self._pools.setdefault(key, [])
        while pool:
            conn = pool.pop()
            if not conn.closed:
                return conn
        conn = yield from self._open_connection(
            endpoint, params, budget, request=request
        )
        return conn

    def _open_connection(
        self, endpoint, params, budget: float, alpn: str = "message", request=None
    ):
        conn = self.pod.stack.connect(
            endpoint.ip,
            MESH_PORT,
            tos=params.tos,
            cc_name=params.cc_name,
            name=f"{self.name}->{endpoint.pod_name}",
            alpn=alpn,
        )
        self.pool_connections_created += 1
        connect_start = self.sim.now
        try:
            yield self.sim.deadline(conn.established, budget)
        except Interrupt:
            conn.close()
            self.pod.stack.drop_flow(conn.flow_id)
            raise
        if not conn.established.processed:
            conn.close()
            self.pod.stack.drop_flow(conn.flow_id)
            raise TimeoutError("connect timed out")
        if not conn.established.ok:
            raise ConnectionError("connect failed")
        # Proxy costs on a fresh connection — mTLS handshake, pool
        # extras — are the data plane's to charge (nothing under "none").
        yield from self._dataplane.connect_overhead(self, request, connect_start)
        return conn

    def _release_connection(self, endpoint, params, conn) -> None:
        if conn.closed:
            return
        self._pools.setdefault(self._pool_key(endpoint, params), []).append(conn)

    # -- node-local delivery (ambient data plane) -------------------------
    def local_submit(self, request: HttpRequest):
        """Serve a node-local request without a connection (ambient):
        the caller's node proxy already carried the bytes; admission,
        queueing, and the app handler run exactly as for a wire arrival.
        Returns an event carrying the HttpResponse."""
        event = self.sim.event(name=f"local-{request.message_id}")

        def reply(response: HttpResponse) -> None:
            # The caller may have timed out (or lost a hedge race) and
            # stopped listening; a settled event stays settled.
            if not event.triggered:
                event.succeed(response)

        self.sim.process(
            self._serve_local(request, reply), name=f"{self.name}-serve-local"
        )
        return event

    def _serve_local(self, request: HttpRequest, reply):
        # Inbound traversal with a known-local peer: the ambient plane
        # skips it (the shared node proxy was paid on egress).
        yield from self._traverse(
            request, "ingress-req", request.wire_size(),
            peer_node=self.pod.node.name,
        )
        if not (yield from self._admit(request, reply)):
            return
        if self._inbound_queue is None:
            yield from self._handle_inbound(request, reply)

    def _local_try_once(self, request, target: "Sidecar",
                        endpoint: Endpoint, per_try: float):
        """One node-local try: traverse the shared node proxy out, hand
        the request to the co-located sidecar in-process, await the
        reply. No connection, no wire, no flow to claim."""
        lb = self._lb_for(request.service)
        lb.on_request_start(endpoint)
        started = self.sim.now
        try:
            yield from self._traverse(
                request, "egress-req", request.wire_size()
            )
            event = target.local_submit(request)
            yield self.sim.deadline(event, per_try)
        except Interrupt:
            # Cancelled (hedge loser): the callee finishes on its own
            # and replies into a settled/abandoned event.
            lb.on_request_end(endpoint, self.sim.now - started, ok=False)
            raise
        if event.processed and event.ok:
            response = event.value
            # Known-local response: the plane skips the egress-resp
            # traversal (the callee's node proxy carried it already).
            yield from self._traverse(
                request, "egress-resp", response.wire_size(),
                peer_node=endpoint.node,
            )
            lb.on_request_end(endpoint, self.sim.now - started, ok=True)
            return response
        lb.on_request_end(endpoint, self.sim.now - started, ok=False)
        self.telemetry.record_timeout(
            destination=request.service, now=self.sim.now
        )
        return None

    # -- misc -----------------------------------------------------------------
    def __repr__(self):
        return f"<Sidecar {self.pod.name} services={len(self.endpoints)}>"
