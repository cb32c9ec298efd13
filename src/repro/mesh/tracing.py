"""Distributed tracing: spans, traces, and provenance queries.

Sidecars create a span for every request they proxy; spans sharing a
trace id form the distributed trace of one end-to-end request. This is
the mechanism the paper's design rides on (§4.2 component 2): the
provenance of every internal request — which external request caused it —
is exactly what the trace records, and what the priority header encodes
in-band.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import warnings
from dataclasses import dataclass, field


class IdAllocator:
    """Per-simulation source of trace/span/request ids.

    Ids used to come from module-global ``itertools.count`` objects — a
    determinism hazard: the ids a run emits depended on how many runs had
    already executed in the same process, so back-to-back runs of the
    same seed produced different traces. Each simulation now owns one
    allocator (via its mesh's :class:`Tracer`), making id sequences a
    pure function of the run itself.
    """

    def __init__(self):
        self._trace = itertools.count(1)
        self._span = itertools.count(1)
        self._request = itertools.count(1)

    def trace_id(self) -> str:
        return f"trace-{next(self._trace):08x}"

    def span_id(self) -> str:
        return f"span-{next(self._span):08x}"

    def request_id(self) -> str:
        return f"req-{next(self._request):010d}"


#: Process-wide fallback for code that calls the module-level helpers
#: below (kept for back-compat; simulation code paths use per-mesh
#: allocators and never touch this).
_default_ids = IdAllocator()


def new_trace_id() -> str:
    return _default_ids.trace_id()


def new_span_id() -> str:
    return _default_ids.span_id()


def _stable_hash(text: str) -> int:
    """Process-independent string hash (``hash()`` is salted per process,
    which would make sampling decisions differ between workers)."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@dataclass(slots=True)
class Span:
    """Metadata about one request's execution within one proxy hop."""

    trace_id: str
    span_id: str
    parent_span_id: str | None
    service: str
    operation: str
    start_time: float
    end_time: float | None = None
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.end_time is None:
            return None
        return self.end_time - self.start_time

    def finish(self, now: float, **tags) -> None:
        self.end_time = now
        self.tags.update(tags)


@dataclass
class Trace:
    """All spans of one end-to-end request."""

    trace_id: str
    spans: list[Span] = field(default_factory=list)

    @property
    def root(self) -> Span | None:
        for span in self.spans:
            if span.parent_span_id is None:
                return span
        return None

    @property
    def services(self) -> set[str]:
        return {span.service for span in self.spans}

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_span_id == span.span_id]

    def critical_path(self) -> list[Span]:
        """The chain of spans ending latest under each parent — the path
        that determined the end-to-end latency."""
        root = self.root
        if root is None:
            return []
        path = [root]
        current = root
        while True:
            children = [
                s for s in self.children_of(current) if s.end_time is not None
            ]
            if not children:
                return path
            current = max(children, key=lambda s: s.end_time)
            path.append(current)

    @property
    def duration(self) -> float | None:
        root = self.root
        return root.duration if root is not None else None


class Tracer:
    """Collects spans and assembles traces (the mesh's telemetry backend).

    ``sample_rate`` < 1.0 keeps only that fraction of traces, decided per
    trace id (head-based sampling, like Istio's).

    ``tail_keep`` opts into *tail-based* sampling: once a trace
    completes (its root span is recorded), it is retained only if it is
    among the ``tail_keep`` slowest of its workload class (keyed by the
    root span's operation) or if any of its spans errored or retried —
    the traces worth keeping at scale.  Everything else is evicted, so
    tracer memory is bounded by ``classes x tail_keep`` plus the
    error/retry population, mirroring the ``Telemetry(max_records=)``
    warn-once ring-buffer posture.
    """

    def __init__(
        self,
        sample_rate: float = 1.0,
        max_traces: int | None = None,
        ids: IdAllocator | None = None,
        tail_keep: int | None = None,
    ):
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        if tail_keep is not None and tail_keep < 1:
            raise ValueError("tail_keep must be >= 1 (or None to disable)")
        self.sample_rate = sample_rate
        self.max_traces = max_traces
        self.tail_keep = tail_keep
        self.ids = ids if ids is not None else IdAllocator()
        self._traces: dict[str, Trace] = {}
        self._sampled: dict[str, bool] = {}
        self.spans_recorded = 0
        self.spans_dropped = 0
        # Tail sampling state: per-class min-heap of (duration, trace_id)
        # for the kept slow traces; hot (errored/retried) traces bypass it.
        self._tail_heaps: dict[str, list[tuple[float, str]]] = {}
        self._tail_warned = False
        self.traces_evicted = 0
        self.spans_evicted = 0

    def _is_sampled(self, trace_id: str) -> bool:
        decision = self._sampled.get(trace_id)
        if decision is None:
            if self.sample_rate >= 1.0:
                decision = True
            elif self.sample_rate <= 0.0:
                decision = False
            else:
                # Deterministic hash-based decision keeps the whole trace.
                decision = (
                    _stable_hash(trace_id) % 10_000
                ) < self.sample_rate * 10_000
            self._sampled[trace_id] = decision
        return decision

    def start_span(
        self,
        trace_id: str,
        service: str,
        operation: str,
        now: float,
        parent_span_id: str | None = None,
        **tags,
    ) -> Span:
        span = Span(
            trace_id=trace_id,
            span_id=self.ids.span_id(),
            parent_span_id=parent_span_id,
            service=service,
            operation=operation,
            start_time=now,
            tags=dict(tags),
        )
        return span

    def record(self, span: Span) -> None:
        """Store a finished span (if its trace is sampled)."""
        if not self._is_sampled(span.trace_id):
            self.spans_dropped += 1
            return
        if self.max_traces is not None and span.trace_id not in self._traces:
            if len(self._traces) >= self.max_traces:
                self.spans_dropped += 1
                return
        trace = self._traces.setdefault(span.trace_id, Trace(span.trace_id))
        trace.spans.append(span)
        self.spans_recorded += 1
        if self.tail_keep is not None and span.parent_span_id is None:
            # The root span closes last: the trace is complete, decide
            # its retention now.
            self._tail_decide(trace, span)

    # -- tail-based sampling ------------------------------------------

    @staticmethod
    def _is_hot(trace: Trace) -> bool:
        """Errored or retried traces are always worth keeping."""
        for span in trace.spans:
            status = span.tags.get("status")
            if status is not None and status >= 400:
                return True
            if span.tags.get("retries"):
                return True
        return False

    def _tail_decide(self, trace: Trace, root: Span) -> None:
        if self._is_hot(trace):
            return
        heap = self._tail_heaps.setdefault(root.operation, [])
        duration = root.duration if root.duration is not None else 0.0
        entry = (duration, trace.trace_id)
        if len(heap) < self.tail_keep:
            heapq.heappush(heap, entry)
            return
        if entry <= heap[0]:
            # Faster than every kept trace of its class: evict itself.
            self._tail_evict(trace.trace_id)
            return
        _duration, evicted_id = heapq.heapreplace(heap, entry)
        self._tail_evict(evicted_id)

    def _tail_evict(self, trace_id: str) -> None:
        trace = self._traces.pop(trace_id, None)
        if trace is None:
            return
        self.traces_evicted += 1
        self.spans_evicted += len(trace.spans)
        if not self._tail_warned:
            self._tail_warned = True
            warnings.warn(
                f"Tracer tail sampling active: keeping the {self.tail_keep} "
                "slowest traces per workload class plus all errored/retried "
                "traces; faster traces are evicted (counts in "
                "traces_evicted/spans_evicted).",
                RuntimeWarning,
                stacklevel=3,
            )

    def trace(self, trace_id: str) -> Trace | None:
        return self._traces.get(trace_id)

    @property
    def traces(self) -> list[Trace]:
        return list(self._traces.values())

    def traces_through(self, service: str) -> list[Trace]:
        """Traces that touched ``service`` — the visibility query of §3.2."""
        return [t for t in self._traces.values() if service in t.services]
