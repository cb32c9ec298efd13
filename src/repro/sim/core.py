"""The discrete-event simulator kernel.

One time-ordered heap of flat ``(when, seq, fn, args)`` entries,
dispatched one at a time; time is a float in seconds. A timer
(:meth:`Simulator.call_later`) pushes its callback and argument tuple
and runs as ``fn(*args)``; a triggered event pushes itself with
``args=None`` and runs as ``event._process()``. The unique tie-break
``seq`` dispatches equal-time entries in scheduling order. Timers cannot
be cancelled: an owner that supersedes its timers passes a token in
``args`` and the stale timer returns on a mismatch.

An entry nobody waits on is never pushed: a process exit with no
callbacks settles in place, and ``Store.put_nowait`` stores without a
put event. A process starts through a timer, not a bootstrap event.
"""

from __future__ import annotations

import heapq
import time
from types import FunctionType, MethodType
from typing import Callable, Iterable

from .errors import StopSimulation
from .events import AllOf, AnyOf, Deadline, Event, Timeout
from .process import Process


def _make_profiled_hooks(sim: "Simulator", profiler):
    """Build the self-profiling dispatch hooks (``step``, ``_advance``).

    Closures rather than methods so every hot name — the heap, the
    profiler's count/second tables, the key cache — is a local.  Per
    entry the loop reduces the callee to a hashable key with plain type
    checks (``getattr`` with a missed attribute costs ~10x a hit, so no
    speculative lookups), resolves the section through the key cache,
    and bumps its count.  A call entry is keyed by its ``fn``; an event
    entry by ``event.callbacks[0]``.  Either way a process resume
    (including its start, which is a call entry) is keyed by its
    generator's code, not by ``Process``.  Only every ``timing_stride``-th
    entry pays the ``perf_counter`` pair (in ``timed``); explicit
    sections observe the ``_timing`` flag and skip their own timing on
    unsampled dispatches.

    ``_advance`` fuses the dispatch body straight into the run loop —
    no per-event ``step()`` frame — which pays back a large share of
    the instrumentation cost.  ``step`` wraps the same body for direct
    single-event callers; the two must stay in sync.
    """
    heappop = heapq.heappop
    perf_counter = time.perf_counter
    queue = sim._queue
    cache = profiler._key_cache
    classify = profiler._classify
    extra_counts = profiler._extra_counts
    extra_seconds = profiler._extra_seconds
    stride = profiler.timing_stride
    tick = 0
    profiler._timing = False

    def timed(fn, args) -> float:
        """Dispatch one sampled entry; return its exclusive seconds."""
        profiler._timing = True
        profiler._child = 0.0
        start = perf_counter()
        if args is None:
            fn._process()
        else:
            fn(*args)
        elapsed = perf_counter() - start
        profiler._timing = False
        return elapsed - profiler._child

    def advance(deadline: float) -> None:
        nonlocal tick
        while queue and queue[0][0] < deadline:
            when, _seq, fn, args = heappop(queue)
            sim._now = when
            sim._event_count += 1
            # Branches ordered by observed frequency: scheduled calls
            # dominate (packet timers), then process resumes.
            if args is not None:
                cls = fn.__class__
                if cls is MethodType:
                    obj = fn.__self__
                    # A process start or replay: its generator's code.
                    key = (
                        obj._generator.gi_code
                        if obj.__class__ is Process
                        else obj.__class__
                    )
                elif cls is FunctionType:
                    key = fn.__code__
                else:
                    key = cls
            elif fn.callbacks:
                owner = fn.callbacks[0]
                cls = owner.__class__
                if cls is MethodType:
                    obj = owner.__self__
                    # Process resume: attribute to the generator's code.
                    key = (
                        obj._generator.gi_code
                        if obj.__class__ is Process
                        else obj.__class__
                    )
                elif cls is FunctionType:
                    # Keyed by code object: closures are re-created per
                    # call site, their code is shared.
                    key = owner.__code__
                else:
                    key = cls
            else:
                key = None
            try:
                cell = cache[key]
            except KeyError:
                cell = classify(key)
            cell[0] += 1
            tick += 1
            if tick >= stride:
                tick = 0
                cell[1] += timed(fn, args)
            elif args is None:
                fn._process()
            else:
                fn(*args)

    def step() -> None:
        # Single-entry mirror of the fused loop for direct callers
        # (``run(until=<Event>)``, tests).  Off the hot path, so it
        # classifies through the uncached slow path and accumulates
        # into the section-keyed extras.
        nonlocal tick
        when, _seq, fn, args = heappop(queue)
        sim._now = when
        sim._event_count += 1
        owner = fn if args is not None else (fn.callbacks or [None])[0]
        section = profiler._section_of(owner)
        extra_counts[section] = extra_counts.get(section, 0) + 1
        tick += 1
        if tick >= stride:
            tick = 0
            extra_seconds[section] = extra_seconds.get(section, 0.0) + timed(fn, args)
        elif args is None:
            fn._process()
        else:
            fn(*args)

    return step, advance


class Simulator:
    """A discrete-event simulation kernel.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.0 and proc.value == "done"
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: list = []
        self._sequence = 0
        self._active_process: Process | None = None
        self._event_count = 0
        #: Optional :class:`repro.obs.profile.SimProfiler`.  ``None``
        #: means no profiling hooks are installed: ``step`` stays the
        #: plain class method and the dispatch loop is untouched.
        self.profiler = None

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def processed_events(self) -> int:
        """Heap entries dispatched so far, timers and events alike
        (stale timers included; diagnostics)."""
        return self._event_count

    # -- event factories -------------------------------------------------
    def event(self, name: str | None = None) -> Event:
        """Create a pending event to be triggered manually."""
        return Event(self, name=name)

    def timeout(self, delay: float, value=None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator, name: str | None = None) -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, list(events))

    def deadline(self, event: Event, delay: float) -> Deadline:
        """An event that fires once ``event`` is processed or ``delay``
        seconds pass, whichever comes first (see :class:`Deadline`)."""
        return Deadline(self, event, delay)

    def call_at(self, when: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule in the past ({when} < {self._now})")
        self.call_later(when - self._now, callback, *args)

    def call_later(self, delay: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds
        (no handle, no cancel: see the module docstring)."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, callback, args))

    # -- profiling ---------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Install the self-profiling dispatch hook.

        ``step`` and ``_advance`` are overridden with instance
        attributes built by :func:`_make_profiled_hooks`: a fused
        dispatch loop that counts every event into its owning subsystem
        and stride-samples the wall-clock.  With no profiler attached
        there is nothing to pay: no wrapper, no branch.
        """
        if profiler is None:
            self.detach_profiler()
            return
        self.profiler = profiler
        self.step, self._advance = _make_profiled_hooks(self, profiler)

    def detach_profiler(self) -> None:
        """Remove the dispatch hooks, restoring the plain loop."""
        self.profiler = None
        self.__dict__.pop("step", None)
        self.__dict__.pop("_advance", None)

    # -- kernel ------------------------------------------------------------
    def _enqueue_event(self, event: Event, delay: float = 0.0) -> None:
        """Put a triggered event on the processing queue (kernel use)."""
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event, None))

    def peek(self) -> float:
        """Due time of the next event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one heap entry, advancing the clock to its due time."""
        when, _seq, fn, args = heapq.heappop(self._queue)
        self._now = when
        self._event_count += 1
        if args is None:
            fn._process()
        else:
            fn(*args)

    def _advance(self, deadline: float) -> None:
        """Dispatch every entry due strictly before ``deadline``: the
        inner loop of :meth:`run`, with :meth:`step` fused in."""
        queue = self._queue
        heappop = heapq.heappop
        while queue and queue[0][0] < deadline:
            when, _seq, fn, args = heappop(queue)
            self._now = when
            self._event_count += 1
            if args is None:
                fn._process()
            else:
                fn(*args)

    def run(self, until: float | Event | None = None):
        """Run the simulation.

        * ``until=None`` — run until no events remain.
        * ``until=<float>`` — run until simulated time reaches ``until``
          (events due exactly at ``until`` are *not* processed; the clock is
          left at ``until``).
        * ``until=<Event>`` — run until that event is processed, returning
          its value (or raising its exception).
        """
        if until is None:
            try:
                self._advance(float("inf"))
            except StopSimulation as stop:
                return stop.value
            return None

        if isinstance(until, Event):
            marker = until
            outcome: list = []

            def _mark(event: Event) -> None:
                outcome.append(event)

            if not marker.processed:
                marker.callbacks.append(_mark)
            else:
                outcome.append(marker)
            try:
                while not outcome:
                    if not self._queue:
                        raise RuntimeError(
                            "simulation ran out of events before the awaited "
                            f"event {marker!r} was processed"
                        )
                    self.step()
            except StopSimulation as stop:
                return stop.value
            return marker.value

        deadline = float(until)
        if deadline < self._now:
            raise ValueError(f"cannot run backwards ({deadline} < {self._now})")
        try:
            self._advance(deadline)
        except StopSimulation as stop:
            return stop.value
        self._now = deadline
        return None

    def stop(self, value=None) -> None:
        """Halt :meth:`run` from within a callback or process."""
        raise StopSimulation(value)

    def __repr__(self):
        return f"<Simulator t={self._now:.6f} queued={len(self._queue)}>"
