"""The flat-tuple kernel against a reference copy of the event-per-timer
kernel it replaced.

The reference keeps the old shape: every ``call_later`` allocates a
:class:`~repro.sim.events.Timeout` carrying a ``_ScheduledCall``
callback, every heap entry is ``(when, seq, event)``, every process
exit goes through the heap, and the mesh hop's idioms are the old ones:
``Store.put`` for an unawaited put and ``any_of([event, timeout])`` for
a per-try deadline.  Random schedules (equal-time ties, zero delays,
callbacks that schedule more callbacks, delayed ``Event.succeed``,
processes waiting on timeouts, joined, interrupted or racing a
deadline, puts against waiting getters) must dispatch in the same
order, at the same clock readings, with the same ``processed_events``,
on the plain and the profiled kernel alike.  For ``processed_events``
the reference models the new rule of which entries reach the heap: it
does not count a put or a process exit that nobody waits on, which the
new kernel settles in place.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SimProfiler
from repro.sim import Interrupt, Process, Simulator, Store
from repro.sim.events import Timeout
from repro.sim.resources import StorePut


class _ScheduledCall:
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args

    def __call__(self, _event):
        self.fn(*self.args)


class _ReferenceProcess(Process):
    """A process whose exit always goes through the heap."""

    def _finish(self, value, exception):
        # Nobody waits on it: the new kernel settles it in place.
        self.unawaited_exit = not self.callbacks
        if exception is None:
            self.succeed(value)
        else:
            self.fail(exception)


class ReferenceSimulator(Simulator):
    """The kernel before flat heap entries: one event per timer."""

    def call_later(self, delay, callback, *args):
        event = Timeout(self, delay)
        event.callbacks.append(_ScheduledCall(callback, args))
        return event

    def process(self, generator, name=None):
        return _ReferenceProcess(self, generator, name=name)

    def deadline(self, event, delay):
        timer = self.timeout(delay)
        return self.any_of([event, timer])

    def _enqueue_event(self, event, delay=0.0):
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))

    def step(self):
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
        if not _settles_in_place(event):
            self._event_count += 1
        event._process()

    def _advance(self, deadline):
        while self._queue and self._queue[0][0] < deadline:
            self.step()


# Few distinct delays so schedules are full of equal-time ties.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 1.5])

OPS = st.recursive(
    st.tuples(st.sampled_from(["later", "at", "succeed"]), DELAYS, st.just(())),
    lambda children: st.one_of(
        st.tuples(
            st.sampled_from(["later", "at", "succeed"]),
            DELAYS,
            st.lists(children, max_size=3).map(tuple),
        ),
        st.tuples(
            st.just("process"),
            st.lists(DELAYS, min_size=1, max_size=3).map(tuple),
            st.lists(children, max_size=3).map(tuple),
        ),
    ),
    max_leaves=25,
)


def replay(sim, ops, until):
    """Run ``ops`` on ``sim``; return the dispatch log and the counters."""
    log = []

    def schedule(op, label):
        kind, delay, children = op

        def fire(tag):
            log.append((tag, sim.now))
            for index, child in enumerate(children):
                schedule(child, f"{tag}.{index}")

        if kind == "later":
            sim.call_later(delay, fire, label)
        elif kind == "at":
            sim.call_at(sim.now + delay, fire, label)
        elif kind == "succeed":
            event = sim.event()
            event.callbacks.append(lambda _event: fire(label))
            event.succeed(delay=delay)
        else:
            def proc():
                for step, wait in enumerate(delay):
                    yield sim.timeout(wait)
                    log.append((f"{label}/{step}", sim.now))
                fire(label)

            sim.process(proc())

    for index, op in enumerate(ops):
        schedule(op, str(index))
    if until is None:
        sim.run()
    else:
        for deadline in until:
            sim.run(until=deadline)
    return log, sim.now, sim.processed_events


def _settles_in_place(event):
    """Entries the new kernel never pushes: an unawaited put on an
    unbounded store, and an unawaited process exit."""
    if event.__class__ is StorePut:
        return not event.callbacks
    return getattr(event, "unawaited_exit", False)


# Mesh-hop idioms: each kind below runs as the old idiom on the
# reference and as the new one on the kernel under test.
#   put          put an item (``put`` / ``put_nowait``) after a delay;
#   get          a process that waits, then blocks on ``store.get()``;
#   join-late    a child process, joined strictly after it exits (the
#                replay path);
#   join-live    a child process, joined while it still runs;
#   deadline     a process racing an event against a per-try deadline
#                (``any_of([event, timeout])`` / ``sim.deadline``); the
#                event is triggered by ``succeed(delay=)``, by a timer
#                calling ``succeed``, by ``fail(delay=)``, or was
#                already processed;
#   interrupt    a process interrupted while waiting on a deadline.
NONZERO = st.sampled_from([0.25, 0.5, 1.0, 1.5])
TRIGGERS = st.sampled_from(["succeed", "later", "fail", "done"])

HOP_LEAVES = st.one_of(
    st.tuples(st.sampled_from(["later", "succeed", "put", "get"]), DELAYS),
    st.tuples(
        st.sampled_from(["process", "join-late", "join-live"]),
        st.lists(DELAYS, min_size=1, max_size=3).map(tuple),
    ),
    st.tuples(st.just("deadline"), st.tuples(DELAYS, DELAYS, TRIGGERS)),
    st.tuples(st.just("interrupt"), st.tuples(DELAYS, DELAYS, NONZERO)),
)

HOP_OPS = st.recursive(
    HOP_LEAVES.map(lambda leaf: leaf + ((),)),
    lambda children: st.tuples(
        HOP_LEAVES, st.lists(children, max_size=3).map(tuple)
    ).map(lambda pair: pair[0] + (pair[1],)),
    max_leaves=25,
)


def replay_hop(sim, ops, until):
    """Run mesh-hop ``ops`` on ``sim``; return the dispatch log and the
    counters.  The reference runs the old idioms."""
    log = []
    store = Store(sim)
    reference = isinstance(sim, ReferenceSimulator)
    put = store.put if reference else store.put_nowait

    def schedule(op, label):
        kind, arg, children = op

        def fire(tag):
            log.append((tag, sim.now))
            for index, child in enumerate(children):
                schedule(child, f"{tag}.{index}")

        def waits(delays):
            for step, wait in enumerate(delays):
                yield sim.timeout(wait)
                log.append((f"{label}/{step}", sim.now))
            return label

        if kind == "later":
            sim.call_later(arg, fire, label)
        elif kind == "succeed":
            event = sim.event()
            event.callbacks.append(lambda _event: fire(label))
            event.succeed(delay=arg)
        elif kind == "put":
            def do_put():
                put(label)
                fire(label)

            sim.call_later(arg, do_put)
        elif kind == "get":
            def getter():
                yield sim.timeout(arg)
                item = yield store.get()
                log.append((f"{label}/got", item, sim.now))
                fire(label)

            sim.process(getter())
        elif kind == "process":
            def proc():
                yield from waits(arg)
                fire(label)

            sim.process(proc())
        elif kind in ("join-late", "join-live"):
            child = sim.process(waits(arg))

            def joiner():
                if kind == "join-late":
                    # Strictly after the child's exit entry.
                    yield sim.timeout(sum(arg) + 0.125)
                value = yield child
                log.append((f"{label}/joined", value, sim.now))
                fire(label)

            sim.process(joiner())
        elif kind == "deadline":
            event_delay, timer_delay, trigger = arg

            def racer():
                event = sim.event()
                if trigger == "succeed":
                    event.succeed(label, delay=event_delay)
                elif trigger == "later":
                    sim.call_later(event_delay, event.succeed, label)
                elif trigger == "fail":
                    event.fail(RuntimeError(label), delay=event_delay)
                else:
                    yield event.succeed(label)
                try:
                    yield sim.deadline(event, timer_delay)
                    outcome = event.processed
                except RuntimeError as error:
                    outcome = str(error)
                log.append((f"{label}/raced", outcome, sim.now))
                fire(label)

            sim.process(racer())
        else:  # interrupt
            event_delay, timer_delay, interrupt_delay = arg

            def waiter():
                event = sim.event()
                sim.call_later(event_delay, event.succeed, label)
                try:
                    yield sim.deadline(event, timer_delay)
                    outcome = event.processed
                except Interrupt as interrupt:
                    outcome = interrupt.cause
                log.append((f"{label}/waited", outcome, sim.now))
                fire(label)

            proc = sim.process(waiter())

            def poke():
                if proc.is_alive:
                    proc.interrupt("cancelled")

            sim.call_later(interrupt_delay, poke)

    for index, op in enumerate(ops):
        schedule(op, str(index))
    if until is None:
        sim.run()
    else:
        for deadline in until:
            sim.run(until=deadline)
    return log, sim.now, sim.processed_events


def profiled():
    sim = Simulator()
    sim.attach_profiler(SimProfiler(timing_stride=3))
    return sim


@given(
    ops=st.lists(OPS, max_size=8),
    until=st.one_of(
        st.none(),
        st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), min_size=1,
                 max_size=3).map(sorted),
    ),
)
@settings(max_examples=200, deadline=None)
def test_dispatch_matches_reference_kernel(ops, until):
    expected = replay(ReferenceSimulator(), ops, until)
    assert replay(Simulator(), ops, until) == expected
    assert replay(profiled(), ops, until) == expected


@given(
    ops=st.lists(HOP_OPS, max_size=8),
    until=st.one_of(
        st.none(),
        st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]), min_size=1,
                 max_size=3).map(sorted),
    ),
)
@settings(max_examples=300, deadline=None)
def test_mesh_hop_idioms_match_reference_kernel(ops, until):
    expected = replay_hop(ReferenceSimulator(), ops, until)
    assert replay_hop(Simulator(), ops, until) == expected
    assert replay_hop(profiled(), ops, until) == expected


@pytest.mark.parametrize("make", [Simulator, profiled])
def test_unawaited_exit_settles_in_place(make):
    sim = make()

    def child():
        yield sim.timeout(1.0)
        return "done"

    proc = sim.process(child())
    sim.run(until=1.0)
    assert sim.processed_events == 1  # the start
    sim.run()
    # The timeout resumed it; the exit took no heap entry.
    assert proc.processed and proc.value == "done"
    assert sim.processed_events == 2 and sim.now == 1.0

    seen = []

    def joiner():
        seen.append((yield proc))

    sim.process(joiner())
    sim.run()
    assert seen == ["done"]
    assert sim.processed_events == 4  # start, then the replay


def test_unawaited_failure_settles_in_place():
    sim = Simulator()

    def broken():
        yield sim.timeout(0.5)
        raise KeyError("boom")

    proc = sim.process(broken())
    sim.run()
    assert proc.processed and not proc.ok
    assert isinstance(proc.exception, KeyError)


def test_put_nowait_on_a_full_bounded_store_waits_like_put():
    sim = Simulator()
    store = Store(sim, capacity=1)
    store.put_nowait("a")
    store.put_nowait("b")
    assert store.items == ["a"]
    first, second = store.get(), store.get()
    sim.run()
    assert (first.value, second.value) == ("a", "b")


class _Reply:
    pass


def test_stale_deadline_timer_holds_no_reference_to_the_reply():
    import gc
    import weakref

    sim = Simulator()
    event = sim.event()
    deadline = sim.deadline(event, 15.0)
    reply = _Reply()
    event.succeed(reply)
    sim.run(until=1.0)
    assert deadline.processed and deadline.value is None
    watch = weakref.ref(reply)
    del event, reply
    gc.collect()
    assert watch() is None
    assert sim.peek() == 15.0  # the stale timer is still queued
    sim.run()
    assert sim.now == 15.0


def test_step_dispatches_timers_and_events_in_order():
    sim = Simulator()
    seen = []
    sim.call_later(1.0, seen.append, "timer")
    event = sim.event()
    event.callbacks.append(lambda _event: seen.append("event"))
    event.succeed(delay=1.0)
    sim.call_later(0.0, seen.append, "first")
    while sim.peek() != float("inf"):
        sim.step()
    assert seen == ["first", "timer", "event"]
    assert sim.processed_events == 3


@pytest.mark.parametrize("make", [Simulator, profiled])
def test_negative_delay_is_rejected(make):
    sim = make()
    with pytest.raises(ValueError):
        sim.call_later(-1, lambda: None)
    assert sim.peek() == float("inf")
