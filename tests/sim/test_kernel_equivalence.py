"""The flat-tuple kernel against a reference copy of the event-per-timer
kernel it replaced.

The reference keeps the old shape: every ``call_later`` allocates a
:class:`~repro.sim.events.Timeout` carrying a ``_ScheduledCall``
callback, and every heap entry is ``(when, seq, event)``.  Random
schedules (equal-time ties, zero delays, callbacks that schedule more
callbacks, delayed ``Event.succeed``, processes waiting on timeouts)
must dispatch in the same order, at the same clock readings, with the
same ``processed_events``, on the plain and the profiled kernel alike.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import SimProfiler
from repro.sim import Simulator
from repro.sim.events import Timeout


class _ScheduledCall:
    __slots__ = ("fn", "args")

    def __init__(self, fn, args):
        self.fn = fn
        self.args = args

    def __call__(self, _event):
        self.fn(*self.args)


class ReferenceSimulator(Simulator):
    """The kernel before flat heap entries: one event per timer."""

    def call_later(self, delay, callback, *args):
        event = Timeout(self, delay)
        event.callbacks.append(_ScheduledCall(callback, args))
        return event

    def _enqueue_event(self, event, delay=0.0):
        self._sequence += 1
        heapq.heappush(self._queue, (self._now + delay, self._sequence, event))

    def step(self):
        when, _seq, event = heapq.heappop(self._queue)
        self._now = when
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
