"""The O(1) windowed stores against a reference copy of the stores they
replaced.

The reference keeps the old shape: every ``add``/``set``/``record`` and
every query runs ``_advance``, which scans ``min(self.slices)`` for
expired slices; the gauge settles through the general loop on every
set; every histogram query merges the live slices from scratch.

Random interleavings of samples and queries (stale samples, same-instant
overwrites, exact ``k * slice_width`` ticks, times within 1e-9 of a
slice boundary, gaps longer than the window) must leave both sides with
equal slice contents after every op, and every query asked at that point
(on copies, so the queries do not steer the sequence) must answer
``repr``-identically.  Queries also run as ops of their own, because
they settle the gauge and expire slices.
"""

import copy
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import WindowedCounter, WindowedGauge, WindowedHistogram
from repro.obs.metrics import LogLinearHistogram
from repro.util.stats import LatencySummary

# -- the reference: the windowed stores before the O(1) rework --------------


class _ReferenceSliceRing:
    def __init__(self, window: float, slices: int = 8) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if slices < 1:
            raise ValueError("slices must be >= 1")
        self.window = float(window)
        self.n_slices = int(slices)
        self.slice_width = self.window / self.n_slices
        self.slices: dict[int, object] = {}
        self._newest = -(2**63)

    def _index(self, t: float) -> int:
        return math.floor(t / self.slice_width + 1e-9)

    def _advance(self, now: float) -> int:
        current = self._index(now)
        if current > self._newest:
            self._newest = current
        oldest = self._newest - self.n_slices + 1
        if self.slices and min(self.slices) < oldest:
            for index in [i for i in self.slices if i < oldest]:
                del self.slices[index]
        return oldest

    def window_start(self, now: float) -> float:
        self._advance(now)
        return (self._newest - self.n_slices + 1) * self.slice_width

    def live_payloads(self, now: float) -> list:
        oldest = self._advance(now)
        return [self.slices[i] for i in sorted(self.slices) if i >= oldest]


class ReferenceCounter(_ReferenceSliceRing):
    def add(self, now: float, amount: float = 1.0) -> None:
        oldest = self._advance(now)
        index = self._index(now)
        if index < oldest:
            return
        self.slices[index] = self.slices.get(index, 0.0) + amount

    def total(self, now: float) -> float:
        return sum(self.live_payloads(now))

    def rate(self, now: float) -> float:
        return self.total(now) / self.window


class ReferenceGauge(_ReferenceSliceRing):
    def __init__(self, window: float, slices: int = 8) -> None:
        super().__init__(window, slices)
        self._value = 0.0
        self._since: float | None = None

    @property
    def last(self) -> float:
        return self._value

    def _payload(self, index: int) -> list:
        payload = self.slices.get(index)
        if payload is None:
            payload = [0.0, 0.0, float("-inf")]
            self.slices[index] = payload
        return payload

    def _settle(self, now: float) -> None:
        if self._since is None or now <= self._since:
            self._advance(now)
            return
        oldest = self._advance(now)
        t = max(self._since, oldest * self.slice_width)
        while t < now:
            index = self._index(t)
            segment_end = min(now, (index + 1) * self.slice_width)
            payload = self._payload(index)
            payload[0] += self._value * (segment_end - t)
            payload[1] += segment_end - t
            payload[2] = max(payload[2], self._value)
            t = segment_end
        self._since = now

    def set(self, now: float, value: float) -> None:
        if self._since is not None and now < self._since:
            return
        self._settle(now)
        self._value = float(value)
        self._since = now
        index = self._index(now)
        if index >= self._advance(now):
            payload = self._payload(index)
            payload[2] = max(payload[2], self._value)

    def mean(self, now: float) -> float:
        self._settle(now)
        integral = seconds = 0.0
        for payload in self.live_payloads(now):
            integral += payload[0]
            seconds += payload[1]
        if seconds <= 0.0:
            return 0.0
        return integral / seconds

    def maximum(self, now: float) -> float:
        self._settle(now)
        peak = float("-inf")
        for payload in self.live_payloads(now):
            peak = max(peak, payload[2])
        return 0.0 if peak == float("-inf") else peak


class ReferenceHistogram(_ReferenceSliceRing):
    def __init__(
        self,
        window: float,
        slices: int = 8,
        lowest: float = 1e-6,
        highest: float = 1e4,
        bins_per_decade: int = 1000,
    ) -> None:
        super().__init__(window, slices)
        self.lowest = lowest
        self.highest = highest
        self.bins_per_decade = bins_per_decade

    def record(self, now: float, value: float) -> None:
        oldest = self._advance(now)
        index = self._index(now)
        if index < oldest:
            return
        hist = self.slices.get(index)
        if hist is None:
            hist = LogLinearHistogram(
                self.lowest, self.highest, self.bins_per_decade
            )
            self.slices[index] = hist
        hist.record(value)

    def merged(self, now: float) -> LogLinearHistogram:
        merged = LogLinearHistogram(
            self.lowest, self.highest, self.bins_per_decade
        )
        for hist in self.live_payloads(now):
            merged.merge(hist)
        return merged

    def count(self, now: float) -> int:
        return sum(hist.count for hist in self.live_payloads(now))

    def quantile(self, now: float, q: float) -> float:
        if not self.live_payloads(now):
            return 0.0
        return self.merged(now).quantile(q)

    def summary(self, now: float) -> LatencySummary:
        if not self.live_payloads(now):
            return LatencySummary.empty()
        return self.merged(now).summary()


# -- op sequences -------------------------------------------------------------

#: (window, slices) shapes, including a single-slice ring and a width
#: that is not a power of two (boundary ticks carry float error).
shapes = st.sampled_from([(4.0, 8), (1.0, 4), (0.3, 3), (8.0, 1), (0.7, 7)])

#: How an op picks its time relative to the newest time seen so far.
time_kinds = st.sampled_from(
    ["step", "step", "same", "stale", "tick", "near", "gap"]
)
nudges = st.sampled_from([-1e-9, -3e-10, -1e-12, 1e-12, 3e-10, 1e-9])

ops = st.lists(
    st.tuples(
        time_kinds,
        st.floats(min_value=0.0, max_value=1.0),   # step/stale/gap size
        st.integers(min_value=-3, max_value=3),    # tick/near slice offset
        nudges,
        st.booleans(),                             # near: relative nudge
        st.sampled_from(["sample", "sample", "sample", "query"]),
        st.floats(min_value=1e-7, max_value=1e5),  # sample value
    ),
    min_size=1,
    max_size=60,
)


def _next_time(newest, last, width, window, op) -> float:
    kind, size, offset, nudge, relative, _op, _value = op
    if kind == "step":
        return newest + size * 2.0 * width
    if kind == "same":
        return last
    if kind == "stale":
        return newest - size * 1.5 * window
    if kind == "gap":
        return newest + window * (1.0 + 4.0 * size)
    base = (math.floor(newest / width + 1e-9) + offset) * width
    if kind == "tick":
        return base
    return base * (1.0 + nudge) if relative else base + nudge


def _drive(new, ref, start, steps, sample, check):
    newest = last = start
    width, window = ref.slice_width, ref.window
    for step in steps:
        now = _next_time(newest, last, width, window, step)
        now = max(0.0, now)
        newest, last = max(newest, now), now
        op, value = step[5], step[6]
        if op == "sample":
            sample(new, ref, now, value)
        else:
            check(new, ref, now)  # queries steer the sequence too
        check(copy.deepcopy(new), copy.deepcopy(ref), now)
        check(copy.deepcopy(new), copy.deepcopy(ref), newest)


def _same(a, b):
    assert repr(a) == repr(b)


# -- counter ------------------------------------------------------------------


def _counter_check(new, ref, now):
    assert new.slices == ref.slices
    _same(new.total(now), ref.total(now))
    _same(new.rate(now), ref.rate(now))
    _same(new.window_start(now), ref.window_start(now))
    assert new.slices == ref.slices


def _counter_sample(new, ref, now, value):
    new.add(now, value)
    ref.add(now, value)
    assert new.slices == ref.slices


@given(shape=shapes, start=st.floats(0.0, 100.0), steps=ops)
@settings(max_examples=200, deadline=None)
def test_counter_matches_reference(shape, start, steps):
    window, slices = shape
    _drive(
        WindowedCounter(window, slices), ReferenceCounter(window, slices),
        start, steps, _counter_sample, _counter_check,
    )


# -- gauge --------------------------------------------------------------------


def _gauge_slices(gauge):
    return {i: list(p) for i, p in gauge.slices.items()}


def _gauge_check(new, ref, now):
    assert _gauge_slices(new) == _gauge_slices(ref)
    _same(new.last, ref.last)
    _same(new.mean(now), ref.mean(now))
    _same(new.maximum(now), ref.maximum(now))
    _same(new.window_start(now), ref.window_start(now))
    _same(_gauge_slices(new), _gauge_slices(ref))


def _gauge_sample(new, ref, now, value):
    # Levels repeat and fall as well as rise.
    level = float(int(value) % 7) - 2.0 if value > 10 else value
    new.set(now, level)
    ref.set(now, level)
    _same(_gauge_slices(new), _gauge_slices(ref))


@given(shape=shapes, start=st.floats(0.0, 100.0), steps=ops)
@settings(max_examples=200, deadline=None)
def test_gauge_matches_reference(shape, start, steps):
    window, slices = shape
    _drive(
        WindowedGauge(window, slices), ReferenceGauge(window, slices),
        start, steps, _gauge_sample, _gauge_check,
    )


# -- histogram ----------------------------------------------------------------


def _hist_slices(hist):
    return {i: h.to_dict() for i, h in hist.slices.items()}


def _hist_check(new, ref, now):
    assert _hist_slices(new) == _hist_slices(ref)
    _same(new.count(now), ref.count(now))
    for q in (0.0, 50.0, 90.0, 99.0, 99.9, 100.0):
        _same(new.quantile(now, q), ref.quantile(now, q))
    _same(new.summary(now), ref.summary(now))
    _same(new.merged(now).to_dict(), ref.merged(now).to_dict())
    _same(new.window_start(now), ref.window_start(now))
    _same(_hist_slices(new), _hist_slices(ref))


def _hist_sample(new, ref, now, value):
    new.record(now, value)
    ref.record(now, value)
    assert _hist_slices(new) == _hist_slices(ref)


@given(shape=shapes, start=st.floats(0.0, 100.0), steps=ops)
@settings(max_examples=200, deadline=None)
def test_histogram_matches_reference(shape, start, steps):
    window, slices = shape
    _drive(
        WindowedHistogram(window, slices), ReferenceHistogram(window, slices),
        start, steps, _hist_sample, _hist_check,
    )


def test_gauge_fold_starts_at_the_window_start_for_a_nudged_since():
    # ``since`` sits 1e-12 below a slice boundary; the +1e-9 nudge puts
    # it in the next slice, whose start is also the window start (one
    # slice).  The fold must begin at the window start, not at ``since``.
    new, ref = WindowedGauge(8.0, 1), ReferenceGauge(8.0, 1)
    for now, level in ((16.0 - 1e-12, 3.0), (17.0, 5.0), (23.5, 1.0)):
        new.set(now, level)
        ref.set(now, level)
        _same(_gauge_slices(new), _gauge_slices(ref))
    _gauge_check(new, ref, 23.9)
