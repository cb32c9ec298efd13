"""Sim-time sliding-window aggregation: rolling counts and quantiles.

The post-hoc plane (ISSUE 3) answers "where did each millisecond go?"
after the run; the *online* half (ISSUE 4) must answer "what is the
p99 right now?" while traffic is still flowing, with bounded memory.
Both windowed types share the same design:

* The window is divided into ``slices`` equal sub-windows.  A sample
  recorded at time ``t`` lands in slice ``floor(t / slice_width)``;
  only the most recent ``slices`` slices are live.
* Per-op cost: a sample costs O(1) — one slice-index computation and
  one dict update (a gauge ``set`` also folds the held level, one
  segment per live slice it spans, so at most ``slices``).  Slices
  expire only when the newest slice index advances, in one
  O(``slices``) sweep, so expiry is amortized over every sample of a
  slice; between advances every live key is at or past the oldest
  live index, so no op scans for expired slices.
* Membership is therefore *slice-aligned*: a query at ``now`` covers
  exactly the samples with ``t >= window_start(now)``, where
  ``window_start`` rounds the nominal ``now - window`` down to a slice
  boundary.  Tests (and the exact-oracle property test) can mirror the
  predicate precisely.
* :class:`WindowedHistogram` keeps one sparse
  :class:`~repro.obs.metrics.LogLinearHistogram` per live slice, so a
  rolling quantile is a merge of at most ``slices`` histograms and the
  relative quantile error stays the bucket-width bound of the
  underlying histogram (~0.45 % at the default 1000 bins/decade — the
  documented "~1 %" envelope with float slop).  The merge and every
  quantile asked of it are cached until the next record or slice
  expiry, so repeated queries between samples cost O(1).

Memory is bounded by ``slices`` payloads regardless of run length or
sample rate, which is what lets the SLO engine evaluate continuously
inside multi-minute simulations without growing the heap.
"""

from __future__ import annotations

import math

from ..util.stats import LatencySummary
from .metrics import LogLinearHistogram

#: Default sub-windows per window; 8 keeps the effective-window jitter
#: at 1/8 of the nominal width while staying cheap to merge.
DEFAULT_SLICES = 8

_floor = math.floor
_NEG_INF = float("-inf")


def _gauge_payload() -> list:
    """A fresh gauge slice: ``[integral, seconds, max]``."""
    return [0.0, 0.0, _NEG_INF]


class _SliceRing:
    """Slice bookkeeping shared by the windowed counter and histogram.

    ``self.slices`` maps live slice index -> payload.  ``_newest`` is
    the newest slice index seen and ``_oldest`` the oldest live one;
    :meth:`_roll` moves both forward and drops every slice older than
    the new window.  Time never goes backwards in the simulator, but
    stale samples (earlier than the newest time seen) still land in
    their own slice if it is live, and are dropped if it already
    expired.
    """

    def __init__(self, window: float, slices: int = DEFAULT_SLICES) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        if slices < 1:
            raise ValueError("slices must be >= 1")
        self.window = float(window)
        self.n_slices = int(slices)
        self.slice_width = self.window / self.n_slices
        self.slices: dict[int, object] = {}
        self._newest = -(2**63)
        self._oldest = self._newest - self.n_slices + 1
        #: Bumped whenever a live slice expires; the histogram also
        #: bumps it on every record and keys its cached merge on it.
        self._version = 0

    def _roll(self, newest: int) -> None:
        """Make ``newest`` the newest slice index and expire every slice
        that falls out of the window (the only place slices expire)."""
        self._newest = newest
        oldest = self._oldest = newest - self.n_slices + 1
        slices = self.slices
        if slices:
            expired = [i for i in slices if i < oldest]
            if expired:
                for index in expired:
                    del slices[index]
                self._version += 1

    def _advance(self, now: float) -> int:
        """Expire slices outside the window ending at ``now``; returns
        ``now``'s slice index."""
        # The +1e-9 relative nudge keeps an exact boundary tick
        # (t == k * slice_width up to float error) in slice k.
        index = _floor(now / self.slice_width + 1e-9)
        if index > self._newest:
            self._roll(index)
        return index

    def window_start(self, now: float) -> float:
        """The inclusive lower time bound a query at ``now`` covers
        (slice-aligned, so the membership predicate is exact)."""
        self._advance(now)
        return self._oldest * self.slice_width

    def live_payloads(self, now: float) -> list:
        self._advance(now)
        slices = self.slices
        return [slices[i] for i in sorted(slices)]


class WindowedCounter(_SliceRing):
    """A count over the trailing window (events, bad requests, bytes)."""

    def add(self, now: float, amount: float = 1.0) -> None:
        index = self._advance(now)
        if index < self._oldest:
            return  # stale sample older than the window: nothing to count
        slices = self.slices
        slices[index] = slices.get(index, 0.0) + amount

    def total(self, now: float) -> float:
        """Sum over the live window; exactly 0.0 when the window is
        empty or every recorded slice has expired."""
        return sum(self.live_payloads(now))

    def rate(self, now: float) -> float:
        """Events per second over the nominal window width (0.0 on an
        empty or fully-expired window — never NaN: the window width is
        validated positive at construction)."""
        return self.total(now) / self.window


class WindowedGauge(_SliceRing):
    """A time-weighted level over the trailing window (queue depth,
    busy fraction, in-flight count).

    The gauge models a *piecewise-constant* signal: :meth:`set` records
    the level at a sim time, and the previous level is held until the
    next set.  Each live slice accumulates ``(integral, seconds, max)``
    of the signal's overlap with that slice, so queries are exact for
    the slice-aligned window — not sample averages, which under-weight
    long-held levels:

    * :meth:`mean` — ∫value·dt / covered seconds over the live window
      (the USE method's utilization when fed ``in_use / capacity``);
    * :meth:`maximum` — the largest level present in the live window,
      including zero-duration spikes (a set immediately overwritten at
      the same time still registers in its slice's max).

    Zero-sample contract (matching the counter and histogram): a gauge
    that was never set, or whose entire history has expired *and* whose
    held level never reached a live slice, answers exactly 0.0.

    Queries settle the held segment up to ``now`` first, so a level set
    once and held for minutes keeps counting without further sets.
    Time never goes backwards in the simulator; a stale ``set`` (earlier
    than the latest set) is dropped.
    """

    def __init__(self, window: float, slices: int = DEFAULT_SLICES) -> None:
        super().__init__(window, slices)
        self._value = 0.0
        self._since: float | None = None

    @property
    def last(self) -> float:
        """The most recently set level (0.0 before the first set)."""
        return self._value

    def _settle(self, now: float) -> int:
        """Fold the held level's ``[since, now)`` segment into slices,
        one segment per slice; returns ``now``'s slice index.  Only the
        portion overlapping the live window is written (expired slices
        would be dropped immediately anyway), so a long-idle gauge
        settles in O(slices), not O(elapsed).

        Every ``set`` runs this loop, so ``min``/``max`` are spelled as
        comparisons (same results, no builtin calls)."""
        current = self._advance(now)
        since = self._since
        if since is None or now <= since:
            return current
        width = self.slice_width
        value = self._value
        slices = self.slices
        t = since
        start = self._oldest * width
        if start > t:  # t = max(since, start)
            t = start
        while t < now:
            index = _floor(t / width + 1e-9)  # the slice rule of _advance
            segment_end = (index + 1) * width
            if not segment_end < now:  # min(now, segment_end)
                segment_end = now
            payload = slices.get(index)
            if payload is None:
                payload = slices[index] = _gauge_payload()
            payload[0] += value * (segment_end - t)
            payload[1] += segment_end - t
            if value > payload[2]:  # max(payload[2], value)
                payload[2] = value
            t = segment_end
        self._since = now
        return current

    def set(self, now: float, value: float) -> None:
        """Record the signal's level at ``now`` (held until the next
        set).  The new level registers in its slice's max immediately,
        so an instantaneous spike is visible even if overwritten at the
        same timestamp."""
        since = self._since
        if since is not None and now < since:
            return  # stale sample: the signal has already moved past it
        index = self._settle(now)
        value = self._value = float(value)
        self._since = now
        if index >= self._oldest:
            payload = self.slices.get(index)
            if payload is None:
                payload = self.slices[index] = _gauge_payload()
            if value > payload[2]:  # max(payload[2], value)
                payload[2] = value

    def mean(self, now: float) -> float:
        """Time-weighted mean over the live window's covered seconds;
        exactly 0.0 when nothing has been recorded (or everything
        expired)."""
        self._settle(now)
        integral = seconds = 0.0
        for payload in self.live_payloads(now):
            integral += payload[0]
            seconds += payload[1]
        if seconds <= 0.0:
            return 0.0
        return integral / seconds

    def maximum(self, now: float) -> float:
        """The largest level present in the live window (spikes
        included); exactly 0.0 on an empty or fully-expired window."""
        self._settle(now)
        peak = _NEG_INF
        for payload in self.live_payloads(now):
            peak = max(peak, payload[2])
        return 0.0 if peak == _NEG_INF else peak


class WindowedHistogram(_SliceRing):
    """Rolling latency distribution: p50/p99 over the trailing window.

    One sparse log-linear histogram per live slice; queries merge the
    live slices (exact on bucket counts, see
    :meth:`LogLinearHistogram.merge`), so the rolling quantile carries
    the same bounded relative error as the underlying histogram.

    The merge of the live slices and the quantiles already asked of it
    are cached under ``_version``, which every :meth:`record` and every
    slice expiry bumps; any query in between reuses them.
    """

    def __init__(
        self,
        window: float,
        slices: int = DEFAULT_SLICES,
        lowest: float = 1e-6,
        highest: float = 1e4,
        bins_per_decade: int = 1000,
    ) -> None:
        super().__init__(window, slices)
        self.lowest = lowest
        self.highest = highest
        self.bins_per_decade = bins_per_decade
        self._cached_version = -1
        self._cached: LogLinearHistogram | None = None
        self._quantiles: dict[float, float] = {}

    def record(self, now: float, value: float) -> None:
        index = self._advance(now)
        if index < self._oldest:
            return  # stale sample: its slice already expired
        hist = self.slices.get(index)
        if hist is None:
            hist = LogLinearHistogram(
                self.lowest, self.highest, self.bins_per_decade
            )
            self.slices[index] = hist
        self._version += 1
        hist.record(value)

    def _live(self, now: float) -> LogLinearHistogram:
        """The cached merge of the live slices (never handed out: it
        must not be mutated)."""
        self._advance(now)
        if self._cached_version != self._version:
            merged = LogLinearHistogram(
                self.lowest, self.highest, self.bins_per_decade
            )
            slices = self.slices
            for index in sorted(slices):
                merged.merge(slices[index])
            self._cached = merged
            self._cached_version = self._version
            self._quantiles = {}
        return self._cached

    def merged(self, now: float) -> LogLinearHistogram:
        """A fresh merge of the live slices (the caller may mutate it)."""
        return self._live(now).copy()

    def count(self, now: float) -> int:
        return self._live(now).count

    def quantile(self, now: float, q: float) -> float:
        """The rolling q-th percentile.  Zero-sample contract: an empty
        or fully-expired window answers exactly 0.0 (never NaN, never
        an index error)."""
        live = self._live(now)
        value = self._quantiles.get(q)
        if value is None:
            value = self._quantiles[q] = live.quantile(q)
        return value

    def summary(self, now: float) -> LatencySummary:
        """Rolling summary; an empty or fully-expired window answers
        the all-zero :meth:`LatencySummary.empty` (count 0, zero
        quantiles)."""
        return self._live(now).summary()
