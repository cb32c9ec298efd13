"""Sliding-window counters and histograms (the online plane's core)."""

import pytest

from repro.obs import WindowedCounter, WindowedGauge, WindowedHistogram


class TestWindowedCounter:
    def test_counts_within_window(self):
        counter = WindowedCounter(window=4.0)
        counter.add(0.1)
        counter.add(1.0)
        counter.add(2.0, amount=3.0)
        assert counter.total(2.0) == 5.0

    def test_old_slices_expire(self):
        counter = WindowedCounter(window=4.0, slices=4)
        counter.add(0.1)
        counter.add(5.0)
        # At t=5 the window starts at a slice boundary >= 1.0: the t=0.1
        # sample expired, only the t=5 sample remains.
        assert counter.window_start(5.0) > 0.1
        assert counter.total(5.0) == 1.0

    def test_stale_add_is_dropped(self):
        counter = WindowedCounter(window=2.0, slices=2)
        counter.add(10.0)
        counter.add(0.5)  # far older than the live window
        assert counter.total(10.0) == 1.0

    def test_rate_uses_nominal_window(self):
        counter = WindowedCounter(window=2.0)
        for t in (0.1, 0.5, 1.0, 1.5):
            counter.add(t)
        assert counter.rate(1.5) == pytest.approx(4 / 2.0)

    def test_query_is_read_only(self):
        counter = WindowedCounter(window=1.0)
        counter.add(0.5)
        assert counter.total(0.5) == counter.total(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedCounter(window=0.0)
        with pytest.raises(ValueError):
            WindowedCounter(window=1.0, slices=0)


class TestWindowedGauge:
    def test_held_level_counts_without_further_sets(self):
        gauge = WindowedGauge(window=4.0)
        gauge.set(0.0, 2.0)
        # No further sets: the level is held, queries settle it.
        assert gauge.mean(2.0) == pytest.approx(2.0)
        assert gauge.maximum(2.0) == 2.0
        assert gauge.last == 2.0

    def test_time_weighted_mean_not_sample_mean(self):
        gauge = WindowedGauge(window=4.0)
        gauge.set(0.0, 0.0)
        gauge.set(1.0, 4.0)
        # Signal: 0 for 1 s, then 4 for 1 s.  A sample average would say
        # 2.0 regardless of hold times; so does this one — but shift the
        # switch point and the time weighting shows.
        assert gauge.mean(2.0) == pytest.approx(2.0)
        gauge2 = WindowedGauge(window=4.0)
        gauge2.set(0.0, 0.0)
        gauge2.set(3.0, 4.0)  # 0 held 3 s, 4 held 1 s
        # Slice-aligned window start at t=0.5: covered = [0.5, 4.0).
        assert gauge2.mean(4.0) == pytest.approx(4.0 / 3.5)

    def test_mean_uses_covered_seconds_only(self):
        gauge = WindowedGauge(window=4.0, slices=4)
        gauge.set(3.0, 6.0)  # covered: [3, 4) only, within window [0, 4]
        assert gauge.mean(4.0) == pytest.approx(6.0)

    def test_old_slices_expire(self):
        gauge = WindowedGauge(window=4.0, slices=4)
        gauge.set(0.0, 10.0)
        gauge.set(1.0, 0.0)
        # At t=10 the window covers [6, 10]: the 10.0 epoch expired and
        # the held 0.0 fills every live slice.
        assert gauge.mean(10.0) == 0.0
        assert gauge.maximum(10.0) == 0.0

    def test_spike_overwritten_at_same_time_registers_in_max(self):
        gauge = WindowedGauge(window=4.0)
        gauge.set(1.0, 5.0)
        gauge.set(1.0, 1.0)  # instantaneous spike, zero hold time
        assert gauge.maximum(1.0) == 5.0
        # The spike carries no duration: the mean sees only the 1.0 hold.
        assert gauge.mean(2.0) == pytest.approx(1.0)

    def test_stale_set_is_dropped(self):
        gauge = WindowedGauge(window=4.0)
        gauge.set(2.0, 3.0)
        gauge.set(0.5, 100.0)  # the signal already moved past t=0.5
        assert gauge.maximum(3.0) == 3.0
        assert gauge.mean(3.0) == pytest.approx(3.0)

    def test_long_idle_settle_is_slice_bounded(self):
        gauge = WindowedGauge(window=4.0, slices=4)
        gauge.set(0.0, 1.0)
        # Settling across a huge gap must not iterate per elapsed slice
        # width: only the live window's overlap is written.
        assert gauge.mean(1e6) == pytest.approx(1.0)
        assert len(gauge.slices) <= 4

    def test_validation(self):
        with pytest.raises(ValueError):
            WindowedGauge(window=0.0)
        with pytest.raises(ValueError):
            WindowedGauge(window=1.0, slices=0)


class TestWindowedHistogram:
    def test_empty_window_quantile_is_zero(self):
        hist = WindowedHistogram(window=4.0)
        assert hist.count(0.0) == 0
        assert hist.quantile(0.0, 99.0) == 0.0

    def test_single_sample(self):
        hist = WindowedHistogram(window=4.0)
        hist.record(1.0, 0.010)
        assert hist.count(1.0) == 1
        assert hist.quantile(1.0, 50.0) == pytest.approx(0.010, rel=0.01)
        assert hist.quantile(1.0, 99.0) == pytest.approx(0.010, rel=0.01)

    def test_rolling_forgets_old_samples(self):
        hist = WindowedHistogram(window=2.0, slices=2)
        hist.record(0.1, 1.0)     # a huge early outlier
        hist.record(3.0, 0.001)
        # By t=3 the outlier's slice has expired entirely.
        assert hist.count(3.0) == 1
        assert hist.quantile(3.0, 99.0) == pytest.approx(0.001, rel=0.01)

    def test_exact_boundary_tick_lands_in_its_slice(self):
        # t == k * slice_width must land in slice k (the +1e-9 nudge).
        hist = WindowedHistogram(window=4.0, slices=8)  # slice width 0.5
        hist.record(0.5, 0.010)   # boundary: slice 1, not slice 0
        hist.record(4.0, 0.020)   # boundary: slice 8; live = slices 1..8
        assert hist.window_start(4.0) == pytest.approx(0.5)
        assert hist.count(4.0) == 2
        # One slice later the boundary sample's slice expires.
        assert hist.count(4.5) == 1

    def test_membership_predicate_is_slice_aligned(self):
        hist = WindowedHistogram(window=4.0, slices=8)
        samples = [(0.3, 0.001), (1.2, 0.002), (2.9, 0.004), (4.1, 0.008)]
        for t, v in samples:
            hist.record(t, v)
        now = 4.1
        start = hist.window_start(now)
        expected = [v for t, v in samples if t >= start]
        assert hist.count(now) == len(expected)

    def test_summary_matches_merged(self):
        hist = WindowedHistogram(window=4.0)
        for i in range(100):
            hist.record(i * 0.01, 0.001 * (i + 1))
        summary = hist.summary(1.0)
        assert summary.count == hist.count(1.0)
        assert summary.p99 == hist.quantile(1.0, 99.0)

    def test_memory_bounded_by_slices(self):
        hist = WindowedHistogram(window=1.0, slices=4)
        for i in range(10_000):
            hist.record(i * 0.01, 0.005)
        assert len(hist.slices) <= 4


class TestHistogramCache:
    """The cached merge and quantiles must never outlive a change to the
    live slices."""

    def test_record_in_the_same_instant_invalidates(self):
        hist = WindowedHistogram(window=4.0)
        hist.record(1.0, 0.001)
        assert hist.quantile(1.0, 99.0) == pytest.approx(0.001, rel=0.01)
        hist.record(1.0, 1.0)
        assert hist.quantile(1.0, 99.0) == pytest.approx(1.0, rel=0.01)
        assert hist.count(1.0) == 2

    def test_stale_record_into_an_older_live_slice_invalidates(self):
        hist = WindowedHistogram(window=4.0, slices=8)  # slice width 0.5
        hist.record(3.0, 0.001)
        assert hist.quantile(3.0, 99.0) == pytest.approx(0.001, rel=0.01)
        hist.record(1.2, 2.0)  # stale, but slice 2 is still live at t=3
        assert 2 in hist.slices
        assert hist.quantile(3.0, 99.0) == pytest.approx(2.0, rel=0.01)
        assert hist.summary(3.0).maximum == 2.0

    def test_expiry_by_time_alone_invalidates(self):
        hist = WindowedHistogram(window=2.0, slices=4)  # slice width 0.5
        hist.record(0.2, 5.0)
        hist.record(1.9, 0.001)
        assert hist.quantile(1.9, 99.0) == pytest.approx(5.0, rel=0.01)
        # No record in between: only the clock expires the outlier.
        assert hist.quantile(2.1, 99.0) == pytest.approx(0.001, rel=0.01)
        assert hist.count(2.1) == 1
        assert hist.summary(2.1).maximum == 0.001

    def test_mutating_merged_does_not_touch_the_cache(self):
        hist = WindowedHistogram(window=4.0)
        for i in range(20):
            hist.record(1.0, 0.001 * (i + 1))
        before = (hist.quantile(1.0, 50.0), hist.summary(1.0))
        merged = hist.merged(1.0)
        for _ in range(1000):
            merged.record(9.0)
        merged.counts.clear()
        assert hist.quantile(1.0, 50.0) == before[0]
        assert hist.summary(1.0) == before[1]
        assert hist.merged(1.0).count == 20


class TestZeroSampleContract:
    """An empty or fully-expired window must answer well-defined zeros —
    never NaN, never an index error, never a stale value."""

    def test_empty_counter_total_and_rate_are_zero(self):
        counter = WindowedCounter(window=4.0)
        assert counter.total(0.0) == 0.0
        assert counter.rate(0.0) == 0.0
        assert counter.rate(1e9) == 0.0

    def test_fully_expired_counter_answers_zero(self):
        counter = WindowedCounter(window=2.0, slices=2)
        counter.add(0.5, amount=7.0)
        assert counter.total(0.5) == 7.0
        assert counter.total(100.0) == 0.0
        assert counter.rate(100.0) == 0.0

    def test_empty_histogram_summary_is_all_zero(self):
        hist = WindowedHistogram(window=4.0)
        summary = hist.summary(0.0)
        assert summary.count == 0
        assert (summary.p50, summary.p99) == (0.0, 0.0)
        assert hist.quantile(0.0, 50.0) == 0.0

    def test_fully_expired_histogram_answers_zero(self):
        hist = WindowedHistogram(window=2.0, slices=2)
        hist.record(0.5, 1.0)
        assert hist.quantile(0.5, 99.0) > 0.0
        assert hist.count(100.0) == 0
        assert hist.quantile(100.0, 99.0) == 0.0
        assert hist.summary(100.0).count == 0

    def test_never_set_gauge_is_zero(self):
        gauge = WindowedGauge(window=4.0)
        assert gauge.last == 0.0
        assert gauge.mean(0.0) == 0.0
        assert gauge.maximum(0.0) == 0.0
        assert gauge.mean(1e9) == 0.0
        assert gauge.maximum(1e9) == 0.0

    def test_zero_answers_do_not_resurrect_old_samples(self):
        # Querying an expired window must also *drop* the stale slices:
        # a later in-window sample stands alone.
        hist = WindowedHistogram(window=2.0, slices=2)
        hist.record(0.5, 1.0)
        assert hist.quantile(100.0, 99.0) == 0.0
        hist.record(100.5, 0.001)
        assert hist.count(100.5) == 1
        assert hist.quantile(100.5, 99.0) == pytest.approx(0.001, rel=0.01)
