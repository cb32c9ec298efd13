"""Unit tests for the repro.obs metrics registry."""

import math

import pytest

from repro.obs import (
    Counter,
    Gauge,
    LogLinearHistogram,
    MetricsRegistry,
    merge_snapshots,
    snapshot_digest,
    summary_from_histograms,
)
from repro.obs.metrics import parse_metric_key


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_gauge_tracks_max(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(3)
        gauge.dec(6)
        assert gauge.value == 2
        assert gauge.maximum == 8


class TestHistogram:
    def test_basic_stats(self):
        hist = LogLinearHistogram()
        for value in (0.001, 0.002, 0.003, 0.004):
            hist.record(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(0.0025)
        assert hist.minimum == 0.001
        assert hist.maximum == 0.004

    def test_empty_quantile_and_summary(self):
        hist = LogLinearHistogram()
        assert hist.quantile(50) == 0.0
        assert hist.summary().count == 0

    def test_quantile_relative_error_bound(self):
        bins = 90
        hist = LogLinearHistogram(bins_per_decade=bins)
        values = [0.0001 * (1.07**i) for i in range(200)]
        for value in values:
            hist.record(value)
        values.sort()
        for q in (10, 50, 90, 99):
            true = values[max(0, math.ceil(q / 100 * len(values)) - 1)]
            estimate = hist.quantile(q)
            assert abs(estimate - true) / true <= 9.0 / bins + 1e-9

    def test_quantile_clamped_to_observed_range(self):
        hist = LogLinearHistogram()
        hist.record(0.005)
        assert hist.quantile(0) == 0.005
        assert hist.quantile(100) == 0.005

    def test_underflow_and_overflow_buckets(self):
        hist = LogLinearHistogram(lowest=1e-6, highest=1e4)
        hist.record(0.0)
        hist.record(1e9)
        assert hist.count == 2
        assert hist.quantile(1) <= 1e-6
        # The overflow bucket reports the histogram bound; the true
        # extreme survives in .maximum.
        assert hist.quantile(99) == pytest.approx(1e4)
        assert hist.maximum == 1e9

    def test_merge_exact_on_counts(self):
        a = LogLinearHistogram()
        b = LogLinearHistogram()
        both = LogLinearHistogram()
        values = [0.001 * (1 + i) for i in range(100)]
        for i, value in enumerate(values):
            (a if i % 2 else b).record(value)
            both.record(value)
        a.merge(b)
        assert a.counts == both.counts
        assert a.count == both.count
        for q in (50, 90, 99):
            assert a.quantile(q) == both.quantile(q)

    def test_merge_rejects_incompatible_bounds(self):
        with pytest.raises(ValueError):
            LogLinearHistogram(bins_per_decade=90).merge(
                LogLinearHistogram(bins_per_decade=45)
            )

    def test_dict_roundtrip(self):
        hist = LogLinearHistogram()
        for value in (0.01, 0.02, 0.5):
            hist.record(value)
        clone = LogLinearHistogram.from_dict(hist.to_dict())
        assert clone.counts == hist.counts
        assert clone.summary() == hist.summary()

    def test_summary_from_histograms_empty(self):
        assert summary_from_histograms([]).count == 0


class TestRegistry:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a", x="1") is registry.counter("a", x="1")
        assert registry.counter("a", x="1") is not registry.counter("a", x="2")

    def test_label_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("m", a="1", b="2").inc()
        assert registry.counter("m", b="2", a="1").value == 1

    def test_memoised_key_is_canonical_in_any_label_order(self):
        import itertools

        from repro.obs.metrics import _metric_key

        labels = {"src": "a", "dst": "b", "class": "LS"}
        registry = MetricsRegistry()
        for order in itertools.permutations(labels):
            ordered = {k: labels[k] for k in order}
            for _ in range(2):  # miss, then memo hit
                assert registry._key("m", ordered) == _metric_key("m", labels)
        assert len(registry._keys) == 6

    def test_equal_but_differently_formatted_labels_stay_apart(self):
        registry = MetricsRegistry()
        for value in (1, 1.0, True):
            registry.counter("m", x=value).inc()
        assert sorted(registry.snapshot()["counters"]) == [
            "m{x=1.0}", "m{x=1}", "m{x=True}",
        ]

    def test_counter_total_subset_match(self):
        registry = MetricsRegistry()
        registry.counter("req", src="a", dst="x").inc(2)
        registry.counter("req", src="b", dst="x").inc(3)
        registry.counter("req", src="b", dst="y").inc(5)
        assert registry.counter_total("req") == 10
        assert registry.counter_total("req", dst="x") == 5
        assert registry.counter_total("req", src="b", dst="y") == 5
        assert registry.counter_total("other") == 0

    def test_parse_metric_key_roundtrip(self):
        assert parse_metric_key("plain") == ("plain", {})
        assert parse_metric_key("m{a=1,b=x}") == ("m", {"a": "1", "b": "x"})

    def test_snapshot_sorted_and_digestible(self):
        registry = MetricsRegistry()
        registry.counter("z").inc()
        registry.counter("a").inc()
        registry.gauge("g").set(4)
        registry.histogram("h").record(0.01)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"]) == ["a", "z"]
        assert snapshot_digest(snapshot) == snapshot_digest(registry.snapshot())

    def test_from_snapshot_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("c", k="v").inc(7)
        registry.gauge("g").set(2)
        registry.histogram("h").record(0.25)
        restored = MetricsRegistry.from_snapshot(registry.snapshot())
        assert snapshot_digest(restored.snapshot()) == snapshot_digest(
            registry.snapshot()
        )

    def test_merge_snapshots_reduces_shards(self):
        shard1 = MetricsRegistry()
        shard2 = MetricsRegistry()
        shard1.counter("req").inc(2)
        shard2.counter("req").inc(3)
        shard1.gauge("depth").set(5)
        shard2.gauge("depth").set(9)
        shard1.histogram("lat").record(0.01)
        shard2.histogram("lat").record(0.04)
        merged = merge_snapshots(shard1.snapshot(), shard2.snapshot())
        assert merged["counters"]["req"] == 5
        assert merged["gauges"]["depth"]["max"] == 9
        restored = MetricsRegistry.from_snapshot(merged)
        assert restored.histograms_matching("lat")[0].count == 2

    def test_merge_snapshots_order_independent_digest(self):
        shard1 = MetricsRegistry()
        shard2 = MetricsRegistry()
        shard1.counter("req").inc(2)
        shard2.counter("req").inc(3)
        shard1.histogram("lat").record(0.01)
        shard2.histogram("lat").record(0.04)
        ab = merge_snapshots(shard1.snapshot(), shard2.snapshot())
        ba = merge_snapshots(shard2.snapshot(), shard1.snapshot())
        assert snapshot_digest(ab) == snapshot_digest(ba)
