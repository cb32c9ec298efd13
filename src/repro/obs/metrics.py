"""Streaming metrics: counters, gauges, log-linear histograms.

Design constraints (ISSUE 3):

* **Bounded memory.**  A histogram never stores samples, only sparse
  bucket counts.  A bucket index is ``decade * bins_per_decade + sub``
  where ``sub`` linearly subdivides the decade, so the relative width
  of every bucket is at most ``9 / bins_per_decade`` — the classic
  HDR-histogram trade of a fixed relative quantile error for O(1)
  recording and O(buckets) space.
* **Exactly mergeable.**  Bucket counts are integers, so merging two
  histograms (or two registry snapshots from different worker
  processes) is associative and commutative on counts — quantiles of a
  merge never depend on merge order.  (The ``sum`` field is a float
  accumulator and is only associative up to float rounding.)
* **Deterministic snapshots.**  ``snapshot()`` emits plain dicts with
  sorted keys, so serializing a snapshot is byte-stable across runs
  and across serial vs. parallel execution.
"""

from __future__ import annotations

import hashlib
import json
import math

from ..util.stats import LatencySummary


class Counter:
    """A monotonically increasing count (requests, errors, retransmits)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, open connections)."""

    __slots__ = ("value", "maximum")

    def __init__(self) -> None:
        self.value = 0.0
        self.maximum = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)
        if self.value > self.maximum:
            self.maximum = self.value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class LogLinearHistogram:
    """HDR-style log-linear histogram over positive values.

    Values in ``[lowest, highest)`` land in a bucket whose relative
    width is ``9 / bins_per_decade``; quantiles are reported as bucket
    midpoints clamped to the observed ``[min, max]``, so the relative
    quantile error is bounded by the bucket width.  Values below
    ``lowest`` (including zero) share one underflow bucket; values at
    or above ``highest`` share one overflow bucket.
    """

    __slots__ = (
        "lowest", "highest", "bins_per_decade",
        "counts", "count", "sum", "sum_sq", "minimum", "maximum",
        "_exp_min",
    )

    def __init__(
        self,
        lowest: float = 1e-6,
        highest: float = 1e4,
        bins_per_decade: int = 90,
    ) -> None:
        if not (0 < lowest < highest):
            raise ValueError("need 0 < lowest < highest")
        if bins_per_decade < 1:
            raise ValueError("bins_per_decade must be >= 1")
        self.lowest = float(lowest)
        self.highest = float(highest)
        self.bins_per_decade = int(bins_per_decade)
        self._exp_min = math.floor(math.log10(self.lowest) + 1e-9)
        self.counts: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.sum_sq = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    # -- recording ----------------------------------------------------

    def _index(self, value: float) -> int:
        if value < self.lowest:
            return -1  # underflow bucket
        if value >= self.highest:
            return self._overflow_index()
        exponent = math.floor(math.log10(value) + 1e-12)
        mantissa = value / (10.0 ** exponent)  # in [1, 10)
        sub = int((mantissa - 1.0) * self.bins_per_decade / 9.0)
        sub = min(max(sub, 0), self.bins_per_decade - 1)
        return (exponent - self._exp_min) * self.bins_per_decade + sub

    def _overflow_index(self) -> int:
        decades = math.ceil(math.log10(self.highest / self.lowest) - 1e-9)
        return decades * self.bins_per_decade

    def _bucket_bounds(self, index: int) -> tuple[float, float]:
        if index < 0:
            return (0.0, self.lowest)
        if index >= self._overflow_index():
            return (self.highest, self.highest)
        decade, sub = divmod(index, self.bins_per_decade)
        base = 10.0 ** (self._exp_min + decade)
        width = 9.0 * base / self.bins_per_decade
        low = base + sub * width
        return (low, low + width)

    def record(self, value: float, count: int = 1) -> None:
        value = float(value)
        index = self._index(value)
        self.counts[index] = self.counts.get(index, 0) + count
        self.count += count
        self.sum += value * count
        self.sum_sq += value * value * count
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    # -- queries ------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        variance = self.sum_sq / self.count - self.mean**2
        return math.sqrt(max(variance, 0.0))

    def quantile(self, q: float) -> float:
        """The q-th percentile (``q`` in [0, 100]) as a bucket midpoint
        clamped to the observed range; 0.0 when empty."""
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                low, high = self._bucket_bounds(index)
                mid = (low + high) / 2.0
                return min(max(mid, self.minimum), self.maximum)
        return self.maximum  # pragma: no cover - unreachable

    def summary(self) -> LatencySummary:
        if self.count == 0:
            return LatencySummary.empty()
        return LatencySummary(
            count=self.count,
            mean=self.mean,
            p50=self.quantile(50.0),
            p90=self.quantile(90.0),
            p99=self.quantile(99.0),
            p999=self.quantile(99.9),
            maximum=self.maximum,
            minimum=self.minimum,
            stddev=self.stddev,
        )

    # -- merge / serialization ----------------------------------------

    def _check_compatible(self, other: "LogLinearHistogram") -> None:
        if (
            self.lowest != other.lowest
            or self.highest != other.highest
            or self.bins_per_decade != other.bins_per_decade
        ):
            raise ValueError("cannot merge histograms with different bounds")

    def merge(self, other: "LogLinearHistogram") -> None:
        """Fold ``other`` into this histogram (exact on bucket counts)."""
        self._check_compatible(other)
        for index, count in other.counts.items():
            self.counts[index] = self.counts.get(index, 0) + count
        self.count += other.count
        self.sum += other.sum
        self.sum_sq += other.sum_sq
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def copy(self) -> "LogLinearHistogram":
        clone = LogLinearHistogram(self.lowest, self.highest, self.bins_per_decade)
        clone.merge(self)
        return clone

    def to_dict(self) -> dict:
        return {
            "lowest": self.lowest,
            "highest": self.highest,
            "bins_per_decade": self.bins_per_decade,
            "counts": {str(i): self.counts[i] for i in sorted(self.counts)},
            "count": self.count,
            "sum": self.sum,
            "sum_sq": self.sum_sq,
            "min": None if self.count == 0 else self.minimum,
            "max": None if self.count == 0 else self.maximum,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LogLinearHistogram":
        hist = cls(data["lowest"], data["highest"], data["bins_per_decade"])
        hist.counts = {int(i): int(n) for i, n in data["counts"].items()}
        hist.count = int(data["count"])
        hist.sum = float(data["sum"])
        hist.sum_sq = float(data["sum_sq"])
        hist.minimum = math.inf if data["min"] is None else float(data["min"])
        hist.maximum = -math.inf if data["max"] is None else float(data["max"])
        return hist


def summary_from_histograms(hists) -> LatencySummary:
    """Merge any number of compatible histograms into one summary."""
    hists = list(hists)
    if not hists:
        return LatencySummary.empty()
    merged = hists[0].copy()
    for hist in hists[1:]:
        merged.merge(hist)
    return merged.summary()


def _metric_key(name: str, labels: dict) -> str:
    """Canonical string key: ``name{k1=v1,k2=v2}`` with sorted labels."""
    if not labels:
        return name
    body = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{body}}}"


def parse_metric_key(key: str) -> tuple[str, dict]:
    """Inverse of the key format: ``name{k=v,...}`` → (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    body = body.rstrip("}")
    labels = {}
    if body:
        for pair in body.split(","):
            k, _, v = pair.partition("=")
            labels[k] = v
    return name, labels


class MetricsRegistry:
    """Get-or-create home for every metric, keyed by name + labels.

    The registry is the process-local sink; :meth:`snapshot` produces a
    plain-dict, JSON-stable image that crosses process boundaries, and
    :func:`merge_snapshots` reduces shard snapshots deterministically
    (counters sum, gauges keep the max, histogram buckets add).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, LogLinearHistogram] = {}
        #: (name, *label items in call order) -> canonical key.  One
        #: entry per series and call-site label order, so it is bounded
        #: by the series the registry holds.
        self._keys: dict[tuple, str] = {}

    # -- get-or-create ------------------------------------------------

    def _key(self, name: str, labels: dict) -> str:
        """``_metric_key(name, labels)``, memoised per registry.

        Only all-``str`` label sets are memoised: ``1``, ``1.0`` and
        ``True`` hash and compare equal but format differently."""
        memo = (name, *labels.items())
        try:
            key = self._keys.get(memo)
        except TypeError:  # an unhashable label value
            return _metric_key(name, labels)
        if key is None:
            key = _metric_key(name, labels)
            if all(type(value) is str for value in labels.values()):
                self._keys[memo] = key
        return key

    def counter(self, name: str, **labels) -> Counter:
        key = self._key(name, labels)
        if key not in self._counters:
            self._counters[key] = Counter()
        return self._counters[key]

    def gauge(self, name: str, **labels) -> Gauge:
        key = self._key(name, labels)
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def histogram(
        self,
        name: str,
        lowest: float = 1e-6,
        highest: float = 1e4,
        bins_per_decade: int = 90,
        **labels,
    ) -> LogLinearHistogram:
        key = self._key(name, labels)
        if key not in self._histograms:
            self._histograms[key] = LogLinearHistogram(
                lowest=lowest, highest=highest, bins_per_decade=bins_per_decade
            )
        return self._histograms[key]

    # -- label-subset queries -----------------------------------------

    @staticmethod
    def _matches(key: str, name: str, match: dict) -> bool:
        key_name, labels = parse_metric_key(key)
        if key_name != name:
            return False
        return all(labels.get(k) == str(v) for k, v in match.items())

    def counter_total(self, name: str, **match) -> float:
        """Sum of every counter named ``name`` whose labels ⊇ ``match``."""
        return sum(
            counter.value
            for key, counter in self._counters.items()
            if self._matches(key, name, match)
        )

    def histograms_matching(self, name: str, **match) -> list[LogLinearHistogram]:
        return [
            hist
            for key, hist in sorted(self._histograms.items())
            if self._matches(key, name, match)
        ]

    # -- snapshot / merge ---------------------------------------------

    def snapshot(self) -> dict:
        return {
            "counters": {k: self._counters[k].value for k in sorted(self._counters)},
            "gauges": {
                k: {"value": g.value, "max": g.maximum}
                for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                k: self._histograms[k].to_dict() for k in sorted(self._histograms)
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        registry = cls()
        for key, value in snapshot.get("counters", {}).items():
            counter = Counter()
            counter.value = value
            registry._counters[key] = counter
        for key, data in snapshot.get("gauges", {}).items():
            gauge = Gauge()
            gauge.value = data["value"]
            gauge.maximum = data["max"]
            registry._gauges[key] = gauge
        for key, data in snapshot.get("histograms", {}).items():
            registry._histograms[key] = LogLinearHistogram.from_dict(data)
        return registry


def merge_snapshots(*snapshots: dict) -> dict:
    """Deterministic reduction of registry snapshots across shards.

    Counters sum; gauges keep the maximum (the only order-free choice
    for a last-value metric); histogram buckets add exactly.  The
    result is independent of argument order for everything except
    float rounding in counter/histogram sums.
    """
    merged = MetricsRegistry()
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            merged._counters.setdefault(key, Counter()).value += value
        for key, data in snapshot.get("gauges", {}).items():
            gauge = merged._gauges.setdefault(key, Gauge())
            gauge.value = max(gauge.value, data["value"])
            gauge.maximum = max(gauge.maximum, data["max"])
        for key, data in snapshot.get("histograms", {}).items():
            hist = LogLinearHistogram.from_dict(data)
            if key in merged._histograms:
                merged._histograms[key].merge(hist)
            else:
                merged._histograms[key] = hist
    return merged.snapshot()


def snapshot_digest(snapshot: dict) -> str:
    """Short content hash of a snapshot — equal digests ⇒ identical
    metrics, the cheap way to assert serial/parallel determinism."""
    payload = json.dumps(snapshot, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:12]
