"""Queueing disciplines for NIC egress queues.

These model the Linux traffic-control (``tc``) machinery the paper's
prototype programs (§4.3): packets are enqueued by the forwarding path and
dequeued by the link transmitter. A qdisc can drop on enqueue (tail drop)
and can delay dequeue (shaping).

Provided disciplines:

* :class:`FifoQdisc` — pfifo/bfifo tail-drop queue.
* :class:`PrioQdisc` — strict-priority bands (like Linux ``prio``).
* :class:`WeightedPrioQdisc` — *nearly-strict* priority: the high band is
  guaranteed up to a fraction (default 95%, the paper's setting) of the
  link via deficit counters, so low-priority traffic cannot starve.
* :class:`DRRQdisc` — deficit round robin with per-class quanta.
* :class:`TokenBucketQdisc` — rate shaping (HTB-style leaf).

All dequeue-side scheduling is work-conserving except the token bucket.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from .packet import Packet, Tos

Classifier = Callable[[Packet], int]


def classify_by_tos(packet: Packet) -> int:
    """Band 0 for HIGH, band 1 for everything else."""
    return 0 if packet.tos == Tos.HIGH else 1


def classify_by_dst(high_priority_dsts: set) -> Classifier:
    """The paper's prototype rule: packets toward the high-priority pod's
    IP go to the high band (§4.3 item 3)."""

    def classifier(packet: Packet) -> int:
        return 0 if packet.dst in high_priority_dsts else 1

    return classifier


class QdiscStats:
    """Counters every qdisc maintains."""

    __slots__ = (
        "enqueued", "dequeued", "dropped", "bytes_sent", "bytes_dropped",
        "queue_wait_seconds",
    )

    def __init__(self):
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.bytes_sent = 0
        self.bytes_dropped = 0
        self.queue_wait_seconds = 0.0

    def as_dict(self) -> dict:
        return {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "bytes_sent": self.bytes_sent,
            "bytes_dropped": self.bytes_dropped,
            "queue_wait_seconds": self.queue_wait_seconds,
        }


class Qdisc:
    """Base queueing discipline."""

    def __init__(self):
        self.stats = QdiscStats()

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Queue ``packet``; return False if it was dropped."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Next packet to transmit, or None if nothing is eligible."""
        raise NotImplementedError

    def next_ready_time(self, now: float) -> float:
        """Earliest time a dequeue could succeed.

        ``now`` if a packet is eligible immediately, ``inf`` if empty,
        or a future instant for shaped qdiscs.
        """
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def backlog_bytes(self) -> int:
        raise NotImplementedError

    def fluid_rate_cap(self, line_rate_bps: float) -> float:
        """Rate a flow-level (fluid) transfer can push through this
        discipline. Work-conserving qdiscs pass the line rate through;
        shapers cap it at their configured rate."""
        return line_rate_bps

    # -- helpers ------------------------------------------------------------
    def _record_enqueue(self, packet: Packet) -> None:
        self.stats.enqueued += 1

    def _record_drop(self, packet: Packet) -> None:
        self.stats.dropped += 1
        self.stats.bytes_dropped += packet.size

    def _record_dequeue(self, packet: Packet, now: float | None = None) -> None:
        self.stats.dequeued += 1
        self.stats.bytes_sent += packet.size
        if now is not None and now > packet.enqueued_at:
            self.stats.queue_wait_seconds += now - packet.enqueued_at


class FifoQdisc(Qdisc):
    """Tail-drop FIFO bounded by bytes and/or packets (both optional).

    With ``ecn_threshold_bytes`` set, packets enqueued while the backlog
    exceeds the threshold are ECN-marked instead of waiting for a drop —
    the explicit congestion signal the transport can react to (§3.5's
    network->endpoint coordination in its standardized form).
    """

    def __init__(
        self,
        limit_bytes: int | None = None,
        limit_packets: int | None = None,
        ecn_threshold_bytes: int | None = None,
    ):
        super().__init__()
        self.limit_bytes = limit_bytes
        self.limit_packets = limit_packets
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._queue: deque[Packet] = deque()
        self._backlog = 0
        self.ecn_marked = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.limit_packets is not None and len(self._queue) >= self.limit_packets:
            self._record_drop(packet)
            return False
        if (
            self.limit_bytes is not None
            and self._backlog + packet.size > self.limit_bytes
            and self._queue
        ):
            self._record_drop(packet)
            return False
        if (
            self.ecn_threshold_bytes is not None
            and self._backlog >= self.ecn_threshold_bytes
        ):
            packet.ecn = True
            self.ecn_marked += 1
        packet.enqueued_at = now
        self._queue.append(packet)
        self._backlog += packet.size
        self._record_enqueue(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._backlog -= packet.size
        self._record_dequeue(packet, now)
        return packet

    def next_ready_time(self, now: float) -> float:
        return now if self._queue else float("inf")

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def backlog_bytes(self) -> int:
        return self._backlog


class PrioQdisc(Qdisc):
    """Strict priority across ``bands`` FIFO sub-queues (Linux ``prio``).

    Band 0 is always served first. Starvation of lower bands is possible —
    the paper deliberately uses *nearly*-strict scheduling instead
    (see :class:`WeightedPrioQdisc`).
    """

    def __init__(
        self,
        bands: int = 2,
        classifier: Classifier = classify_by_tos,
        limit_bytes_per_band: int | None = None,
        ecn_threshold_bytes: int | None = None,
    ):
        super().__init__()
        if bands < 2:
            raise ValueError("need at least 2 bands")
        self.bands = bands
        self.classifier = classifier
        self._queues = [
            FifoQdisc(
                limit_bytes=limit_bytes_per_band,
                ecn_threshold_bytes=ecn_threshold_bytes,
            )
            for _ in range(bands)
        ]

    def enqueue(self, packet: Packet, now: float) -> bool:
        band = self.classifier(packet)
        if not 0 <= band < self.bands:
            raise ValueError(f"classifier returned invalid band {band}")
        accepted = self._queues[band].enqueue(packet, now)
        if accepted:
            self._record_enqueue(packet)
        else:
            self._record_drop(packet)
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        for queue in self._queues:
            packet = queue.dequeue(now)
            if packet is not None:
                self._record_dequeue(packet, now)
                return packet
        return None

    def next_ready_time(self, now: float) -> float:
        return now if len(self) else float("inf")

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    @property
    def backlog_bytes(self) -> int:
        return sum(q.backlog_bytes for q in self._queues)

    def band_backlog(self, band: int) -> int:
        return self._queues[band].backlog_bytes


class WeightedPrioQdisc(Qdisc):
    """Nearly-strict two-band priority, the paper's §4.3 configuration.

    The high band receives up to ``high_share`` (default 0.95) of the link:
    byte-deficit counters give the high band a quantum of
    ``high_share / (1 - high_share)`` bytes for every byte of low-band
    service, and within its allowance the high band is always served first.
    With no high traffic the low band uses the full link (work conserving);
    with both backlogged the split converges to high_share : 1-high_share.
    """

    def __init__(
        self,
        classifier: Classifier = classify_by_tos,
        high_share: float = 0.95,
        limit_bytes_per_band: int | None = None,
        quantum_bytes: int = 15_000,
        ecn_threshold_bytes: int | None = None,
    ):
        super().__init__()
        if not 0.5 <= high_share < 1.0:
            raise ValueError("high_share must be in [0.5, 1.0)")
        self.high_share = high_share
        self.classifier = classifier
        self._high = FifoQdisc(
            limit_bytes=limit_bytes_per_band,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        self._low = FifoQdisc(
            limit_bytes=limit_bytes_per_band,
            ecn_threshold_bytes=ecn_threshold_bytes,
        )
        # Quanta proportional to the bandwidth split.
        self._high_quantum = int(quantum_bytes * high_share)
        self._low_quantum = max(1, int(quantum_bytes * (1.0 - high_share)))
        self._high_deficit = 0
        self._low_deficit = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        band = self.classifier(packet)
        queue = self._high if band == 0 else self._low
        accepted = queue.enqueue(packet, now)
        if accepted:
            self._record_enqueue(packet)
        else:
            self._record_drop(packet)
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        high_queue = self._high._queue
        low_queue = self._low._queue
        # Work conservation: only one band backlogged -> serve it fully.
        if not low_queue:
            if not high_queue:
                return None
            packet = self._high.dequeue(now)
            self._record_dequeue(packet, now)
            return packet
        if not high_queue:
            packet = self._low.dequeue(now)
            self._record_dequeue(packet, now)
            return packet
        # Both backlogged: deficit round robin with priority to the high
        # band whenever it has allowance.
        while True:
            head_high = high_queue[0]
            if self._high_deficit >= head_high.size:
                self._high_deficit -= head_high.size
                packet = self._high.dequeue(now)
                self._record_dequeue(packet, now)
                return packet
            head_low = low_queue[0]
            if self._low_deficit >= head_low.size:
                self._low_deficit -= head_low.size
                packet = self._low.dequeue(now)
                self._record_dequeue(packet, now)
                return packet
            # Neither band has allowance: replenish both quanta.
            self._high_deficit += self._high_quantum
            self._low_deficit += self._low_quantum

    def next_ready_time(self, now: float) -> float:
        return now if self._high._queue or self._low._queue else float("inf")

    def __len__(self) -> int:
        return len(self._high) + len(self._low)

    @property
    def backlog_bytes(self) -> int:
        return self._high.backlog_bytes + self._low.backlog_bytes

    @property
    def high_backlog_bytes(self) -> int:
        return self._high.backlog_bytes

    @property
    def low_backlog_bytes(self) -> int:
        return self._low.backlog_bytes


class DRRQdisc(Qdisc):
    """Deficit round robin over N classes with per-class quanta (bytes)."""

    def __init__(
        self,
        classifier: Classifier,
        quanta: list[int],
        limit_bytes_per_class: int | None = None,
    ):
        super().__init__()
        if not quanta or any(q <= 0 for q in quanta):
            raise ValueError("quanta must be positive")
        self.classifier = classifier
        self.quanta = list(quanta)
        self._queues = [
            FifoQdisc(limit_bytes=limit_bytes_per_class) for _ in quanta
        ]
        self._deficits = [0] * len(quanta)
        self._needs_replenish = [True] * len(quanta)
        self._active = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        cls = self.classifier(packet)
        if not 0 <= cls < len(self._queues):
            raise ValueError(f"classifier returned invalid class {cls}")
        accepted = self._queues[cls].enqueue(packet, now)
        if accepted:
            self._record_enqueue(packet)
        else:
            self._record_drop(packet)
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        if not len(self):
            return None
        classes = len(self._queues)
        # Upper bound on scheduler visits: each non-empty class needs at
        # most ceil(head/quantum) replenishing visits to send its head.
        max_visits = classes
        for index, queue in enumerate(self._queues):
            if len(queue):
                head_size = queue._queue[0].size
                max_visits += classes * (head_size // self.quanta[index] + 2)
        for _ in range(max_visits):
            index = self._active
            queue = self._queues[index]
            if len(queue):
                if self._needs_replenish[index]:
                    self._deficits[index] += self.quanta[index]
                    self._needs_replenish[index] = False
                head = queue._queue[0]
                if self._deficits[index] >= head.size:
                    self._deficits[index] -= head.size
                    packet = queue.dequeue(now)
                    self._record_dequeue(packet, now)
                    if not len(queue):
                        # Classic DRR: an emptied class forfeits its deficit.
                        self._deficits[index] = 0
                        self._needs_replenish[index] = True
                    return packet
            else:
                self._deficits[index] = 0
            # This class cannot send now: mark it for replenishment on its
            # next visit and move on.
            self._needs_replenish[index] = True
            self._active = (index + 1) % classes
        raise RuntimeError("DRR failed to make progress")  # pragma: no cover

    def next_ready_time(self, now: float) -> float:
        return now if len(self) else float("inf")

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def class_length(self, index: int) -> int:
        """Packets currently queued in class ``index``."""
        return len(self._queues[index])

    @property
    def backlog_bytes(self) -> int:
        return sum(q.backlog_bytes for q in self._queues)


class LossyQdisc(Qdisc):
    """Random packet loss in front of a child qdisc (``netem loss``-style).

    Each arriving packet is dropped with probability ``loss`` before the
    child ever sees it; everything else is delegated. The chaos engine
    wraps an interface's installed qdisc with this for the duration of a
    packet-loss fault and unwraps it afterwards, so it composes with
    whatever TC configuration (priority bands, shaping) is in place.

    Draws come from the supplied numpy ``Generator`` so loss patterns are
    reproducible from the simulation seed.
    """

    def __init__(self, child: Qdisc, loss: float, rng):
        super().__init__()
        if not 0.0 <= loss <= 1.0:
            raise ValueError("loss must be in [0, 1]")
        self.child = child
        self.loss = float(loss)
        self.rng = rng
        self.injected_drops = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.loss > 0.0 and self.rng.random() < self.loss:
            self.injected_drops += 1
            self._record_drop(packet)
            return False
        accepted = self.child.enqueue(packet, now)
        if accepted:
            self._record_enqueue(packet)
        else:
            self._record_drop(packet)
        return accepted

    def dequeue(self, now: float) -> Optional[Packet]:
        packet = self.child.dequeue(now)
        if packet is not None:
            self._record_dequeue(packet, now)
        return packet

    def next_ready_time(self, now: float) -> float:
        return self.child.next_ready_time(now)

    def fluid_rate_cap(self, line_rate_bps: float) -> float:
        return self.child.fluid_rate_cap(line_rate_bps)

    def __len__(self) -> int:
        return len(self.child)

    @property
    def backlog_bytes(self) -> int:
        return self.child.backlog_bytes


class TokenBucketQdisc(Qdisc):
    """Token-bucket shaping in front of a child qdisc (HTB-style leaf).

    Dequeues are only eligible when the bucket holds enough tokens for the
    head packet; :meth:`next_ready_time` tells the link transmitter when to
    try again.
    """

    def __init__(
        self,
        rate_bps: float,
        burst_bytes: int,
        child: Qdisc | None = None,
    ):
        super().__init__()
        if rate_bps <= 0 or burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_bps = float(rate_bps)
        self.burst_bytes = int(burst_bytes)
        self.child = child if child is not None else FifoQdisc()
        self._tokens = float(burst_bytes)
        self._last_refill = 0.0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._last_refill)
        self._tokens = min(
            float(self.burst_bytes), self._tokens + elapsed * self.rate_bps / 8.0
        )
        self._last_refill = now

    def enqueue(self, packet: Packet, now: float) -> bool:
        accepted = self.child.enqueue(packet, now)
        if accepted:
            self._record_enqueue(packet)
        else:
            self._record_drop(packet)
        return accepted

    def _head(self) -> Optional[Packet]:
        # Peek without consuming: rely on child FIFO internals; a
        # dequeue/re-enqueue peek would not be safe in general, so only
        # FifoQdisc children are supported.
        if isinstance(self.child, FifoQdisc):
            return self.child._queue[0] if self.child._queue else None
        raise TypeError("TokenBucketQdisc requires a FifoQdisc child")

    def dequeue(self, now: float) -> Optional[Packet]:
        head = self._head()
        if head is None:
            return None
        self._refill(now)
        if self._tokens < head.size:
            return None
        self._tokens -= head.size
        packet = self.child.dequeue(now)
        self._record_dequeue(packet, now)
        return packet

    def next_ready_time(self, now: float) -> float:
        head = self._head()
        if head is None:
            return float("inf")
        self._refill(now)
        if self._tokens >= head.size:
            return now
        deficit_bytes = head.size - self._tokens
        return now + deficit_bytes * 8.0 / self.rate_bps

    def fluid_rate_cap(self, line_rate_bps: float) -> float:
        return min(line_rate_bps, self.rate_bps)

    def __len__(self) -> int:
        return len(self.child)

    @property
    def backlog_bytes(self) -> int:
        return self.child.backlog_bytes
