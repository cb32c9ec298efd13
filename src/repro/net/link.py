"""Interfaces (NICs) and links.

An :class:`Interface` owns an egress qdisc and a transmit rate — matching
how the paper's testbed emulates per-pod link speeds with ``tc`` on veth
interfaces. A :class:`Link` joins exactly two interfaces and adds
propagation delay. Serialization happens at the sending interface: one
packet at a time, ``size * 8 / rate`` seconds each.
"""

from __future__ import annotations

import typing

from ..sim import Simulator
from .packet import Packet
from .qdisc import FifoQdisc, Qdisc

if typing.TYPE_CHECKING:  # pragma: no cover
    from .device import Device


class Interface:
    """A simulated NIC with an egress queue and a fixed line rate."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate_bps: float,
        qdisc: Qdisc | None = None,
        owner: "Device | None" = None,
    ):
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.sim = sim
        self.name = name
        self.rate_bps = float(rate_bps)
        self.qdisc = qdisc if qdisc is not None else FifoQdisc()
        self.owner = owner
        self.link: Link | None = None
        self._transmitting = False
        self._retry_scheduled_at = float("inf")
        #: Optional hook called as ``observer(packet, now)`` when a packet
        #: leaves the egress queue — the observability plane attributes
        #: the packet's qdisc wait to the request its flow serves.
        self.queue_observer = None
        # Telemetry.
        self.bytes_transmitted = 0
        self.packets_transmitted = 0
        self.busy_time = 0.0
        # Flow-level (fluid) occupancy: analytic transfers never enqueue
        # packets here, so they account their wire time separately. The
        # FidelityPolicy sums busy_time + fluid_busy_time so fluid
        # traffic still counts toward contention detection.
        self.fluid_busy_time = 0.0
        self.fluid_bytes_transmitted = 0
        self.fluid_active = 0

    def set_rate(self, rate_bps: float) -> None:
        """Change the line rate (models ``tc`` re-shaping a veth; the
        chaos engine uses it for bandwidth-degradation faults).

        A packet already being serialized finishes at the old rate.
        """
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.rate_bps = float(rate_bps)

    def set_qdisc(self, qdisc: Qdisc) -> None:
        """Swap the egress discipline (models installing TC rules).

        Packets already queued in the old qdisc are migrated in order.
        """
        remaining = []
        while True:
            packet = self.qdisc.dequeue(self.sim.now)
            if packet is None:
                break
            remaining.append(packet)
        self.qdisc = qdisc
        for packet in remaining:
            qdisc.enqueue(packet, self.sim.now)
        self._try_send()

    def enqueue(self, packet: Packet) -> bool:
        """Hand a packet to the egress queue; False if tail-dropped."""
        if self.link is None:
            raise RuntimeError(f"interface {self.name} is not connected")
        accepted = self._qdisc_enqueue(packet)
        if accepted:
            self._try_send()
        return accepted

    def _qdisc_enqueue(self, packet: Packet) -> bool:
        """Enqueue with the qdisc's cost attributed to the qdisc section
        when the self-profiler is on (callers otherwise charge it to
        whatever subsystem happened to deliver the packet).  The
        ``_timing`` pre-check skips the ``run_section`` call entirely on
        dispatches the stride sampler is not timing — this runs twice
        per packet, so it must cost a branch, not a frame."""
        profiler = self.sim.profiler
        if profiler is None or not profiler._timing:
            return self.qdisc.enqueue(packet, self.sim.now)
        return profiler.run_section(
            "qdisc", self.qdisc.enqueue, packet, self.sim.now
        )

    def _qdisc_dequeue(self, now: float):
        profiler = self.sim.profiler
        if profiler is None or not profiler._timing:
            return self.qdisc.dequeue(now)
        return profiler.run_section("qdisc", self.qdisc.dequeue, now)

    @property
    def utilization_window_bytes(self) -> int:
        """Cumulative bytes sent; monitors diff this over time."""
        return self.bytes_transmitted

    # -- flow-level (fluid) accounting --------------------------------------
    def fluid_rate_bps(self) -> float:
        """Line rate available to flow-level transfers (shaped qdiscs
        cap it below the physical rate)."""
        return self.qdisc.fluid_rate_cap(self.rate_bps)

    def fluid_register(self, wire_bytes: int) -> None:
        """Account an analytic transfer's occupancy on this interface."""
        self.fluid_busy_time += wire_bytes * 8.0 / self.fluid_rate_bps()
        self.fluid_bytes_transmitted += wire_bytes
        self.fluid_active += 1

    def fluid_release(self) -> None:
        self.fluid_active -= 1

    # -- transmitter --------------------------------------------------------
    def _try_send(self) -> None:
        if self._transmitting:
            return
        now = self.sim.now
        ready = self.qdisc.next_ready_time(now)
        if ready == float("inf"):
            return
        if ready > now:
            # Shaped qdisc: schedule one retry at the eligibility time.
            if self._retry_scheduled_at > ready:
                self._retry_scheduled_at = ready
                self.sim.call_at(ready, self._retry)
            return
        packet = self._qdisc_dequeue(now)
        if packet is None:
            # A shaped qdisc can report ready-now yet still refuse the
            # dequeue by a float hair (token refill rounding). Re-ask and
            # schedule a nudge so the interface can never stall with a
            # non-empty queue.
            ready = self.qdisc.next_ready_time(now)
            if ready != float("inf"):
                retry_at = max(ready, now + 1e-9)
                if self._retry_scheduled_at > retry_at:
                    self._retry_scheduled_at = retry_at
                    self.sim.call_at(retry_at, self._retry)
            return
        if self.queue_observer is not None:
            self.queue_observer(packet, now)
        self._transmitting = True
        tx_time = packet.size * 8.0 / self.rate_bps
        self.busy_time += tx_time
        self.sim.call_later(tx_time, self._finish_transmit, packet)

    def _retry(self) -> None:
        self._retry_scheduled_at = float("inf")
        self._try_send()

    def _finish_transmit(self, packet: Packet) -> None:
        self._transmitting = False
        self.bytes_transmitted += packet.size
        self.packets_transmitted += 1
        self.link.carry(packet, self)
        self._try_send()

    def __repr__(self):
        return f"<Interface {self.name} rate={self.rate_bps:.0f}bps qlen={len(self.qdisc)}>"


class Link:
    """A point-to-point link between two interfaces with propagation delay."""

    def __init__(self, sim: Simulator, a: Interface, b: Interface, delay: float = 0.0):
        if a.link is not None or b.link is not None:
            raise RuntimeError("interface already connected")
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.sim = sim
        self.a = a
        self.b = b
        self.delay = float(delay)
        a.link = self
        b.link = self

    def set_delay(self, delay: float) -> None:
        """Change the propagation delay (chaos latency faults). Packets
        already in flight keep the delay they departed with."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self.delay = float(delay)

    def peer_of(self, interface: Interface) -> Interface:
        if interface is self.a:
            return self.b
        if interface is self.b:
            return self.a
        raise ValueError("interface not on this link")

    def carry(self, packet: Packet, sender: Interface) -> None:
        """Deliver ``packet`` to the far end after the propagation delay."""
        receiver = self.b if sender is self.a else self.peer_of(sender)
        packet.hops += 1
        self.sim.call_later(self.delay, self._deliver, receiver, packet)

    @staticmethod
    def _deliver(receiver: Interface, packet: Packet) -> None:
        if receiver.owner is None:
            raise RuntimeError(f"interface {receiver.name} has no owner device")
        receiver.owner.receive(packet, receiver)

    def __repr__(self):
        return f"<Link {self.a.name} <-> {self.b.name} delay={self.delay}>"
