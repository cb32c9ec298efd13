"""Flow-level (fluid) transport: analytic transfer completion.

The PR-5 bench profile shows per-packet transport simulation is ~92% of
all dispatched events.  On an *uncongested* path, those events compute
something a closed form predicts: the transfer completes after a
slow-start ramp plus a pipelined drain at the bottleneck rate.  The
fluid model computes exactly that and schedules ONE completion event per
message instead of hundreds of segment/ACK dispatches per hop.

Model (per transfer of ``S`` payload bytes over forwarding path ``P``):

* one-way pipelined latency: propagation of every hop, full wire bytes
  serialized at the slowest hop, one segment's serialization at every
  other hop (store-and-forward pipelining);
* slow-start ramp: the congestion window starts at the algorithm's
  initial window and doubles per RTT (byte counting) until it covers
  the bandwidth-delay product, after which the transfer is ack-clocked
  and drains at the bottleneck rate;
* sharing: concurrent fluid transfers on a link divide its rate
  (processor sharing), and the division is *live*: every arrival or
  departure settles each active transfer's drained bytes and
  reschedules its completion at the new equal share, so a transfer
  slows down when a flow joins its bottleneck and speeds back up when
  one leaves — work-conserving, like the ack-clocked packet path it
  replaces.  Packet-level contention beyond that is exactly what the
  :class:`~repro.transport.model.FidelityPolicy` exists to detect — a
  contended path never runs fluid in hybrid mode.

Ordering: completions on one connection are chained (a later send never
completes before an earlier one), so delivery keeps the in-order
contract of the packet path.  A connection downgrades to packet-level
permanently (never back), and only between transfers, so the two
mechanisms never interleave within a message.
"""

from __future__ import annotations

import math
import typing

from .cc import SCAVENGER_ALGORITHMS
from .connection import ConnectionEnd
from .model import FIDELITY_PACKET, TransportModel

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..net.link import Interface
    from ..net.topology import Network
    from .model import FidelityPolicy
    from .connection import TransportConfig

#: Scavenger congestion controls open with a smaller initial window
#: (see :class:`~repro.transport.cc.LedbatCC`); the fluid ramp honours it.
_SCAVENGER_INITIAL_SEGMENTS = 4


def one_way_latency(
    hops: typing.Sequence["Interface"],
    payload_bytes: int,
    mss: int,
    header_bytes: int,
    rates: typing.Sequence[float] | None = None,
) -> float:
    """Pipelined store-and-forward latency for ``payload_bytes``.

    The slowest hop serializes every wire byte; every other hop adds one
    segment's serialization (segments stream through back-to-back).
    ``rates`` overrides the per-hop rates (the caller passes
    sharing-adjusted rates for live transfers).
    """
    if not hops:
        return 0.0
    if rates is None:
        rates = [iface.fluid_rate_bps() for iface in hops]
    segments = max(1, math.ceil(payload_bytes / mss))
    wire = payload_bytes + segments * header_bytes
    seg_wire = min(wire, mss + header_bytes)
    slowest = min(range(len(hops)), key=lambda i: rates[i])
    total = wire * 8.0 / rates[slowest]
    for index, iface in enumerate(hops):
        total += iface.link.delay
        if index != slowest:
            total += seg_wire * 8.0 / rates[index]
    return total


def ack_path_latency(
    hops: typing.Sequence["Interface"], ack_bytes: int
) -> float:
    """Return-path latency of one ACK (propagation + serialization)."""
    total = 0.0
    for iface in hops:
        total += iface.link.delay + ack_bytes * 8.0 / iface.fluid_rate_bps()
    return total


def fluid_transfer_plan(
    size: int,
    forward: typing.Sequence["Interface"],
    reverse: typing.Sequence["Interface"],
    config: "TransportConfig",
    cc_name: str = "reno",
    rates: typing.Sequence[float] | None = None,
) -> tuple[float, float]:
    """Decompose a transfer into ``(fixed_time, drain_bytes)``.

    ``fixed_time`` covers the slow-start ramp and the one-segment
    delivery tail (and, for window-limited transfers, the whole
    transfer); ``drain_bytes`` is the ack-clocked remainder that streams
    at whatever bottleneck share the link grants (0.0 when the window
    covers the transfer).  Callers that know the link's sharing schedule
    integrate the drain themselves; :func:`fluid_transfer_time` is the
    constant-rate convenience wrapper.
    """
    if not forward:
        return 0.0, 0.0  # loopback: same-host delivery is immediate
    mss, header = config.mss, config.header_bytes
    if rates is None:
        rates = [iface.fluid_rate_bps() for iface in forward]
    initial_segments = (
        _SCAVENGER_INITIAL_SEGMENTS
        if cc_name in SCAVENGER_ALGORITHMS
        else config.initial_cwnd_segments
    )
    window = float(initial_segments * mss)
    if size <= window:
        return one_way_latency(forward, size, mss, header, rates=rates), 0.0
    bottleneck = min(rates)
    # Payload throughput in bytes/second (headers ride along every MSS).
    goodput = bottleneck / 8.0 * (mss / (mss + header))
    rtt = one_way_latency(forward, mss, mss, header, rates=rates) + (
        ack_path_latency(reverse, config.ack_bytes)
    )
    bdp = goodput * rtt
    elapsed = 0.0
    sent = 0.0
    while sent + window < size and window < bdp:
        elapsed += rtt
        sent += window
        window *= 2.0
    remaining = size - sent
    if remaining <= window:
        return (
            elapsed
            + one_way_latency(
                forward, int(math.ceil(remaining)), mss, header, rates=rates
            ),
            0.0,
        )
    # Ack-clocked: the remainder streams at the bottleneck; the last
    # segment's bottleneck serialization is inside the drain, so the
    # delivery tail subtracts it from the one-way latency.
    tail = one_way_latency(forward, mss, mss, header, rates=rates)
    tail -= (mss + header) * 8.0 / bottleneck
    return elapsed + max(tail, 0.0), remaining


def fluid_transfer_time(
    size: int,
    forward: typing.Sequence["Interface"],
    reverse: typing.Sequence["Interface"],
    config: "TransportConfig",
    cc_name: str = "reno",
    rates: typing.Sequence[float] | None = None,
) -> float:
    """Analytic completion time for ``size`` payload bytes.

    Slow-start-aware: rounds of one RTT each double the window until it
    reaches the bandwidth-delay product; the remainder drains at the
    bottleneck's payload throughput with a one-segment delivery tail.
    """
    if not forward:
        return 0.0
    if rates is None:
        rates = [iface.fluid_rate_bps() for iface in forward]
    fixed, drain = fluid_transfer_plan(
        size, forward, reverse, config, cc_name, rates=rates
    )
    if drain:
        mss, header = config.mss, config.header_bytes
        goodput = min(rates) / 8.0 * (mss / (mss + header))
        fixed += drain / goodput
    return fixed


class _FluidTransfer:
    """An in-flight analytic transfer: its remaining drain is settled and
    its completion rescheduled whenever link sharing changes."""

    __slots__ = (
        "conn", "message", "size", "hops", "event", "complete_at",
        "fixed_end", "drain_remaining", "drain_rate", "last_update",
    )

    def __init__(self, conn, message, size: int, hops):
        self.conn = conn
        self.message = message
        self.size = size
        self.hops = hops
        #: Generation of the live completion timer; ``None`` until one is
        #: scheduled and again once ``close()`` releases the transfer.
        self.event = None
        self.complete_at = 0.0
        self.fixed_end = 0.0        # when the ramp/tail phase ends
        self.drain_remaining = 0.0  # ack-clocked bytes still to stream
        self.drain_rate = 0.0       # current goodput share (bytes/s)
        self.last_update = 0.0


class FluidModel(TransportModel):
    """Flow-level fidelity: one completion event per message.

    Owns the path math and the per-link occupancy bookkeeping; the
    :class:`FidelityPolicy` it shares with the stack supplies forwarding
    paths and the contention verdicts that drive hybrid switching.
    """

    name = "fluid"

    def __init__(self, network: "Network", policy: "FidelityPolicy"):
        self.network = network
        self.policy = policy
        self.transfers_started = 0
        self.transfers_completed = 0
        #: Every in-flight fluid transfer (all connections): the sharing
        #: schedule a new transfer's drain integrates over.
        self._active: list[_FluidTransfer] = []

    def create_connection(self, stack, **kwargs) -> "FluidConnectionEnd":
        return FluidConnectionEnd(stack.sim, stack.network, model=self, **kwargs)

    # -- transfer lifecycle -------------------------------------------
    def start_transfer(
        self, conn: "FluidConnectionEnd", message, size: int
    ) -> _FluidTransfer:
        """Admit a transfer, register its occupancy on every forward-path
        link, and reallocate link shares.  Returns the transfer with
        ``complete_at`` resolved (per-connection FIFO chaining included);
        the connection schedules its completion event."""
        forward = self.policy.path(conn.local, conn.remote, tos=conn.tos)
        reverse = self.policy.path(conn.remote, conn.local, tos=conn.tos)
        now = conn.sim.now
        fixed, drain = fluid_transfer_plan(
            size, forward, reverse, conn.config, conn.cc_name
        )
        transfer = _FluidTransfer(conn, message, size, forward)
        transfer.fixed_end = now + fixed
        transfer.complete_at = transfer.fixed_end
        transfer.drain_remaining = float(drain)
        transfer.last_update = now
        segments = max(1, math.ceil(size / conn.config.mss))
        wire = size + segments * conn.config.header_bytes
        for iface in forward:
            iface.fluid_register(wire)
        self._active.append(transfer)
        self.transfers_started += 1
        self._reallocate(now)
        return transfer

    def finish_transfer(self, transfer: _FluidTransfer) -> None:
        now = transfer.conn.sim.now
        self._active.remove(transfer)
        for iface in transfer.hops:
            iface.fluid_release()
        self.transfers_completed += 1
        # The departing flow's share returns to whoever it shared with.
        self._reallocate(now)

    def _reallocate(self, now: float) -> None:
        """Settle every active transfer and recompute its link share.

        Processor sharing, kept honest on every arrival and departure:
        first each transfer's drained bytes are settled at the rate it
        held since the last change, then each link's capacity is divided
        equally among the transfers on it and every completion event is
        rescheduled at the new rate.  Per-connection FIFO is preserved by
        clamping each completion to its predecessor's on the same
        connection (transfers are visited in admission order).
        """
        counts: dict = {}
        for transfer in self._active:
            if transfer.drain_remaining > 0.0 and transfer.drain_rate > 0.0:
                begin = max(transfer.last_update, transfer.fixed_end)
                if now > begin:
                    transfer.drain_remaining = max(
                        0.0,
                        transfer.drain_remaining
                        - transfer.drain_rate * (now - begin),
                    )
            transfer.last_update = now
            for iface in transfer.hops:
                counts[iface] = counts.get(iface, 0) + 1
        chain: dict = {}
        for transfer in self._active:
            config = transfer.conn.config
            if transfer.drain_remaining > 0.0:
                rate = min(
                    iface.fluid_rate_bps() / counts[iface]
                    for iface in transfer.hops
                )
                transfer.drain_rate = (
                    rate / 8.0 * (config.mss / (config.mss + config.header_bytes))
                )
                complete = (
                    max(now, transfer.fixed_end)
                    + transfer.drain_remaining / transfer.drain_rate
                )
            else:
                complete = transfer.complete_at
            predecessor = chain.get(transfer.conn)
            if predecessor is not None:
                complete = max(complete, predecessor)
            chain[transfer.conn] = complete
            if complete != transfer.complete_at:
                transfer.complete_at = complete
                if transfer.event is not None:
                    # A new generation makes the pending completion stale.
                    transfer.event += 1
                    transfer.conn.sim.call_at(
                        complete, transfer.conn._complete_fluid,
                        transfer, transfer.event,
                    )
        for conn, tail in chain.items():
            conn._fluid_tail = max(conn._fluid_tail, tail)

    # -- hybrid switching ----------------------------------------------
    def current_mode(self, conn: "FluidConnectionEnd") -> str:
        return self.policy.mode_for(
            conn.local, conn.remote, conn.sim.now, tos=conn.tos
        )


class FluidConnectionEnd(ConnectionEnd):
    """A connection whose transfers may complete analytically.

    Exposes the exact :class:`ConnectionEnd` surface (``send`` /
    ``receive`` / ``inbox`` / counters), so the mesh above needs no
    changes.  While fluid, ``send`` schedules one completion event; the
    moment the :class:`~repro.transport.model.FidelityPolicy` reports
    the path contended (and no fluid transfer is in flight), the
    connection downgrades permanently to the inherited packet-level
    machinery.
    """

    def __init__(self, sim, network, model: FluidModel, **kwargs):
        super().__init__(sim, network, **kwargs)
        self.model = model
        self._peer: FluidConnectionEnd | None = None
        self._fluid_mode = True
        self._fluid_tail = 0.0           # completion time of the last transfer
        self._fluid_in_flight: list[_FluidTransfer] = []
        self._fluid_buffer: list[tuple] = []   # sends before establishment
        # Telemetry.
        self.fluid_messages = 0
        self.fluid_bytes = 0
        self.downgrades = 0

    @property
    def fluid_active(self) -> bool:
        """True while transfers run flow-level (False after downgrade)."""
        return self._fluid_mode

    # -- application API ------------------------------------------------
    def send(self, message, size: int) -> None:
        if not self._fluid_mode:
            return super().send(message, size)
        if self.closed:
            raise RuntimeError(f"{self.name}: send on closed connection")
        if size <= 0:
            raise ValueError("message size must be positive")
        if not self.established.triggered:
            self._fluid_buffer.append((message, size))
            return
        if not self._fluid_in_flight and (
            self.model.current_mode(self) == FIDELITY_PACKET
        ):
            # Sticky downgrade, only between transfers so fluid and
            # packet deliveries can never reorder on this connection.
            self._fluid_mode = False
            self.downgrades += 1
            if self.config.metrics is not None:
                self.config.metrics.counter(
                    "transport_fluid_downgrades_total"
                ).inc()
            return super().send(message, size)
        self._schedule_fluid(message, size)

    def close(self) -> None:
        super().close()
        for transfer in self._fluid_in_flight:
            transfer.event = None  # every pending completion goes stale
            self.model.finish_transfer(transfer)
        self._fluid_in_flight.clear()
        self._fluid_buffer.clear()

    # -- fluid machinery -----------------------------------------------
    def _on_established(self) -> None:
        super()._on_established()
        if self._fluid_buffer:
            buffered, self._fluid_buffer = self._fluid_buffer, []
            for message, size in buffered:
                self.send(message, size)

    def _schedule_fluid(self, message, size: int) -> None:
        self.messages_sent += 1
        self.fluid_messages += 1
        transfer = self.model.start_transfer(self, message, size)
        self._fluid_tail = transfer.complete_at
        transfer.event = 0
        self.sim.call_at(transfer.complete_at, self._complete_fluid, transfer, 0)
        self._fluid_in_flight.append(transfer)
        if self.config.metrics is not None:
            self.config.metrics.counter("transport_fluid_transfers_total").inc()

    def _complete_fluid(self, transfer: _FluidTransfer, generation: int) -> None:
        if generation != transfer.event:
            return  # rescheduled since, or released by close()
        self._fluid_in_flight.remove(transfer)
        self.model.finish_transfer(transfer)
        if self.closed:
            return
        self.bytes_sent += transfer.size
        self.fluid_bytes += transfer.size
        peer = self._peer
        if peer is None or peer.closed:
            return
        peer._fluid_deliver(transfer.message, transfer.size)

    def _fluid_deliver(self, message, size: int) -> None:
        self.messages_delivered += 1
        self.bytes_delivered += size
        self.inbox.put_nowait((message, size))

    def __repr__(self):
        mode = "fluid" if self._fluid_mode else "packet(downgraded)"
        return (
            f"<FluidConnectionEnd {self.name} {self.local}->{self.remote} "
            f"mode={mode} inflight={len(self._fluid_in_flight)}>"
        )
