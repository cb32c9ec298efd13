"""The redesigned transport API: declarative spec, pluggable models.

Three pieces, layered exactly as ROADMAP item 1 asks:

* :class:`TransportSpec` — ONE frozen, declarative description of the
  transport layer (fidelity mode, congestion-control algorithm, segment
  size, contention threshold, multiplexing).  It replaces the knobs
  previously scattered across ``TransportConfig`` constructor kwargs and
  ``MeshConfig.use_mux``/``mux_chunk_bytes``; both models consume it.
* :class:`TransportModel` — the strategy a connection is bound to.
  :class:`PacketModel` keeps the existing per-segment simulation
  (:class:`~repro.transport.connection.ConnectionEnd`);
  :class:`~repro.transport.fluid.FluidModel` computes transfer
  completion analytically (flow-level fidelity).
* :class:`FidelityPolicy` — the per-connection selector.  It watches
  link utilization (windowed, packet *and* fluid traffic) and qdisc
  backlog along the forwarding path, and drops a connection to
  packet-level fidelity as soon as any link on its path crosses the
  contention threshold — analytic completion only where no queueing
  happens, full packet fidelity where it does (the 1 Gbps Figure-4
  bottleneck under load).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

if typing.TYPE_CHECKING:  # pragma: no cover
    from ..net.link import Interface
    from ..net.topology import Network
    from .connection import ConnectionEnd, TransportConfig

#: Fidelity modes a spec can ask for.
FIDELITY_PACKET = "packet"    # per-segment simulation everywhere
FIDELITY_FLUID = "fluid"      # analytic completion everywhere possible
FIDELITY_HYBRID = "hybrid"    # per-connection, utilization-switched

FIDELITY_MODES = (FIDELITY_PACKET, FIDELITY_FLUID, FIDELITY_HYBRID)

#: Default fraction of a link's capacity (over the sampling window) at
#: which the link counts as contended and its connections drop to
#: packet-level fidelity.
DEFAULT_CONTENTION_THRESHOLD = 0.25

#: Default utilization sampling window (simulated seconds).
DEFAULT_UTILIZATION_WINDOW = 0.25

#: Queued bytes at a link's qdisc beyond which the link counts as
#: contended regardless of windowed utilization (catches bursts faster
#: than the window can).
DEFAULT_CONTENTION_BACKLOG_BYTES = 30_000


@dataclass(frozen=True)
class TransportSpec:
    """Declarative, immutable description of the transport layer.

    The one place transport knobs live (ISSUE 6 satellite): fidelity
    mode, congestion control, segment size, and the hybrid switching
    criterion.  Runtime state (metrics hooks, per-stack mutability)
    stays in :class:`~repro.transport.connection.TransportConfig`, built
    via :meth:`~repro.transport.connection.TransportConfig.from_spec`.
    """

    fidelity: str = FIDELITY_PACKET
    cc: str = "reno"                  # default congestion control
    mss: int = 1460                   # payload bytes per segment
    header_bytes: int = 40            # per-segment header overhead
    ack_bytes: int = 40               # ACK packet size
    initial_cwnd_segments: int = 10
    min_rto: float = 0.010
    max_rto: float = 2.0
    ecn_enabled: bool = True
    # Hybrid switching criterion.
    contention_threshold: float = DEFAULT_CONTENTION_THRESHOLD
    utilization_window: float = DEFAULT_UTILIZATION_WINDOW
    contention_backlog_bytes: int = DEFAULT_CONTENTION_BACKLOG_BYTES
    # SST-style multiplexing (formerly MeshConfig.use_mux / chunk size).
    mux: bool = False
    mux_chunk_bytes: int = 16_000

    def __post_init__(self):
        if self.fidelity not in FIDELITY_MODES:
            raise ValueError(
                f"unknown fidelity {self.fidelity!r}; known: {FIDELITY_MODES}"
            )
        if self.mss <= 0 or self.header_bytes < 0:
            raise ValueError("invalid mss/header size")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError("invalid RTO bounds")
        if not (0.0 < self.contention_threshold <= 1.0):
            raise ValueError("contention_threshold must be in (0, 1]")
        if self.utilization_window <= 0:
            raise ValueError("utilization_window must be positive")

    @property
    def wants_fluid(self) -> bool:
        """Whether any connection under this spec may run flow-level."""
        return self.fidelity in (FIDELITY_FLUID, FIDELITY_HYBRID)


class TransportModel:
    """Strategy interface: how a connection moves application bytes.

    A model is bound to a :class:`~repro.transport.stack.TransportStack`
    and builds the connection ends the stack hands out.  Both sides of a
    connection run the same model (the SYN carries the choice).
    """

    name = "base"

    def create_connection(self, stack, **kwargs) -> "ConnectionEnd":
        """Build one endpoint of a connection managed by this model."""
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__}>"


class PacketModel(TransportModel):
    """Packet-level fidelity: the existing per-segment machinery.

    Every data byte becomes simulated segments through qdiscs and links,
    with loss recovery, ECN, and congestion control — the reference
    behaviour the fluid model is validated against.
    """

    name = FIDELITY_PACKET

    def create_connection(self, stack, **kwargs) -> "ConnectionEnd":
        from .connection import ConnectionEnd

        return ConnectionEnd(stack.sim, stack.network, **kwargs)


class FidelityPolicy:
    """Per-connection fidelity selector driven by path contention.

    The policy samples each link's utilization over
    ``spec.utilization_window`` — counting both transmitted packet bytes
    (``Interface.busy_time``) and analytically-completed fluid transfer
    time (``Interface.fluid_busy_time``) — and calls a link *contended*
    when the sampled utilization crosses ``spec.contention_threshold``
    or its qdisc backlog exceeds ``spec.contention_backlog_bytes``.

    A connection runs flow-level only while every link on its forwarding
    path is uncontended; :meth:`mode_for` re-evaluates on every transfer
    so an established fluid connection drops to packet-level as soon as
    its path heats up.  All signals are pure functions of simulated
    traffic, so switching decisions are deterministic.
    """

    def __init__(self, network: "Network", spec: TransportSpec):
        self.network = network
        self.spec = spec
        # Utilization snapshots: iface -> [t0, busy0, cached_util].
        self._samples: dict["Interface", list] = {}
        self._paths: dict[tuple, tuple] = {}
        self._paths_generation = -1
        # Telemetry.
        self.fluid_decisions = 0
        self.packet_decisions = 0

    # -- path resolution ------------------------------------------------
    def path(self, src: str, dst: str, tos=None) -> tuple:
        """The forward interface sequence from ``src`` to ``dst``,
        following the live forwarding tables (including TOS steering).

        Cached per (src, dst, tos); the cache drops whenever the
        network recomputes or overrides routes.
        """
        generation = self.network.routes_generation
        if generation != self._paths_generation:
            self._paths.clear()
            self._paths_generation = generation
        key = (src, dst, tos)
        path = self._paths.get(key)
        if path is None:
            path = tuple(self.network.forwarding_path(src, dst, tos=tos))
            self._paths[key] = path
        return path

    # -- contention signals ---------------------------------------------
    def link_utilization(self, iface: "Interface", now: float) -> float:
        """The link's utilization over the most recent completed sampling
        window (packet busy time + fluid occupancy, capped at 1)."""
        sample = self._samples.get(iface)
        busy = iface.busy_time + iface.fluid_busy_time
        if sample is None:
            self._samples[iface] = [now, busy, 0.0]
            return 0.0
        elapsed = now - sample[0]
        if elapsed >= self.spec.utilization_window:
            sample[2] = min((busy - sample[1]) / elapsed, 1.0)
            sample[0] = now
            sample[1] = busy
        return sample[2]

    def path_contended(self, src: str, dst: str, now: float, tos=None) -> bool:
        """True when a link on the path is contended: its qdisc backlog
        exceeds the spec's bytes, or its windowed utilization reaches
        the threshold.  The first contended link ends the scan, so the
        links after it are not sampled."""
        backlog_limit = self.spec.contention_backlog_bytes
        threshold = self.spec.contention_threshold
        for iface in self.path(src, dst, tos):
            if (
                iface.qdisc.backlog_bytes > backlog_limit
                or self.link_utilization(iface, now) >= threshold
            ):
                return True
        return False

    # -- the selector ----------------------------------------------------
    def mode_for(
        self, src: str, dst: str, now: float, alpn: str = "message", tos=None
    ) -> str:
        """``"fluid"`` or ``"packet"`` for a connection src -> dst.

        Multiplexed connections always run packet-level: chunk-grained
        priority scheduling and writable backpressure are exactly the
        per-packet behaviours the fluid short-cut abstracts away.
        """
        if self.spec.fidelity == FIDELITY_PACKET or alpn == "mux":
            self.packet_decisions += 1
            return FIDELITY_PACKET
        if self.spec.fidelity == FIDELITY_FLUID:
            self.fluid_decisions += 1
            return FIDELITY_FLUID
        if self.path_contended(src, dst, now, tos=tos) or self.path_contended(
            dst, src, now, tos=tos
        ):
            self.packet_decisions += 1
            return FIDELITY_PACKET
        self.fluid_decisions += 1
        return FIDELITY_FLUID

    def __repr__(self):
        return (
            f"<FidelityPolicy {self.spec.fidelity} "
            f"threshold={self.spec.contention_threshold:g} "
            f"fluid={self.fluid_decisions} packet={self.packet_decisions}>"
        )
