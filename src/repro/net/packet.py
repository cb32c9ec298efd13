"""The packet: the unit the simulated network schedules and delivers.

A packet models one MTU-sized (or configured segment-sized) chunk of a
transport flow. The ``tos`` field carries the DSCP-style priority mark that
the paper's cross-layer design stamps onto latency-sensitive flows
(§4.2c/§4.2d); qdiscs and the SDN TE layer classify on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import IntEnum

_packet_ids = itertools.count(1)


class Tos(IntEnum):
    """Type-of-service marks. Lower value = more latency sensitive."""

    HIGH = 0        # latency-sensitive traffic
    NORMAL = 1      # unmarked / default
    SCAVENGER = 2   # latency-insensitive bulk traffic


@dataclass(slots=True)
class Packet:
    """One network packet.

    ``size`` is the on-wire size in bytes (headers included — the transport
    layer accounts for header overhead when segmenting). ``flow_id``
    identifies the transport connection; ``seq`` orders segments within it.
    ``kind`` distinguishes data from ACKs so qdiscs/telemetry can treat them
    separately.
    """

    src: str
    dst: str
    size: int
    flow_id: int = 0
    seq: int = 0
    kind: str = "data"
    tos: Tos = Tos.NORMAL
    payload: object = None
    created_at: float = 0.0
    enqueued_at: float = 0.0
    packet_id: int = field(default_factory=_packet_ids.__next__)
    hops: int = 0
    ecn: bool = False

    def __repr__(self):
        return (
            f"<Packet #{self.packet_id} {self.kind} {self.src}->{self.dst} "
            f"flow={self.flow_id} seq={self.seq} size={self.size} tos={self.tos.name}>"
        )
