"""Stream multiplexing over one transport connection (SST-style).

§3.6 of the paper points at Structured Streams Transport [Ford 2007] as
a way for the sidecar to multiplex many requests over a single
transport connection. :class:`MuxConnection` implements that idea: each
message travels on its own logical stream; the sender interleaves
fixed-size chunks of all active streams, so a small (latency-sensitive)
message is not stuck behind a multi-megabyte (batch) message that
happened to be queued first — the connection-level analogue of the
paper's cross-layer prioritization.

Schedulers:

* ``"fifo"``      — no interleaving; streams serialize in arrival order
  (what plain HTTP/1.1 pipelining would do; the head-of-line baseline).
* ``"round-robin"`` — fair chunk interleaving across active streams.
* ``"priority"``  — strict priority by the stream's priority value
  (lower first), FIFO within a class; the scheduler is work conserving.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from ..sim import Store
from .connection import ConnectionEnd

_stream_ids = itertools.count(1)

SCHEDULERS = ("fifo", "round-robin", "priority")


@dataclass
class ChunkFrame:
    """One chunk of one stream, carried as a transport message."""

    stream_id: int
    offset: int
    length: int
    last: bool
    message: object = None   # attached to the final chunk only


class _SendStream:
    __slots__ = ("stream_id", "message", "size", "sent", "priority", "enqueued_seq")

    def __init__(self, message, size, priority, enqueued_seq):
        self.stream_id = next(_stream_ids)
        self.message = message
        self.size = size
        self.sent = 0
        self.priority = priority
        self.enqueued_seq = enqueued_seq

    @property
    def remaining(self) -> int:
        return self.size - self.sent


class MuxConnection:
    """Message multiplexer over an established :class:`ConnectionEnd`.

    Both endpoints wrap their respective connection ends::

        mux_client = MuxConnection(client_conn, scheduler="priority")
        mux_server = MuxConnection(server_conn)
        mux_client.send("big report", 2_000_000, priority=1)
        mux_client.send("user page", 10_000, priority=0)
        message, size = yield mux_server.receive()   # "user page" first

    Completed messages are delivered in *completion* order, not send
    order — that is the point.
    """

    def __init__(
        self,
        conn: ConnectionEnd,
        chunk_bytes: int = 16_000,
        scheduler: str = "round-robin",
    ):
        if chunk_bytes <= 0:
            raise ValueError("chunk_bytes must be positive")
        if scheduler not in SCHEDULERS:
            raise ValueError(f"unknown scheduler {scheduler!r}; known: {SCHEDULERS}")
        self.conn = conn
        self.chunk_bytes = chunk_bytes
        self.scheduler = scheduler
        self.sim = conn.sim
        self.inbox: Store = Store(self.sim)
        self._active: deque[_SendStream] = deque()
        self._enqueue_seq = 0
        self._receiving: dict[int, int] = {}   # stream_id -> bytes seen
        self._pumping = False
        self.streams_sent = 0
        self.streams_delivered = 0
        # Backpressure coupling: keep only a few chunks buffered in the
        # transport so later high-priority streams can still overtake.
        conn.writable_low_water = 2 * chunk_bytes
        conn.on_writable = self._pump
        self.sim.process(self._receive_loop(), name="mux-receive")

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, message, size: int, priority: int = 0) -> int:
        """Queue ``message`` on a fresh stream; returns the stream id."""
        if size <= 0:
            raise ValueError("message size must be positive")
        self._enqueue_seq += 1
        stream = _SendStream(message, int(size), priority, self._enqueue_seq)
        self._active.append(stream)
        self.streams_sent += 1
        self._pump()
        return stream.stream_id

    def _next_stream(self) -> _SendStream:
        if self.scheduler == "fifo":
            return self._active[0]
        if self.scheduler == "round-robin":
            # Rotate: take the head, re-queue it at the tail if unfinished.
            return self._active[0]
        # Priority: smallest (priority, arrival) wins.
        return min(self._active, key=lambda s: (s.priority, s.enqueued_seq))

    def _pump(self) -> None:
        """Feed chunks into the transport, in scheduler order, keeping
        only a small backlog buffered there.

        The underlying connection does the congestion-controlled
        sending; this layer decides the order bytes enter it. The
        low-water callback re-invokes the pump as the transport drains,
        so a high-priority stream arriving mid-transfer overtakes the
        not-yet-buffered remainder of earlier streams.
        """
        if self._pumping:
            return  # re-entrancy guard: conn.send() triggers on_writable
        self._pumping = True
        try:
            # Budget covers both the transport's unsent backlog and the
            # bytes already in flight (which may be sitting in a NIC
            # queue): only what has NOT yet entered the pipe can be
            # re-ordered by a later, higher-priority stream.
            budget = 4 * self.chunk_bytes
            while (
                self._active
                and self.conn.unsent_bytes + self.conn.bytes_in_flight < budget
            ):
                stream = self._next_stream()
                length = min(self.chunk_bytes, stream.remaining)
                last = stream.remaining <= self.chunk_bytes
                frame = ChunkFrame(
                    stream_id=stream.stream_id,
                    offset=stream.sent,
                    length=length,
                    last=last,
                    message=stream.message if last else None,
                )
                self.conn.send(frame, length)
                stream.sent += length
                if stream.remaining == 0:
                    self._active.remove(stream)
                elif self.scheduler == "round-robin":
                    self._active.rotate(-1)
        finally:
            self._pumping = False

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _receive_loop(self):
        while not self.conn.closed:
            frame, _size = yield self.conn.receive()
            if not isinstance(frame, ChunkFrame):
                raise TypeError(
                    f"non-mux message on multiplexed connection: {frame!r}"
                )
            seen = self._receiving.get(frame.stream_id, 0) + frame.length
            self._receiving[frame.stream_id] = seen
            if frame.last:
                total = frame.offset + frame.length
                if seen != total:  # pragma: no cover - transport is in-order
                    raise RuntimeError(
                        f"stream {frame.stream_id} incomplete: {seen}/{total}"
                    )
                del self._receiving[frame.stream_id]
                self.streams_delivered += 1
                self.inbox.put_nowait((frame.message, total))

    def receive(self):
        """Event carrying the next *completed* ``(message, size)``."""
        return self.inbox.get()

    @property
    def active_streams(self) -> int:
        return len(self._active)

    def __repr__(self):
        return (
            f"<MuxConnection {self.scheduler} active={self.active_streams} "
            f"sent={self.streams_sent} delivered={self.streams_delivered}>"
        )
