"""Congestion-control algorithms.

Window-based algorithms operating in bytes. The standard algorithms
(Reno, CUBIC-like) model the kernel TCP the paper's sidecars use today;
the scavenger algorithms (LEDBAT, TCP-LP) implement §4.2(b): latency-
insensitive traffic voluntarily yields the bottleneck by reacting to
queueing delay before losses occur.

All algorithms expose the same small interface: ``cwnd`` (bytes),
``on_ack(bytes_acked, rtt_sample)``, ``on_loss(kind)`` where kind is
``"dupack"`` (fast retransmit) or ``"timeout"``.
"""

from __future__ import annotations


class CongestionControl:
    """Base class: fixed-parameter interface used by the connection."""

    name = "base"

    def __init__(self, mss: int, initial_window_segments: int = 10):
        self.mss = int(mss)
        self.cwnd = float(self.mss * initial_window_segments)
        self.ssthresh = float("inf")

    def on_ack(self, bytes_acked: int, rtt_sample: float | None) -> None:
        raise NotImplementedError

    def on_loss(self, kind: str) -> None:
        raise NotImplementedError

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def _floor(self) -> None:
        self.cwnd = max(float(self.mss), self.cwnd)

    def __repr__(self):
        return f"<{self.name} cwnd={self.cwnd:.0f}B ssthresh={self.ssthresh}>"


class RenoCC(CongestionControl):
    """TCP Reno with appropriate byte counting.

    Slow start doubles per RTT; congestion avoidance adds one MSS per RTT;
    fast retransmit halves; timeout collapses to one MSS.
    """

    name = "reno"

    def on_ack(self, bytes_acked: int, rtt_sample: float | None) -> None:
        if self.in_slow_start:
            self.cwnd += bytes_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            self.cwnd += self.mss * bytes_acked / self.cwnd

    def on_loss(self, kind: str) -> None:
        if kind == "timeout":
            self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
            self.cwnd = float(self.mss)
        else:
            self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
            self.cwnd = self.ssthresh
        self._floor()


class CubicCC(CongestionControl):
    """A CUBIC-flavoured algorithm (simplified, no TCP-friendly region).

    Window growth follows the cubic curve W(t) = C(t-K)^3 + W_max, which
    probes aggressively far from the last loss point and plateaus near it.
    """

    name = "cubic"
    C = 0.4            # cubic scaling constant (segments/s^3)
    BETA = 0.7         # multiplicative decrease factor

    def __init__(self, mss: int, initial_window_segments: int = 10, clock=None):
        super().__init__(mss, initial_window_segments)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._w_max = self.cwnd
        self._epoch_start: float | None = None
        self._k = 0.0

    def _now(self) -> float:
        return float(self._clock())

    def on_ack(self, bytes_acked: int, rtt_sample: float | None) -> None:
        if self.in_slow_start:
            self.cwnd += bytes_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
            return
        now = self._now()
        if self._epoch_start is None:
            self._epoch_start = now
            w_max_seg = self._w_max / self.mss
            cwnd_seg = self.cwnd / self.mss
            # A window already at or above w_max (slow start past a
            # small w_max) has no concave region left: K = 0.  A
            # negative base would make ``**`` return a complex number.
            gap = w_max_seg - cwnd_seg
            self._k = (gap / self.C) ** (1.0 / 3.0) if gap > 0 else 0.0
        t = now - self._epoch_start
        target_seg = self.C * (t - self._k) ** 3 + self._w_max / self.mss
        target = target_seg * self.mss
        if target > self.cwnd:
            # Approach the cubic target over roughly one RTT's worth of ACKs.
            self.cwnd += min(target - self.cwnd, self.mss * bytes_acked / self.cwnd * 4)
        else:
            self.cwnd += 0.01 * self.mss * bytes_acked / self.cwnd
        self._floor()

    def on_loss(self, kind: str) -> None:
        self._w_max = self.cwnd
        self._epoch_start = None
        if kind == "timeout":
            self.ssthresh = max(self.cwnd * self.BETA, 2.0 * self.mss)
            self.cwnd = float(self.mss)
        else:
            self.cwnd = max(self.cwnd * self.BETA, self.mss)
            self.ssthresh = self.cwnd
        self._floor()


class LedbatCC(CongestionControl):
    """LEDBAT (RFC 6817): Low Extra Delay Background Transport.

    Uses the increase in delay over the observed base delay as the
    congestion signal; keeps at most ``target`` seconds of self-induced
    queueing. Falls to one MSS rather than competing with foreground
    traffic — the scavenger semantics the paper wants for the
    latency-insensitive workload (§4.2b).
    """

    name = "ledbat"

    def __init__(
        self,
        mss: int,
        initial_window_segments: int = 4,
        target: float = 0.005,
        gain: float = 1.0,
    ):
        super().__init__(mss, initial_window_segments)
        self.target = float(target)
        self.gain = float(gain)
        self._base_delay = float("inf")

    def on_ack(self, bytes_acked: int, rtt_sample: float | None) -> None:
        if rtt_sample is None:
            return
        self._base_delay = min(self._base_delay, rtt_sample)
        queuing_delay = rtt_sample - self._base_delay
        off_target = (self.target - queuing_delay) / self.target
        self.cwnd += self.gain * off_target * bytes_acked * self.mss / self.cwnd
        # LEDBAT clamps growth to slow-start-like at most.
        self.cwnd = min(self.cwnd, self.cwnd + bytes_acked)
        self._floor()

    def on_loss(self, kind: str) -> None:
        if kind == "timeout":
            self.cwnd = float(self.mss)
        else:
            self.cwnd = max(self.cwnd / 2.0, self.mss)
        self._floor()

    @property
    def base_delay(self) -> float:
        return self._base_delay


class TcpLpCC(CongestionControl):
    """TCP-LP (Kuzmanovic & Knightly): low-priority via early congestion
    inference.

    Tracks min/max observed RTT; when the smoothed RTT exceeds
    ``min + threshold * (max - min)`` it infers that foreground traffic is
    present and backs off to one MSS, then holds off growth for an
    inference period. Otherwise behaves like Reno.
    """

    name = "tcplp"

    def __init__(
        self,
        mss: int,
        initial_window_segments: int = 4,
        threshold: float = 0.15,
        inference_time: float = 0.1,
        clock=None,
    ):
        super().__init__(mss, initial_window_segments)
        self.threshold = float(threshold)
        self.inference_time = float(inference_time)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._min_rtt = float("inf")
        self._max_rtt = 0.0
        self._smoothed = None
        self._holdoff_until = 0.0

    def on_ack(self, bytes_acked: int, rtt_sample: float | None) -> None:
        now = float(self._clock())
        if rtt_sample is not None:
            self._min_rtt = min(self._min_rtt, rtt_sample)
            self._max_rtt = max(self._max_rtt, rtt_sample)
            if self._smoothed is None:
                self._smoothed = rtt_sample
            else:
                self._smoothed = 0.875 * self._smoothed + 0.125 * rtt_sample
            if self._max_rtt > self._min_rtt:
                trigger = self._min_rtt + self.threshold * (
                    self._max_rtt - self._min_rtt
                )
                if self._smoothed > trigger:
                    # Early congestion inference: yield the bottleneck.
                    self.cwnd = float(self.mss)
                    self._holdoff_until = now + self.inference_time
                    return
        if now < self._holdoff_until:
            return
        if self.in_slow_start:
            self.cwnd += bytes_acked
            if self.cwnd > self.ssthresh:
                self.cwnd = self.ssthresh
        else:
            self.cwnd += self.mss * bytes_acked / self.cwnd

    def on_loss(self, kind: str) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0 * self.mss)
        self.cwnd = float(self.mss)
        now = float(self._clock())
        self._holdoff_until = now + self.inference_time


CC_REGISTRY = {
    "reno": RenoCC,
    "cubic": CubicCC,
    "ledbat": LedbatCC,
    "tcplp": TcpLpCC,
}

SCAVENGER_ALGORITHMS = {"ledbat", "tcplp"}


def make_cc(name: str, mss: int, clock=None) -> CongestionControl:
    """Instantiate a congestion-control algorithm by registry name."""
    try:
        cls = CC_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion control {name!r}; known: {sorted(CC_REGISTRY)}"
        ) from None
    if cls in (CubicCC, TcpLpCC):
        return cls(mss, clock=clock)
    return cls(mss)
