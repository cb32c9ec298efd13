"""End-to-end transport tests over a simulated two-host network."""

import hashlib

import numpy as np
import pytest

from repro.net import FifoQdisc, LossyQdisc, Network, Tos
from repro.sim import Simulator
from repro.transport import ConnectionEnd, TransportConfig, TransportStack


def build_net(
    sim, rate_bps=8_000_000, delay=0.001, qdisc_a=None, config=None, qdisc_b=None
):
    """Two hosts, one link; returns (net, stack_a, stack_b)."""
    net = Network(sim)
    net.add_host("a")
    net.add_host("b")
    net.connect(
        "a", "b", rate_bps=rate_bps, delay=delay, qdisc_a=qdisc_a, qdisc_b=qdisc_b
    )
    config = config or TransportConfig()
    stack_a = TransportStack(sim, net, "a", "10.1.0.1", config=config)
    stack_b = TransportStack(sim, net, "b", "10.1.0.2", config=config)
    net.build_routes()
    return net, stack_a, stack_b


def start_echo_server(sim, stack, port=80):
    """Echo every received message back at the same size."""

    def on_accept(conn):
        def serve():
            while True:
                message, size = yield conn.receive()
                conn.send(("echo", message), size)

        sim.process(serve(), name="echo")

    stack.listen(port, on_accept)


def start_sink_server(sim, stack, received, port=80):
    def on_accept(conn):
        def serve():
            while True:
                message, size = yield conn.receive()
                received.append((sim.now, message, size))

        sim.process(serve(), name="sink")

    stack.listen(port, on_accept)


class TestHandshake:
    def test_established_after_one_rtt(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim, delay=0.005)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        # SYN + SYN-ACK = one RTT (2 x 5ms) plus tiny serialization.
        assert 0.010 <= sim.now < 0.012

    def test_connect_to_dead_port_fails(self):
        sim = Simulator()
        _, stack_a, _stack_b = build_net(sim)
        conn = stack_a.connect("10.1.0.2", 9999)
        with pytest.raises(ConnectionError):
            sim.run(until=conn.established)

    def test_accept_callback_runs(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        accepted = []
        stack_b.listen(80, accepted.append)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        assert len(accepted) == 1
        assert accepted[0].remote == "10.1.0.1"
        assert stack_b.connections_accepted == 1
        assert stack_a.connections_opened == 1

    def test_duplicate_listener_rejected(self):
        sim = Simulator()
        _, _stack_a, stack_b = build_net(sim)
        stack_b.listen(80, lambda conn: None)
        with pytest.raises(ValueError):
            stack_b.listen(80, lambda conn: None)

    def test_server_inherits_cc_and_tos_from_syn(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        accepted = []
        stack_b.listen(80, accepted.append)
        conn = stack_a.connect(
            "10.1.0.2", 80, tos=Tos.SCAVENGER, cc_name="ledbat"
        )
        sim.run(until=conn.established)
        assert accepted[0].cc_name == "ledbat"
        assert accepted[0].tos == Tos.SCAVENGER


class TestMessageDelivery:
    def test_small_message_round_trip(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        got = []

        def client(sim):
            yield conn.established
            conn.send("hello", 100)
            message, size = yield conn.receive()
            got.append((message, size, sim.now))

        sim.process(client(sim))
        sim.run()
        assert len(got) == 1
        assert got[0][0] == ("echo", "hello")

    def test_identity_of_message_objects_preserved(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        received = []
        start_sink_server(sim, stack_b, received)
        payload = {"unique": object()}
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send(payload, 5000)

        sim.process(client(sim))
        sim.run()
        assert received[0][1] is payload

    def test_messages_delivered_in_order(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            for i in range(20):
                conn.send(i, 3000)

        sim.process(client(sim))
        sim.run()
        assert [message for _, message, _ in received] == list(range(20))

    def test_large_transfer_saturates_link(self):
        sim = Simulator()
        # 8 Mbps = 1 MB/s; 500 KB should take just over 0.5 s.
        _, stack_a, stack_b = build_net(sim, rate_bps=8_000_000, delay=0.001)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 500_000)

        sim.process(client(sim))
        sim.run()
        assert len(received) == 1
        finish = received[0][0]
        assert 0.5 <= finish <= 0.65  # rate-bound plus handshake/headers

    def test_send_before_established_is_buffered(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)
        conn.send("early", 1000)  # no yield on established
        sim.run()
        assert [m for _, m, _ in received] == ["early"]

    def test_bidirectional_concurrent_transfer(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        got_at_a, got_at_b = [], []

        def on_accept(conn):
            def serve():
                message, _size = yield conn.receive()
                got_at_b.append(message)
                conn.send("reply-blob", 200_000)

            sim.process(serve())

        stack_b.listen(80, on_accept)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("req-blob", 200_000)
            message, _size = yield conn.receive()
            got_at_a.append(message)

        sim.process(client(sim))
        sim.run()
        assert got_at_b == ["req-blob"]
        assert got_at_a == ["reply-blob"]

    def test_send_on_closed_connection_raises(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        conn.close()
        with pytest.raises(RuntimeError):
            conn.send("x", 10)

    def test_zero_size_message_rejected(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim)
        start_echo_server(sim, stack_b)
        conn = stack_a.connect("10.1.0.2", 80)
        with pytest.raises(ValueError):
            conn.send("x", 0)


class TestLossRecovery:
    def test_transfer_completes_despite_tail_drops(self):
        sim = Simulator()
        # Tiny egress buffer at the sender: guaranteed drops under slow start.
        _, stack_a, stack_b = build_net(
            sim, rate_bps=8_000_000, qdisc_a=FifoQdisc(limit_bytes=6000)
        )
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 300_000)

        sim.process(client(sim))
        sim.run(until=60.0)
        assert [m for _, m, _ in received] == ["blob"]
        assert conn.retransmits > 0

    def test_fast_retransmit_engages(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(
            sim, rate_bps=8_000_000, qdisc_a=FifoQdisc(limit_bytes=20_000)
        )
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 400_000)

        sim.process(client(sim))
        sim.run(until=60.0)
        assert received, "transfer did not complete"
        assert conn.retransmits > 0

    def test_rtt_estimate_tracks_path(self):
        sim = Simulator()
        _, stack_a, stack_b = build_net(sim, delay=0.010)
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)

        def client(sim):
            yield conn.established
            conn.send("blob", 50_000)

        sim.process(client(sim))
        sim.run()
        assert conn.srtt is not None
        assert conn.srtt >= 0.020  # at least the two-way propagation delay
        assert conn.srtt < 0.080


#: The pinned lossy transfer: 20 messages at 10% loss per direction.
LOSS = 0.1
MESSAGES = 20
PINNED = (
    "4c3f0df85d4131d6d1df99cfd0e4e55a23ada9e915e071000d537ed6a5675a6f", 84, 51,
)


class _BlackHole:
    """A network that swallows every packet, so nothing is ever ACKed."""

    def send(self, packet):
        pass


def stalled_connection():
    """A connection with unACKed data in flight since t=0: initial RTO
    0.04 s (4 x ``min_rto``), so the RTO is due at t=0.04."""
    sim = Simulator()
    conn = ConnectionEnd(
        sim, _BlackHole(), "10.0.0.1", "10.0.0.2",
        config=TransportConfig(min_rto=0.010),
    )
    conn._on_established()
    conn.send("m", 10_000)
    sim.run(until=0.001)
    assert conn.bytes_in_flight > 0 and conn.timeouts == 0
    return sim, conn


def pending_rto_timers(sim, conn):
    return sum(1 for entry in sim._queue if entry[2] == conn._rto_fire)


class TestRtoTimer:
    def test_extended_deadline_fires_at_the_extension(self):
        sim, conn = stalled_connection()
        sim.run(until=0.02)
        conn._arm_rto()  # deadline moves from 0.04 to 0.06
        sim.run(until=0.059)
        assert conn.timeouts == 0
        sim.run(until=0.061)
        assert conn.timeouts == 1

    def test_earlier_deadline_fires_at_the_earlier_time(self):
        sim, conn = stalled_connection()
        sim.run(until=0.02)
        conn._rto = 0.005
        conn._arm_rto()  # deadline moves from 0.04 to 0.025
        sim.run(until=0.024)
        assert conn.timeouts == 0
        sim.run(until=0.026)
        assert conn.timeouts == 1
        # Backed off to 0.01: next RTO at 0.035, then 0.055.  The timer
        # left at 0.04 is stale and must not fire a third one.
        sim.run(until=0.036)
        assert conn.timeouts == 2
        sim.run(until=0.054)
        assert conn.timeouts == 2

    def test_rearming_keeps_one_pending_timer(self):
        sim, conn = stalled_connection()
        for step in range(1, 10):
            sim.run(until=0.001 + step * 0.003)
            conn._arm_rto()
        assert pending_rto_timers(sim, conn) == 1
        assert conn.timeouts == 0

    def test_lossy_transfer_is_pinned(self):
        """Random loss on both directions plus a tail-drop buffer: fast
        retransmits and a long run of backed-off RTOs.  The delivery-time
        digest and counters were computed at commit 9422733, the kernel
        that allocated an event per timer and pushed one RTO timer per
        arm; the one-timer RTO must reproduce them exactly."""
        sim = Simulator()
        rng = np.random.default_rng(7)
        lossy_a = LossyQdisc(FifoQdisc(limit_bytes=30_000), 0.0, rng)
        lossy_b = LossyQdisc(FifoQdisc(), 0.0, rng)
        _, stack_a, stack_b = build_net(
            sim, delay=0.002, qdisc_a=lossy_a, qdisc_b=lossy_b
        )
        received = []
        start_sink_server(sim, stack_b, received)
        conn = stack_a.connect("10.1.0.2", 80)
        sim.run(until=conn.established)
        lossy_a.loss = lossy_b.loss = LOSS
        for index in range(MESSAGES):
            conn.send(index, 20_000 + 7_000 * index)
        sim.run(until=30.0)
        assert [m for _, m, _ in received] == list(range(MESSAGES))
        digest = hashlib.sha256(repr(received).encode()).hexdigest()
        assert (digest, conn.retransmits, conn.timeouts) == PINNED


class TestFairnessAndScavenging:
    def run_pair(self, cc_a, cc_b, size=400_000, rate=8_000_000):
        """Two flows from one host through the shared bottleneck; returns
        (finish_a, finish_b)."""
        sim = Simulator()
        net = Network(sim)
        net.add_host("src")
        net.add_host("dst")
        net.connect("src", "dst", rate_bps=rate, delay=0.002)
        config = TransportConfig()
        src1 = TransportStack(sim, net, "src", "10.1.0.1", config=config)
        src2 = TransportStack(sim, net, "src", "10.1.0.3", config=config)
        dst = TransportStack(sim, net, "dst", "10.1.0.2", config=config)
        net.build_routes()
        finishes = {}

        def on_accept(conn):
            def serve():
                message, _size = yield conn.receive()
                finishes[message] = sim.now

            sim.process(serve())

        dst.listen(80, on_accept)

        def client(sim, stack, label, cc):
            conn = stack.connect("10.1.0.2", 80, cc_name=cc)
            yield conn.established
            conn.send(label, size)

        sim.process(client(sim, src1, "a", cc_a))
        sim.process(client(sim, src2, "b", cc_b))
        sim.run(until=120.0)
        assert set(finishes) == {"a", "b"}, f"missing flows: {finishes}"
        return finishes["a"], finishes["b"]

    def test_reno_pair_roughly_fair(self):
        finish_a, finish_b = self.run_pair("reno", "reno")
        assert finish_a == pytest.approx(finish_b, rel=0.5)

    def test_ledbat_yields_to_reno(self):
        reno_vs_ledbat, _ = self.run_pair("reno", "ledbat")
        reno_vs_reno, _ = self.run_pair("reno", "reno")
        # Against a scavenger the foreground flow finishes markedly sooner.
        assert reno_vs_ledbat < reno_vs_reno * 0.8

    def test_tcplp_yields_to_reno(self):
        reno_vs_lp, _ = self.run_pair("reno", "tcplp")
        reno_vs_reno, _ = self.run_pair("reno", "reno")
        assert reno_vs_lp < reno_vs_reno * 0.85
