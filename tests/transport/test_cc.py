"""Congestion-control algorithm unit tests (no network)."""

import pytest

from repro.transport import (
    CC_REGISTRY,
    SCAVENGER_ALGORITHMS,
    CubicCC,
    LedbatCC,
    RenoCC,
    TcpLpCC,
    make_cc,
)

MSS = 1500


class TestReno:
    def test_slow_start_doubles(self):
        cc = RenoCC(MSS, initial_window_segments=2)
        start = cc.cwnd
        cc.on_ack(int(start), rtt_sample=0.01)  # a full window acked
        assert cc.cwnd == pytest.approx(2 * start)

    def test_congestion_avoidance_linear(self):
        cc = RenoCC(MSS)
        cc.ssthresh = cc.cwnd  # leave slow start
        window = cc.cwnd
        cc.on_ack(int(window), rtt_sample=0.01)  # one RTT worth of ACKs
        assert cc.cwnd == pytest.approx(window + MSS, rel=0.01)

    def test_dupack_halves(self):
        cc = RenoCC(MSS, initial_window_segments=20)
        before = cc.cwnd
        cc.on_loss("dupack")
        assert cc.cwnd == pytest.approx(before / 2)
        assert cc.ssthresh == pytest.approx(before / 2)

    def test_timeout_collapses_to_one_mss(self):
        cc = RenoCC(MSS, initial_window_segments=20)
        cc.on_loss("timeout")
        assert cc.cwnd == MSS

    def test_slow_start_capped_at_ssthresh(self):
        cc = RenoCC(MSS, initial_window_segments=2)
        cc.ssthresh = 4 * MSS
        cc.on_ack(100 * MSS, rtt_sample=0.01)
        assert cc.cwnd == 4 * MSS

    def test_floor_at_one_mss(self):
        cc = RenoCC(MSS, initial_window_segments=1)
        for _ in range(5):
            cc.on_loss("dupack")
        assert cc.cwnd >= MSS


class TestCubic:
    def test_growth_toward_wmax_then_beyond(self):
        clock = {"now": 0.0}
        cc = CubicCC(MSS, initial_window_segments=50, clock=lambda: clock["now"])
        cc.ssthresh = cc.cwnd  # exit slow start
        cc.on_loss("dupack")
        after_loss = cc.cwnd
        # ACK clock over several simulated seconds -> grows past w_max.
        for step in range(200):
            clock["now"] = 0.01 * step
            cc.on_ack(MSS, rtt_sample=0.01)
        assert cc.cwnd > after_loss

    def test_timeout_resets(self):
        cc = CubicCC(MSS, initial_window_segments=30)
        cc.on_loss("timeout")
        assert cc.cwnd == MSS

    def test_beta_decrease(self):
        cc = CubicCC(MSS, initial_window_segments=100)
        cc.ssthresh = cc.cwnd
        before = cc.cwnd
        cc.on_loss("dupack")
        assert cc.cwnd == pytest.approx(before * CubicCC.BETA)


    def test_epoch_starting_above_wmax_probes_upward(self):
        # Two timeouts in a row leave w_max at one MSS while ssthresh
        # stays at two; slow start then ends above w_max.
        clock = {"now": 0.0}
        cc = CubicCC(MSS, initial_window_segments=10, clock=lambda: clock["now"])
        cc.on_loss("timeout")
        cc.on_loss("timeout")
        cc.on_ack(10 * MSS, rtt_sample=0.01)
        assert cc.cwnd > cc._w_max
        before = cc.cwnd
        clock["now"] = 0.5
        cc.on_ack(1, rtt_sample=0.01)
        assert cc._k == 0.0
        assert cc.cwnd > before


class TestLedbat:
    def test_grows_when_delay_at_base(self):
        cc = LedbatCC(MSS, target=0.005)
        before = cc.cwnd
        cc.on_ack(MSS, rtt_sample=0.010)  # establishes the base delay
        cc.on_ack(MSS, rtt_sample=0.010)  # no queueing -> off_target = 1
        assert cc.cwnd > before

    def test_shrinks_when_queueing_exceeds_target(self):
        cc = LedbatCC(MSS, initial_window_segments=20, target=0.005)
        cc.on_ack(MSS, rtt_sample=0.010)  # base = 10 ms
        before = cc.cwnd
        cc.on_ack(MSS, rtt_sample=0.030)  # 20 ms queueing >> 5 ms target
        assert cc.cwnd < before

    def test_tracks_base_delay_minimum(self):
        cc = LedbatCC(MSS)
        cc.on_ack(MSS, rtt_sample=0.020)
        cc.on_ack(MSS, rtt_sample=0.008)
        cc.on_ack(MSS, rtt_sample=0.030)
        assert cc.base_delay == 0.008

    def test_none_rtt_ignored(self):
        cc = LedbatCC(MSS)
        before = cc.cwnd
        cc.on_ack(MSS, rtt_sample=None)
        assert cc.cwnd == before

    def test_loss_halves(self):
        cc = LedbatCC(MSS, initial_window_segments=10)
        before = cc.cwnd
        cc.on_loss("dupack")
        assert cc.cwnd == pytest.approx(before / 2)
        cc.on_loss("timeout")
        assert cc.cwnd == MSS


class TestTcpLp:
    def test_backs_off_on_elevated_rtt(self):
        clock = {"now": 0.0}
        cc = TcpLpCC(MSS, initial_window_segments=20, clock=lambda: clock["now"])
        # Establish a min/max RTT range.
        cc.on_ack(MSS, rtt_sample=0.010)
        for _ in range(20):
            cc.on_ack(MSS, rtt_sample=0.050)  # smoothed rtt rises past trigger
        assert cc.cwnd == MSS

    def test_grows_when_path_idle(self):
        clock = {"now": 0.0}
        cc = TcpLpCC(MSS, initial_window_segments=4, clock=lambda: clock["now"])
        before = cc.cwnd
        for _ in range(10):
            cc.on_ack(MSS, rtt_sample=0.010)  # constant low RTT
        assert cc.cwnd > before

    def test_holdoff_after_inference(self):
        clock = {"now": 0.0}
        cc = TcpLpCC(
            MSS, initial_window_segments=20,
            inference_time=1.0, clock=lambda: clock["now"],
        )
        cc.on_ack(MSS, rtt_sample=0.010)
        for _ in range(20):
            cc.on_ack(MSS, rtt_sample=0.050)
        assert cc.cwnd == MSS
        # During holdoff, even good RTTs don't grow the window.
        clock["now"] = 0.5
        cc.on_ack(MSS, rtt_sample=0.010)
        floor = cc.cwnd
        assert floor == MSS


class TestRegistry:
    def test_all_names_construct(self):
        for name in CC_REGISTRY:
            cc = make_cc(name, MSS, clock=lambda: 0.0)
            assert cc.name == name
            assert cc.cwnd >= MSS

    def test_scavenger_set(self):
        assert SCAVENGER_ALGORITHMS == {"ledbat", "tcplp"}

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_cc("bbr3", MSS)
