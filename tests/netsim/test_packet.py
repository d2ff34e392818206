"""Packet-level simulator behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LinkConfig
from repro.errors import SimulationError
from repro.netsim import PacketNetwork
from repro.units import mbps_to_pps


def small_link(bw=12.0, rtt=30.0, buffer_bdp=1.0, loss=0.0):
    return LinkConfig(bandwidth_mbps=bw, rtt_ms=rtt, buffer_bdp=buffer_bdp,
                      random_loss=loss)


class TestSingleFlow:
    def test_window_limited_throughput(self):
        link = small_link()
        net = PacketNetwork(link, seed=0)
        f = net.add_flow(base_rtt_s=0.030, cwnd=10.0)  # BDP = 30
        net.run(5.0)
        stats = net.stats(f)
        expected = 10.0 / 0.030  # pkts per second
        measured = stats.delivered / 5.0
        assert measured == pytest.approx(expected, rel=0.05)
        assert stats.lost == 0

    def test_capacity_limited_throughput(self):
        link = small_link(buffer_bdp=4.0)
        net = PacketNetwork(link, seed=0)
        f = net.add_flow(base_rtt_s=0.030, cwnd=100.0)
        net.run(5.0)
        measured = net.stats(f).delivered / 5.0
        assert measured == pytest.approx(mbps_to_pps(12.0), rel=0.05)

    def test_overflow_causes_loss(self):
        link = small_link(buffer_bdp=0.5)
        net = PacketNetwork(link, seed=0)
        f = net.add_flow(base_rtt_s=0.030, cwnd=500.0)
        net.run(5.0)
        assert net.stats(f).lost > 0

    def test_random_loss(self):
        link = small_link(loss=0.05, buffer_bdp=4.0)
        net = PacketNetwork(link, seed=0)
        f = net.add_flow(base_rtt_s=0.030, cwnd=20.0)
        net.run(10.0)
        stats = net.stats(f)
        rate = stats.lost / max(stats.lost + stats.delivered, 1)
        assert rate == pytest.approx(0.05, abs=0.02)

    def test_rtt_includes_queueing(self):
        link = small_link(buffer_bdp=4.0)
        net = PacketNetwork(link, seed=0)
        f = net.add_flow(base_rtt_s=0.030, cwnd=60.0)  # 2x BDP
        net.run(5.0)
        # Standing queue of ~30 packets at 1000 pkt/s adds ~30 ms.
        assert net.stats(f).avg_rtt_s == pytest.approx(0.060, rel=0.10)


def each_mtp(net, until):
    """Advance ``net`` to ``until``; at every MTP stop yield ``(now,
    slots, columns)`` for the flows stopped there."""
    while net.now < until:
        net.advance_to(until)
        slots = net.slots(range(len(net._flows)))
        fired = slots[np.isfinite(net.instants(slots))]
        if len(fired):
            yield net.now, fired, net.collect_stats(fired, net.now)


class TestDecisionInstants:
    def test_windows_set_at_each_mtp_take_effect(self):
        link = small_link()
        net = PacketNetwork(link, seed=0, mtp_s=0.030)
        f = net.add_flow(base_rtt_s=0.030, cwnd=5.0)
        seen = 0
        for _now, slots, _cols in each_mtp(net, 2.0):
            seen += 1
            net.set_cwnds(slots, [20.0], None)
        assert seen >= 50
        measured = net.stats(f).delivered / 2.0
        assert measured == pytest.approx(20.0 / 0.030, rel=0.10)

    def test_non_finite_window_applies_nothing(self):
        net = PacketNetwork(small_link(), seed=0)
        net.add_flows([{"base_rtt_s": 0.03, "cwnd_pkts": 8.0}] * 2)
        net.advance_to(1.0)
        slots = net.slots([0, 1])
        with pytest.raises(SimulationError,
                           match="^non-finite cwnd for flow 1: nan$"):
            net.set_cwnds(slots, [30.0, float("nan")])
        assert [net._flows[s].cwnd for s in slots] == [8.0, 8.0]


class TestResume:
    """``advance_to(a)`` then ``advance_to(a + b)`` is ``advance_to(a + b)``:
    no duplicated SEND/MTP chains, no event dropped at the horizon."""

    @staticmethod
    def trace(net, ends):
        f = net.add_flow(base_rtt_s=0.030, cwnd=20.0)
        seen = []
        for end in ends:
            seen += [(now, cols.rows()) for now, _slots, cols
                     in each_mtp(net, end)]
        stats = net.stats(f)
        return (stats.sent, stats.delivered, stats.lost, stats.rtt_sum), seen

    @pytest.mark.parametrize("split", [1.0, 0.95, 0.03])
    def test_split_run_equals_one_run(self, split):
        whole = self.trace(PacketNetwork(small_link(), seed=0), [2.0])
        parts = self.trace(PacketNetwork(small_link(), seed=0),
                           [split, 2.0])
        assert parts == whole
        assert len(whole[1]) == 66

    def test_run_resumes(self):
        nets = [PacketNetwork(small_link(loss=0.01), seed=0)
                for _ in range(2)]
        for net in nets:
            net.add_flow(base_rtt_s=0.030, cwnd=20.0)
        nets[0].run(1.0)
        nets[0].run(1.0)
        nets[1].run(2.0)
        assert nets[0].stats(0) == nets[1].stats(0)
        assert nets[0].now == nets[1].now == 2.0


class TestStartStopWindows:
    def test_flow_sends_only_inside_its_window(self):
        link = small_link(buffer_bdp=4.0)
        net = PacketNetwork(link, seed=0)
        f = net.add_flow(base_rtt_s=0.030, cwnd=10.0, start_s=2.0,
                         stop_s=4.0)
        net.run(6.0)
        stats = net.stats(f)
        # ~2 s of window-limited sending, nothing before or after.
        assert stats.delivered == pytest.approx(2.0 * 10.0 / 0.030,
                                                rel=0.10)

    def test_windows_observed_via_mtp_timestamps(self):
        link = small_link(buffer_bdp=4.0)
        net = PacketNetwork(link, seed=0, mtp_s=0.25)
        net.add_flow(base_rtt_s=0.030, cwnd=10.0, start_s=2.0, stop_s=4.0)
        windows = [now for now, _slots, cols in each_mtp(net, 6.0)
                   if cols.throughput_pps[0] > 0]
        assert windows, "flow never delivered"
        # First delivering window ends just after start; none after stop.
        assert min(windows) == pytest.approx(2.25, abs=0.26)
        assert max(windows) <= 4.0 + 1e-9

    def test_late_starter_takes_capacity_from_incumbent(self):
        link = small_link(buffer_bdp=2.0)
        cap = mbps_to_pps(12.0)
        net = PacketNetwork(link, seed=0)
        a = net.add_flow(base_rtt_s=0.030, cwnd=200.0)
        b = net.add_flow(base_rtt_s=0.030, cwnd=200.0, start_s=5.0)
        net.run(10.0)
        # Flow a had the link alone for 5 s, then shared it for 5 s.
        assert net.stats(a).delivered / 10.0 == pytest.approx(0.75 * cap,
                                                              rel=0.10)
        assert net.stats(b).delivered / 10.0 == pytest.approx(0.25 * cap,
                                                              rel=0.15)

    def test_removed_flow_stops_sending_and_drains(self):
        net = PacketNetwork(small_link(), seed=0)
        kept, gone = net.add_flows([{"base_rtt_s": 0.03, "cwnd_pkts": 10.0}]
                                   * 2)
        net.run(1.0)
        net.remove_flows([gone])
        sent = net.stats(gone).sent
        net.run(1.0)
        stats = net.stats(gone)
        assert stats.sent == sent > 0
        assert stats.delivered + stats.lost == sent
        assert net.stats(kept).sent > sent

    def test_default_window_is_whole_run(self):
        net = PacketNetwork(small_link(), seed=0)
        f = net.add_flow(base_rtt_s=0.030, cwnd=10.0)
        net.run(3.0)
        assert net.stats(f).delivered > 0


class TestValidation:
    def test_rejects_bad_rtt(self):
        net = PacketNetwork(small_link())
        with pytest.raises(SimulationError):
            net.add_flow(base_rtt_s=0.0)

    def test_rejects_bad_duration(self):
        net = PacketNetwork(small_link())
        net.add_flow(base_rtt_s=0.03)
        with pytest.raises(SimulationError):
            net.run(0.0)

    def test_rejects_negative_start(self):
        net = PacketNetwork(small_link())
        with pytest.raises(SimulationError):
            net.add_flow(base_rtt_s=0.03, start_s=-1.0)

    def test_rejects_stop_before_start(self):
        net = PacketNetwork(small_link())
        with pytest.raises(SimulationError):
            net.add_flow(base_rtt_s=0.03, start_s=2.0, stop_s=2.0)
