"""ECN: marking qdiscs, engine accounting, and ECN-reactive CUBIC."""

from __future__ import annotations

import pytest

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import run_scenario
from repro.netsim import FluidNetwork
from repro.netsim.qdisc import CoDel, Red
from repro.netsim.stats import MtpStats


class TestMarkingQdiscs:
    def test_red_ecn_marks_instead_of_dropping(self):
        red = Red(min_th_pkts=50, max_th_pkts=150, max_p=0.1, ewma=1.0,
                  ecn=True)
        assert red.drop_fraction(100.0, 0.01, 0.0, 0.002) == 0.0
        assert red.mark_fraction(100.0, 0.01, 0.0, 0.002) == \
            pytest.approx(0.05)

    def test_red_drop_mode_never_marks(self):
        red = Red(ewma=1.0)
        red.drop_fraction(100.0, 0.01, 0.0, 0.002)
        assert red.mark_fraction(100.0, 0.01, 0.0, 0.002) == 0.0

    def test_codel_ecn_marks(self):
        codel = CoDel(target_s=0.005, interval_s=0.1, ecn=True)
        codel.mark_fraction(100.0, 0.02, 0.0, 0.002)
        assert codel.mark_fraction(100.0, 0.02, 0.2, 0.002) > 0.0
        assert codel.drop_fraction(100.0, 0.02, 0.3, 0.002) == 0.0


class TestEngineMarking:
    def test_marks_flow_through_to_monitor(self):
        link = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=4.0,
                          qdisc="red",
                          qdisc_kwargs={"min_th_pkts": 20.0,
                                        "max_th_pkts": 100.0,
                                        "max_p": 0.3, "ecn": True})
        net = FluidNetwork(link)
        fid = net.add_flow(base_rtt_s=0.030, cwnd_pkts=400.0)
        for _ in range(3000):
            net.advance(0.002)
        stats = net.collect_stats(net.slots([fid]), net.now).rows()[0]
        assert stats.marked_pkts > 0.0
        assert stats.mark_rate > 0.0
        # ECN marks congestion without dropping.
        assert stats.lost_pkts == pytest.approx(0.0)

    def test_no_marks_under_droptail(self):
        net = FluidNetwork(LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0))
        fid = net.add_flow(base_rtt_s=0.030, cwnd_pkts=400.0)
        for _ in range(1000):
            net.advance(0.002)
        stats = net.collect_stats(net.slots([fid]), net.now).rows()[0]
        assert stats.marked_pkts == 0.0


class TestMtpStatsMarkRate:
    def test_mark_rate(self):
        stats = MtpStats(time_s=1.0, duration_s=0.03, throughput_pps=1000.0,
                         avg_rtt_s=0.03, min_rtt_s=0.03, sent_pkts=30.0,
                         delivered_pkts=30.0, lost_pkts=0.0,
                         pkts_in_flight=25.0, cwnd_pkts=30.0,
                         pacing_pps=1000.0, srtt_s=0.03, marked_pkts=3.0)
        assert stats.mark_rate == pytest.approx(0.1)

    def test_mark_rate_zero_when_nothing_delivered(self):
        stats = MtpStats(time_s=1.0, duration_s=0.03, throughput_pps=0.0,
                         avg_rtt_s=0.03, min_rtt_s=0.03, sent_pkts=0.0,
                         delivered_pkts=0.0, lost_pkts=0.0,
                         pkts_in_flight=0.0, cwnd_pkts=10.0,
                         pacing_pps=0.0, srtt_s=0.03, marked_pkts=0.0)
        assert stats.mark_rate == 0.0


class TestEcnCubic:
    def test_ecn_cubic_backs_off_on_marks_without_loss(self):
        link = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=4.0,
                          qdisc="codel",
                          qdisc_kwargs={"target_s": 0.005, "ecn": True})
        scenario = ScenarioConfig(
            link=link,
            flows=(FlowConfig(cc="cubic", cc_kwargs={"ecn": True}),),
            duration_s=15.0,
        )
        result = run_scenario(scenario)
        # Congestion controlled via marks: near-zero loss, bounded delay,
        # still high utilisation.
        assert result.mean_loss_rate(5.0) < 0.001
        assert result.mean_rtt_s(5.0) < 0.030 * 1.6
        assert result.utilization(5.0) > 0.85

    def test_plain_cubic_ignores_marks(self):
        from repro.cc import Cubic
        from tests.cc.test_base import make_stats

        plain = Cubic(ecn=False)
        plain.cwnd = 100.0
        plain.ssthresh = 50.0
        plain.on_interval(make_stats(marked_pkts=10.0, delivered_pkts=30.0))
        assert plain.cwnd >= 100.0

    def test_ecn_cubic_reduces_on_marks(self):
        from repro.cc import Cubic
        from tests.cc.test_base import make_stats

        ecn = Cubic(ecn=True)
        ecn.cwnd = 100.0
        ecn.ssthresh = 50.0
        ecn.on_interval(make_stats(marked_pkts=10.0, delivered_pkts=30.0))
        assert ecn.cwnd == pytest.approx(70.0)
