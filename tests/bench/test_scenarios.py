"""Canonical benchmark scenarios must match the paper's parameters."""

from __future__ import annotations

import pytest

from repro import scenarios


class TestFig6:
    def test_parameters(self):
        sc = scenarios.fig6_scenario("cubic")
        assert sc.link.bandwidth_mbps == 100.0
        assert sc.link.rtt_ms == 30.0
        assert sc.link.buffer_bdp == 1.0
        assert len(sc.flows) == 3
        assert [f.start_s for f in sc.flows] == [0.0, 40.0, 80.0]
        assert all(f.duration_s == 120.0 for f in sc.flows)

    def test_quick_mode_shrinks_time_only(self):
        sc = scenarios.fig6_scenario("cubic", quick=True)
        assert sc.link.bandwidth_mbps == 100.0
        assert sc.duration_s < scenarios.fig6_scenario("cubic").duration_s


class TestMotivation:
    def test_fig1a_matches_paper(self):
        sc = scenarios.fig1a_scenario()
        assert sc.link.bandwidth_mbps == 80.0
        assert sc.link.rtt_ms == 60.0
        # 4.8 MB buffer in 1500 B packets.
        assert sc.link.buffer_size_packets == pytest.approx(3200.0)
        assert all(f.cc == "aurora" for f in sc.flows)

    def test_fig1b_theta0_forwarded(self):
        sc = scenarios.fig1b_scenario(theta0=8.0)
        assert all(f.cc_kwargs == {"theta0": 8.0} for f in sc.flows)
        assert sc.link.rtt_ms == 120.0


class TestOthers:
    def test_fig8_buffer_sized_for_200ms(self):
        sc = scenarios.fig8_scenario("cubic")
        # 1 BDP at 100 Mbps x 200 ms = 1666.7 packets.
        assert sc.link.buffer_size_packets == pytest.approx(1666.7, rel=0.01)
        assert len(sc.flows) == 5

    def test_fig10_flow_count(self):
        sc = scenarios.fig10_scenario("astraea", 30)
        assert len(sc.flows) == 30
        assert sc.link.bandwidth_mbps == 600.0

    def test_fig11_topology(self):
        topo = scenarios.fig11_topology("astraea", n_fs1=4)
        assert len(topo.flows) == 6

    def test_fig13_uses_lte_trace(self):
        sc = scenarios.fig13_scenario("astraea")
        assert sc.trace == "lte"

    def test_fig14_one_versus_cubics(self):
        sc = scenarios.fig14_scenario("bbr", n_cubic=3)
        assert sc.flows[0].cc == "bbr"
        assert [f.cc for f in sc.flows[1:]] == ["cubic"] * 3

    def test_fig20_satellite(self):
        sc = scenarios.fig20_scenario("astraea")
        assert sc.link.bandwidth_mbps == 42.0
        assert sc.link.rtt_ms == 800.0
        assert sc.link.random_loss == pytest.approx(0.0074)

    def test_fig22_highspeed(self):
        sc = scenarios.fig22_scenario("astraea")
        assert sc.link.bandwidth_mbps == 10_000.0
        assert sc.link.rtt_ms == 10.0

    def test_fig15_kinds(self):
        intra = scenarios.fig15_scenario("astraea", kind="intra")
        inter = scenarios.fig15_scenario("astraea", kind="inter")
        assert intra.link.rtt_ms < inter.link.rtt_ms
        assert intra.trace == inter.trace == "wan"
