"""Fluid engine invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkConfig
from repro.errors import SimulationError
from repro.netsim import FluidNetwork
from repro.netsim.traces import StepTrace
from repro.units import mbps_to_pps, pps_to_mbps


def make_net(bw=100.0, rtt=30.0, buffer_bdp=1.0, loss=0.0, **kwargs):
    link = LinkConfig(bandwidth_mbps=bw, rtt_ms=rtt, buffer_bdp=buffer_bdp,
                      random_loss=loss)
    return FluidNetwork(link, **kwargs), link


def run(net, seconds, dt=0.002):
    for _ in range(int(seconds / dt)):
        net.advance(dt)


def spy_rebuilds(net):
    """Count the network's SoA rebuilds from here on."""
    calls = []
    orig = net._rebuild_soa

    def spy(*args):
        calls.append(1)
        orig(*args)

    net._rebuild_soa = spy
    return calls


class TestSingleFlow:
    def test_underload_passes_through(self):
        net, link = make_net()
        f = net.add_flow(base_rtt_s=0.030, cwnd_pkts=100.0)  # < BDP of 250
        run(net, 2.0)
        assert net.queue_pkts() == pytest.approx(0.0, abs=1e-6)
        assert net.flow_rtt_s(f) == pytest.approx(0.030)
        assert pps_to_mbps(net.flow_goodput_pps(f)) == pytest.approx(40.0,
                                                                     rel=0.01)

    def test_overload_builds_queue_and_inflates_rtt(self):
        net, link = make_net()
        f = net.add_flow(base_rtt_s=0.030, cwnd_pkts=400.0)  # 1.6x BDP
        run(net, 3.0)
        # Equilibrium: inflight = cwnd => queue = cwnd - BDP = 150 pkts.
        assert net.queue_pkts() == pytest.approx(150.0, rel=0.02)
        assert net.flow_rtt_s(f) == pytest.approx(400.0 / mbps_to_pps(100.0),
                                                  rel=0.02)
        assert pps_to_mbps(net.flow_goodput_pps(f)) == pytest.approx(100.0,
                                                                     rel=0.01)

    def test_buffer_overflow_drops(self):
        net, link = make_net(buffer_bdp=0.5)  # 125 packets
        f = net.add_flow(base_rtt_s=0.030, cwnd_pkts=10_000.0)
        run(net, 2.0)
        assert net.queue_pkts() <= link.buffer_size_packets + 1e-6
        assert net.link_drops_pkts() > 0
        # Delivered rate still equals capacity.
        assert pps_to_mbps(net.flow_goodput_pps(f)) == pytest.approx(100.0,
                                                                     rel=0.02)

    def test_random_loss_reduces_goodput(self):
        net, _ = make_net(loss=0.05)
        f = net.add_flow(base_rtt_s=0.030, cwnd_pkts=100.0)
        run(net, 2.0)
        # 40 Mbps offered, 5% dropped on the wire.
        assert pps_to_mbps(net.flow_goodput_pps(f)) == pytest.approx(38.0,
                                                                     rel=0.02)

    def test_pacing_caps_rate(self):
        net, _ = make_net()
        f = net.add_flow(base_rtt_s=0.030, cwnd_pkts=1000.0,
                         pacing_pps=mbps_to_pps(30.0))
        run(net, 2.0)
        assert pps_to_mbps(net.flow_rate_pps(f)) == pytest.approx(30.0,
                                                                  rel=0.01)


class TestMultiFlow:
    def test_proportional_sharing(self):
        net, _ = make_net()
        f1 = net.add_flow(base_rtt_s=0.030, cwnd_pkts=300.0)
        f2 = net.add_flow(base_rtt_s=0.030, cwnd_pkts=100.0)
        run(net, 5.0)
        g1 = net.flow_goodput_pps(f1)
        g2 = net.flow_goodput_pps(f2)
        assert g1 / g2 == pytest.approx(3.0, rel=0.02)
        assert pps_to_mbps(g1 + g2) == pytest.approx(100.0, rel=0.01)

    def test_conservation_of_packets(self):
        net, _ = make_net(buffer_bdp=0.5)
        fids = [net.add_flow(base_rtt_s=0.030, cwnd_pkts=c)
                for c in (200.0, 300.0)]
        run(net, 4.0)
        total_sent = sum(net.flow_sent_pkts(f) for f in fids)
        total_delivered = sum(net.flow_delivered_pkts(f)
                              for f in fids)
        total_lost = sum(net.flow_lost_pkts(f) for f in fids)
        queued = net.queue_pkts()
        assert total_sent == pytest.approx(
            total_delivered + total_lost + queued, rel=1e-6)

    def test_flow_removal_frees_capacity(self):
        net, _ = make_net()
        f1 = net.add_flow(base_rtt_s=0.030, cwnd_pkts=260.0)
        f2 = net.add_flow(base_rtt_s=0.030, cwnd_pkts=260.0)
        run(net, 3.0)
        before = net.flow_goodput_pps(f1)
        net.remove_flow(f2)
        run(net, 3.0)
        after = net.flow_goodput_pps(f1)
        assert after > before * 1.5

    def test_idle_queue_drains(self):
        net, _ = make_net()
        f = net.add_flow(base_rtt_s=0.030, cwnd_pkts=400.0)
        run(net, 2.0)
        net.remove_flow(f)
        run(net, 1.0)
        assert net.queue_pkts() == pytest.approx(0.0, abs=1e-9)


class TestMultiLink:
    def test_second_bottleneck_caps_flow(self):
        links = [LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0,
                            buffer_bdp=4.0, name="l1"),
                 LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0,
                            buffer_bdp=20.0, name="l2")]
        net = FluidNetwork(links)
        short = net.add_flow(base_rtt_s=0.030, cwnd_pkts=2000.0, path=["l1"])
        long = net.add_flow(base_rtt_s=0.030, cwnd_pkts=2000.0,
                            path=["l1", "l2"])
        run(net, 6.0)
        g_long = pps_to_mbps(net.flow_goodput_pps(long))
        g_short = pps_to_mbps(net.flow_goodput_pps(short))
        assert g_long <= 20.0 * 1.05
        assert g_short + g_long == pytest.approx(100.0, rel=0.05)

    def test_unknown_link_in_path(self):
        net, _ = make_net()
        with pytest.raises(SimulationError):
            net.add_flow(base_rtt_s=0.03, path=["nope"])


class TestAddFlowsBatch:
    def test_one_rebuild_per_batch(self):
        net, _ = make_net()
        calls = spy_rebuilds(net)
        fids = net.add_flows([{"base_rtt_s": 0.03}] * 50)
        assert len(fids) == 50
        assert len(calls) == 1  # not one per flow

    def test_empty_batch_no_rebuild(self):
        net, _ = make_net()
        calls = spy_rebuilds(net)
        assert net.add_flows([]) == []
        assert calls == []

    def test_batch_equivalent_to_sequential(self):
        specs = [{"base_rtt_s": 0.02 + 0.005 * i, "cwnd_pkts": 10.0 + i}
                 for i in range(8)]
        batch, _ = make_net()
        seq, _ = make_net()
        fids_b = batch.add_flows(specs)
        fids_s = [seq.add_flow(**spec) for spec in specs]
        assert fids_b == fids_s
        run(batch, 2.0)
        run(seq, 2.0)
        for fb, fs in zip(fids_b, fids_s):
            assert batch.flow_goodput_pps(fb) == seq.flow_goodput_pps(fs)
            assert batch.flow_rtt_s(fb) == seq.flow_rtt_s(fs)
            assert batch.flow_delivered_pkts(fb) == \
                seq.flow_delivered_pkts(fs)

    def test_bad_spec_leaves_network_unchanged(self):
        net, _ = make_net()
        before = net.flow_ids
        with pytest.raises(SimulationError):
            net.add_flows([{"base_rtt_s": 0.03},
                           {"base_rtt_s": -1.0}])
        with pytest.raises(SimulationError):
            net.add_flows([{"base_rtt_s": 0.03},
                           {"base_rtt_s": 0.03, "path": ["nope"]}])
        with pytest.raises(SimulationError):
            net.add_flows([{"base_rtt_s": 0.03, "bogus": 1}])
        with pytest.raises(SimulationError):
            net.add_flows([{}])
        with pytest.raises(SimulationError):
            net.add_flows([(0.03,)])
        assert net.flow_ids == before

    def test_delivered_totals_accessor(self):
        net, _ = make_net()
        (fid,) = net.add_flows([{"base_rtt_s": 0.03, "cwnd_pkts": 100.0}])
        assert net.flow_delivered_pkts(fid) == 0.0
        run(net, 1.0)
        assert net.flow_delivered_pkts(fid) > 0.0
        with pytest.raises(SimulationError):
            net.flow_delivered_pkts(fid + 1)


class TestRemoveFlowsBatch:
    """Simultaneous departures are one SoA rebuild, not one per flow."""

    def build(self):
        net, _ = make_net()
        fids = net.add_flows(
            [{"base_rtt_s": 0.02 + 0.0005 * (i % 40), "cwnd_pkts": 4.0}
             for i in range(205)])
        net.advance_block(0.002, 30)
        # Survivors with different consumed offsets and undrained rows.
        slots = net.slots(fids[200:203])
        net.collect_stats(slots, net.now - 0.02)
        net.advance_block(0.002, 10)
        return net, fids

    def test_one_rebuild_and_survivors_bit_identical(self):
        batch, fids = self.build()
        loop, _ = self.build()
        calls = spy_rebuilds(batch)
        batch.remove_flows(fids[:200] + [9999])  # unknown ids are ignored
        assert len(calls) == 1
        calls = spy_rebuilds(loop)
        for fid in fids[:200]:
            loop.remove_flow(fid)
        assert len(calls) == 200
        assert batch.flow_ids == loop.flow_ids == fids[200:]
        for net in (batch, loop):
            net.advance_block(0.002, 20)
        survivors = fids[200:]
        got = batch.collect_stats(batch.slots(survivors), batch.now).rows()
        want = loop.collect_stats(loop.slots(survivors), loop.now).rows()
        assert got == want  # dataclass ==: exact float equality per field
        assert all(s.delivered_pkts > 0 for s in got)
        for fid in survivors:
            assert batch.flow_delivered_pkts(fid) == \
                loop.flow_delivered_pkts(fid)

    def test_unknown_only_is_a_no_op(self):
        net, _ = make_net()
        calls = spy_rebuilds(net)
        net.remove_flows([123, 456])
        assert calls == []


class TestTraceDriven:
    def test_capacity_step_changes_throughput(self):
        link = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)
        trace = StepTrace([(0.0, 100.0), (2.0, 25.0)])
        net = FluidNetwork(link, traces={"bottleneck": trace})
        f = net.add_flow(base_rtt_s=0.030, cwnd_pkts=200.0)
        run(net, 1.5)
        high = pps_to_mbps(net.flow_goodput_pps(f))
        run(net, 3.0)
        low = pps_to_mbps(net.flow_goodput_pps(f))
        # cwnd 200 over 30 ms base RTT = 80 Mbps, under the 100 Mbps cap.
        assert high == pytest.approx(80.0, rel=0.05)
        assert low == pytest.approx(25.0, rel=0.05)


class TestValidation:
    def test_rejects_nonpositive_tick(self):
        net, _ = make_net()
        with pytest.raises(SimulationError):
            net.advance(0.0)

    def test_rejects_bad_rtt(self):
        net, _ = make_net()
        with pytest.raises(SimulationError):
            net.add_flow(base_rtt_s=0.0)

    def test_rejects_unknown_flow(self):
        net, _ = make_net()
        with pytest.raises(SimulationError):
            net.set_cwnd(99, 10.0)

    def test_rejects_nonfinite_cwnd(self):
        net, _ = make_net()
        f = net.add_flow(base_rtt_s=0.03)
        with pytest.raises(SimulationError):
            net.set_cwnd(f, float("nan"))

    def test_rejects_duplicate_link_names(self):
        link = LinkConfig(name="x")
        with pytest.raises(SimulationError):
            FluidNetwork([link, link])

    def test_min_cwnd_floor(self):
        net, _ = make_net()
        f = net.add_flow(base_rtt_s=0.03)
        net.set_cwnd(f, 0.001)
        assert net.cwnd(f) >= 2.0


@settings(max_examples=20, deadline=None)
@given(cwnds=st.lists(st.floats(min_value=10.0, max_value=2000.0),
                      min_size=1, max_size=5))
def test_property_aggregate_never_exceeds_capacity(cwnds):
    """Delivered aggregate goodput never exceeds link capacity."""
    net, _ = make_net()
    fids = [net.add_flow(base_rtt_s=0.030, cwnd_pkts=c) for c in cwnds]
    run(net, 2.0, dt=0.002)
    total = sum(net.flow_goodput_pps(f) for f in fids)
    assert total <= mbps_to_pps(100.0) * 1.001


@settings(max_examples=20, deadline=None)
@given(cwnd=st.floats(min_value=4.0, max_value=5000.0),
       rtt_ms=st.floats(min_value=5.0, max_value=300.0))
def test_property_queue_bounded_by_buffer(cwnd, rtt_ms):
    net, link = make_net(rtt=rtt_ms, buffer_bdp=0.7)
    net.add_flow(base_rtt_s=rtt_ms / 1e3, cwnd_pkts=cwnd)
    run(net, 1.0, dt=0.002)
    assert net.queue_pkts() <= link.buffer_size_packets + 1e-6
