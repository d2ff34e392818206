"""Differential suite pinning the vectorized fast path to the reference.

The contract (docs/architecture.md §7): for any scenario — qdiscs,
faults, multi-link paths, pacing caps, mid-run flow churn — the block
kernel produces the same trajectory as the per-tick reference
implementation with per-tick per-flow deltas <= 1e-9.  Most cases here
are in fact bitwise identical; the tolerance absorbs only summation-order
differences that BLAS may introduce on some platforms.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkConfig, ScenarioConfig
from repro.env.multiflow import run_scenario
from repro.errors import SimulationError
from repro.netsim.faults import (
    BandwidthFlap,
    Blackout,
    DelaySpike,
    FaultSchedule,
    LossBurst,
    ReorderWindow,
)
from repro.netsim.fluid import FluidNetwork, slowpath_enabled
from repro.netsim.flowgen import staggered_flows

TOL = 1e-9
DT = 0.002

ALL_FAULTS = FaultSchedule([
    Blackout(start_s=0.3, duration_s=0.1),
    BandwidthFlap(start_s=0.6, duration_s=0.2, factor=0.4),
    LossBurst(start_s=1.0, duration_s=0.2, loss_rate=0.15),
    DelaySpike(start_s=1.4, duration_s=0.2, extra_ms=30.0),
    ReorderWindow(start_s=1.8, duration_s=0.2, rate=0.1),
])


def drain_all(net: FluidNetwork) -> dict:
    """Collect every flow and return comparable MTP stats per flow."""
    out = {}
    fids = net.flow_ids
    for fid, s in zip(fids, net.collect_stats(net.slots(fids),
                                              net.now).rows()):
        out[fid] = (s.throughput_pps, s.avg_rtt_s, s.min_rtt_s,
                    s.sent_pkts, s.delivered_pkts, s.lost_pkts,
                    s.marked_pkts, s.srtt_s)
    return out


def assert_networks_equal(ref: FluidNetwork, fast: FluidNetwork,
                          tol: float = TOL) -> None:
    """Per-tick per-flow pending samples and link state must agree."""
    assert ref.now == pytest.approx(fast.now, abs=1e-12)
    assert sorted(ref.flow_ids) == sorted(fast.flow_ids)
    for fid in ref.flow_ids:
        pa = ref.pending_samples(fid)
        pb = fast.pending_samples(fid)
        assert len(pa) == len(pb)
        for a, b in zip(pa, pb):
            assert a.time == pytest.approx(b.time, abs=1e-12)
            assert a.avail_at == pytest.approx(b.avail_at, abs=tol)
            assert a.rtt_s == pytest.approx(b.rtt_s, abs=tol)
            assert a.sent_pkts == pytest.approx(b.sent_pkts, abs=tol)
            assert a.delivered_pkts == pytest.approx(b.delivered_pkts,
                                                     abs=tol)
            assert a.lost_pkts == pytest.approx(b.lost_pkts, abs=tol)
            assert a.marked_pkts == pytest.approx(b.marked_pkts, abs=tol)


def run_pair(build, script):
    """Run ``script(net, fids)`` on a reference and a fast engine."""
    ref, rfids = build(slowpath=True)
    fast, ffids = build(slowpath=False)
    script(ref, rfids, per_tick=True)
    script(fast, ffids, per_tick=False)
    return ref, fast


def advance(net: FluidNetwork, n_ticks: int, per_tick: bool,
            block: int = 15) -> None:
    if per_tick:
        for _ in range(n_ticks):
            net.advance(DT)
    else:
        done = 0
        while done < n_ticks:
            step = min(block, n_ticks - done)
            net.advance_block(DT, step)
            done += step


class TestDifferentialGolden:
    """Pinned scenarios on both paths, compared tick by tick."""

    @pytest.mark.parametrize("qdisc", ["droptail", "red", "codel"])
    def test_single_link_qdiscs(self, qdisc):
        def build(slowpath):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                              buffer_bdp=1.5, qdisc=qdisc)
            net = FluidNetwork(link, slowpath=slowpath)
            fids = [net.add_flow(0.03, cwnd_pkts=90.0),
                    net.add_flow(0.05, cwnd_pkts=45.0)]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, 300, per_tick)
            net.set_cwnd(fids[0], 120.0)
            advance(net, 300, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        assert ref.queue_pkts() == pytest.approx(fast.queue_pkts(), abs=TOL)

    def test_all_fault_kinds(self):
        def build(slowpath):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                              buffer_bdp=1.0, random_loss=0.001)
            net = FluidNetwork(link, faults=ALL_FAULTS, slowpath=slowpath)
            fids = [net.add_flow(0.03, cwnd_pkts=80.0)]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, 1100, per_tick)  # crosses all five fault windows

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)

    def test_pacing_caps(self):
        def build(slowpath):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=20.0,
                              buffer_bdp=1.0)
            net = FluidNetwork(link, slowpath=slowpath)
            fids = [net.add_flow(0.02, cwnd_pkts=200.0, pacing_pps=1500.0),
                    net.add_flow(0.02, cwnd_pkts=50.0)]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, 200, per_tick)
            net.set_cwnd(fids[0], 150.0, pacing_pps=900.0)
            advance(net, 200, per_tick)
            net.set_cwnd(fids[0], 150.0, pacing_pps=None)
            advance(net, 200, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)

    def test_multi_link_paths(self):
        def build(slowpath):
            links = [
                LinkConfig(name="a", bandwidth_mbps=40.0, rtt_ms=20.0,
                           buffer_bdp=1.0),
                LinkConfig(name="b", bandwidth_mbps=24.0, rtt_ms=20.0,
                           buffer_bdp=1.0, qdisc="codel"),
                LinkConfig(name="c", bandwidth_mbps=60.0, rtt_ms=20.0,
                           buffer_bdp=2.0),
            ]
            net = FluidNetwork(links, slowpath=slowpath)
            fids = [net.add_flow(0.02, path=["a", "b"], cwnd_pkts=60.0),
                    net.add_flow(0.03, path=["b", "c"], cwnd_pkts=50.0),
                    net.add_flow(0.01, path=["a"], cwnd_pkts=40.0)]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, 600, per_tick)
            net.set_cwnd(fids[1], 80.0)
            advance(net, 600, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        for name in ("a", "b", "c"):
            assert ref.queue_pkts(name) == pytest.approx(
                fast.queue_pkts(name), abs=TOL)

    def test_flow_churn_mid_run(self):
        def build(slowpath):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                              buffer_bdp=1.5)
            net = FluidNetwork(link, slowpath=slowpath)
            fids = [net.add_flow(0.03, cwnd_pkts=80.0)]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, 250, per_tick)
            fids.append(net.add_flow(0.05, cwnd_pkts=40.0))
            advance(net, 250, per_tick)
            net.remove_flow(fids[0])
            advance(net, 250, per_tick)
            fids.append(net.add_flow(0.02, cwnd_pkts=30.0))
            advance(net, 250, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)

    def test_block_equals_repeated_advance_on_fast_path(self):
        """advance_block(dt, n) must equal n advance(dt) calls exactly."""
        def build():
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                              buffer_bdp=1.5, qdisc="red")
            net = FluidNetwork(link, faults=ALL_FAULTS, slowpath=False)
            net.add_flow(0.03, cwnd_pkts=80.0)
            net.add_flow(0.05, cwnd_pkts=40.0)
            return net

        blocked, ticked = build(), build()
        blocked.advance_block(DT, 450)
        for _ in range(450):
            ticked.advance(DT)
        assert_networks_equal(ticked, blocked, tol=0.0)

    def test_scenario_logs_identical(self):
        """Full run_scenario: block-stepped fast vs per-tick reference."""
        def make():
            return ScenarioConfig(
                link=LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                                buffer_bdp=1.5, qdisc="red"),
                flows=staggered_flows(3, "cubic", interval_s=3.0,
                                      duration_s=8.0),
                duration_s=12.0,
                seed=5,
                faults=FaultSchedule([Blackout(start_s=4.0, duration_s=0.4)]),
            )

        slow = run_scenario_with_path(make(), slowpath=True)
        fast = run_scenario_with_path(make(), slowpath=False)
        for a, b in zip(slow.flows, fast.flows):
            assert a.times == b.times
            for series in ("throughput_mbps", "rtt_s", "loss_rate",
                           "cwnd_pkts", "send_rate_mbps"):
                da = np.asarray(getattr(a, series))
                db = np.asarray(getattr(b, series))
                if len(da):
                    assert float(np.max(np.abs(da - db))) <= TOL


def run_scenario_with_path(scenario, slowpath: bool):
    import os

    from repro.netsim.fluid import SLOWPATH_ENV

    saved = os.environ.get(SLOWPATH_ENV)
    os.environ[SLOWPATH_ENV] = "1" if slowpath else "0"
    try:
        return run_scenario(scenario)
    finally:
        if saved is None:
            os.environ.pop(SLOWPATH_ENV, None)
        else:
            os.environ[SLOWPATH_ENV] = saved


class TestZeroArrivalGoodput:
    """Regression: backlog drained on a zero-arrival tick must still be
    attributed to the flows whose fluid is queued (it used to vanish)."""

    @pytest.mark.parametrize("slowpath", [True, False])
    def test_drain_attributed_after_sender_stalls(self, slowpath):
        link = LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_bdp=4.0)
        net = FluidNetwork(link, slowpath=slowpath)
        fid = net.add_flow(0.02, cwnd_pkts=400.0)
        for _ in range(50):
            net.advance(DT)
        assert net.queue_pkts() > 1.0  # backlog built up
        # Stall the sender: pacing cap of (almost) zero means zero
        # arrivals while the queue keeps draining.
        net.set_cwnd(fid, 400.0, pacing_pps=1e-9)
        drained_before = net.queue_pkts()
        delivered = 0.0
        for _ in range(30):
            net.advance(DT)
        for s in net.pending_samples(fid)[-30:]:
            delivered += s.delivered_pkts
        assert net.queue_pkts() < drained_before
        # The drained backlog shows up as this flow's goodput.
        assert delivered > 0.5 * (drained_before - net.queue_pkts())

    @pytest.mark.parametrize("slowpath", [True, False])
    def test_total_delivered_conserved_through_stall(self, slowpath):
        link = LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_bdp=4.0)
        net = FluidNetwork(link, slowpath=slowpath)
        f1 = net.add_flow(0.02, cwnd_pkts=300.0)
        f2 = net.add_flow(0.02, cwnd_pkts=100.0)
        for _ in range(50):
            net.advance(DT)
        net.set_cwnd(f1, 300.0, pacing_pps=1e-9)
        net.set_cwnd(f2, 100.0, pacing_pps=1e-9)
        for _ in range(40):
            net.advance(DT)
        flow_delivered = sum(
            sum(s.delivered_pkts for s in net.pending_samples(f))
            for f in (f1, f2))
        # Link-level deliveries equal the per-flow attribution (no fluid
        # delivered "to nobody").
        link_delivered = net._links[0].total_delivered_pkts
        assert flow_delivered == pytest.approx(link_delivered, rel=1e-9)


@st.composite
def random_scenario(draw):
    n_flows = draw(st.integers(min_value=1, max_value=4))
    qdisc = draw(st.sampled_from(["droptail", "red", "codel"]))
    bw = draw(st.floats(min_value=5.0, max_value=120.0))
    buf = draw(st.floats(min_value=0.25, max_value=3.0))
    rloss = draw(st.sampled_from([0.0, 0.001, 0.01]))
    flows = [
        (draw(st.floats(min_value=0.005, max_value=0.2)),   # base rtt
         draw(st.floats(min_value=4.0, max_value=300.0)),   # cwnd
         draw(st.sampled_from([None, 500.0, 5000.0])))      # pacing
        for _ in range(n_flows)
    ]
    fault = draw(st.sampled_from([
        None,
        FaultSchedule([Blackout(start_s=0.1, duration_s=0.08)]),
        FaultSchedule([LossBurst(start_s=0.1, duration_s=0.1,
                                 loss_rate=0.2)]),
        FaultSchedule([DelaySpike(start_s=0.05, duration_s=0.15,
                                  extra_ms=25.0)]),
    ]))
    churn = draw(st.booleans())
    n_ticks = draw(st.integers(min_value=1, max_value=180))
    block = draw(st.integers(min_value=1, max_value=40))
    return (n_flows, qdisc, bw, buf, rloss, flows, fault, churn,
            n_ticks, block)


class TestHypothesisDifferential:
    @settings(max_examples=40, deadline=None)
    @given(random_scenario())
    def test_random_scenarios_agree(self, params):
        (n_flows, qdisc, bw, buf, rloss, flows, fault, churn,
         n_ticks, block) = params

        def build(slowpath):
            link = LinkConfig(bandwidth_mbps=bw, rtt_ms=20.0,
                              buffer_bdp=buf, qdisc=qdisc,
                              random_loss=rloss)
            net = FluidNetwork(link, faults=fault, slowpath=slowpath)
            fids = [net.add_flow(rtt, cwnd_pkts=cwnd, pacing_pps=pace)
                    for rtt, cwnd, pace in flows]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, n_ticks, per_tick, block=block)
            if churn:
                net.remove_flow(fids[0])
                fids.append(net.add_flow(0.015, cwnd_pkts=25.0))
                advance(net, n_ticks, per_tick, block=block)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        assert ref.queue_pkts() == pytest.approx(fast.queue_pkts(), abs=TOL)


class TestBlockApi:
    def test_invalid_block_args_raise(self):
        net = FluidNetwork(LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0))
        with pytest.raises(SimulationError):
            net.advance_block(0.0, 10)
        with pytest.raises(SimulationError):
            net.advance_block(0.002, 0)
        with pytest.raises(SimulationError):
            net.advance_block(0.002, -3)

    def test_idle_network_blocks_drain_queues(self):
        ref = FluidNetwork(LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0),
                           slowpath=True)
        fast = FluidNetwork(LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0),
                            slowpath=False)
        for net in (ref, fast):
            fid = net.add_flow(0.02, cwnd_pkts=200.0)
            for _ in range(50):
                net.advance(DT)
            net.remove_flow(fid)
        assert ref.queue_pkts() > 0
        for _ in range(100):
            ref.advance(DT)
        fast.advance_block(DT, 100)
        assert ref.queue_pkts() == pytest.approx(fast.queue_pkts(), abs=TOL)
        assert ref.now == pytest.approx(fast.now, abs=1e-12)

    def test_env_variable_selects_reference(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE_SLOWPATH", "1")
        assert slowpath_enabled()
        net = FluidNetwork(LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0))
        assert net._slowpath
        monkeypatch.setenv("REPRO_ENGINE_SLOWPATH", "0")
        assert not slowpath_enabled()
        net = FluidNetwork(LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0))
        assert not net._slowpath
        # Explicit constructor argument overrides the environment.
        monkeypatch.setenv("REPRO_ENGINE_SLOWPATH", "1")
        net = FluidNetwork(LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0),
                           slowpath=False)
        assert not net._slowpath
