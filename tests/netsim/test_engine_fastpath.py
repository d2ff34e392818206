"""Differential suite pinning the block kernels to the per-tick oracle.

The contract (docs/architecture.md §7): for any scenario — qdiscs,
faults, multi-link paths, pacing caps, mid-run flow churn — the block
kernels produce the same trajectory as the per-tick reference
implementation (:class:`~tests.oracles.fluid_reference.ReferenceFluid`),
bit for bit: every field of every pending sample, the clock and every
link's queue compare equal on ``float.hex``.
"""

from __future__ import annotations

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkConfig, ScenarioConfig
from repro.env.multiflow import build_driver, run_scenario
from repro.errors import SimulationError
from repro.netsim.faults import (
    BandwidthFlap,
    Blackout,
    DelaySpike,
    FaultSchedule,
    LossBurst,
    ReorderWindow,
)
from repro.netsim.fluid import FluidNetwork
from repro.netsim.flowgen import staggered_flows
from tests.oracles.fluid_reference import ReferenceFluid

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


def hexed_samples(net: FluidNetwork, fid: int) -> list[tuple[str, ...]]:
    """A flow's pending samples on ``float.hex``."""
    return [tuple(float(v).hex() for v in astuple(sample))
            for sample in net.pending_samples(fid)]


def assert_networks_equal(ref: FluidNetwork, fast: FluidNetwork) -> None:
    """Every field of every pending sample of every flow, the clock and
    every link's queue, bit for bit."""
    assert ref.now.hex() == fast.now.hex()
    assert ref.flow_ids == fast.flow_ids
    for fid in ref.flow_ids:
        assert hexed_samples(ref, fid) == hexed_samples(fast, fid), fid
    for a, b in zip(ref._links, fast._links, strict=True):
        assert a.queue_pkts.hex() == b.queue_pkts.hex(), a.config.name


def run_pair(build, script):
    """Run ``script(net, fids)`` on the reference and the production
    engine; ``build(engine)`` builds a network of class ``engine``."""
    ref, rfids = build(ReferenceFluid)
    fast, ffids = build(FluidNetwork)
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
    """Pinned scenarios on both engines, compared tick by tick."""

    @pytest.mark.parametrize("qdisc", ["droptail", "red", "codel"])
    def test_single_link_qdiscs(self, qdisc):
        def build(engine):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                              buffer_bdp=1.5, qdisc=qdisc)
            net = engine(link)
            fids = [net.add_flow(0.03, cwnd_pkts=90.0),
                    net.add_flow(0.05, cwnd_pkts=45.0)]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, 300, per_tick)
            net.set_cwnd(fids[0], 120.0)
            advance(net, 300, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)

    def test_all_fault_kinds(self):
        def build(engine):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                              buffer_bdp=1.0, random_loss=0.001)
            net = engine(link, faults=ALL_FAULTS)
            fids = [net.add_flow(0.03, cwnd_pkts=80.0)]
            return net, fids

        def script(net, fids, per_tick):
            advance(net, 1100, per_tick)  # crosses all five fault windows

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)

    def test_pacing_caps(self):
        def build(engine):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=20.0,
                              buffer_bdp=1.0)
            net = engine(link)
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
        def build(engine):
            links = [
                LinkConfig(name="a", bandwidth_mbps=40.0, rtt_ms=20.0,
                           buffer_bdp=1.0),
                LinkConfig(name="b", bandwidth_mbps=24.0, rtt_ms=20.0,
                           buffer_bdp=1.0, qdisc="codel"),
                LinkConfig(name="c", bandwidth_mbps=60.0, rtt_ms=20.0,
                           buffer_bdp=2.0),
            ]
            net = engine(links)
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

    def test_multi_link_ecn_marks(self):
        """The multi-link kernel marks as the oracle does, bit for bit."""
        def build(engine):
            red = {"min_th_pkts": 2.0, "max_th_pkts": 40.0, "max_p": 0.5,
                   "ewma": 0.5, "ecn": True}
            links = [
                LinkConfig(name="a", bandwidth_mbps=30.0, rtt_ms=20.0,
                           buffer_bdp=0.5, qdisc="red", qdisc_kwargs=red),
                LinkConfig(name="b", bandwidth_mbps=20.0, rtt_ms=20.0,
                           buffer_bdp=0.5, qdisc="red", qdisc_kwargs=red),
            ]
            net = engine(links)
            return net, [net.add_flow(0.02, path=["a", "b"], cwnd_pkts=90.0),
                         net.add_flow(0.03, path=["b"], cwnd_pkts=70.0)]

        def script(net, fids, per_tick):
            advance(net, 300, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        assert any(s.marked_pkts > 0 for fid in fast.flow_ids
                   for s in fast.pending_samples(fid))

    def test_flow_churn_mid_run(self):
        def build(engine):
            link = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0,
                              buffer_bdp=1.5)
            net = engine(link)
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
            net = FluidNetwork(link, faults=ALL_FAULTS)
            net.add_flow(0.03, cwnd_pkts=80.0)
            net.add_flow(0.05, cwnd_pkts=40.0)
            return net

        blocked, ticked = build(), build()
        blocked.advance_block(DT, 450)
        for _ in range(450):
            ticked.advance(DT)
        assert_networks_equal(ticked, blocked)

    def test_scenario_logs_identical(self):
        """Full scenario runs: the driver over the production engine vs
        over the per-tick reference, on two pinned scenarios (qdisc,
        faults, staggered starts and stops)."""
        red = LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0, buffer_bdp=1.5,
                         qdisc="red")
        blackout = ScenarioConfig(
            link=red,
            flows=staggered_flows(3, "cubic", interval_s=3.0,
                                  duration_s=8.0),
            duration_s=12.0,
            seed=5,
            faults=FaultSchedule([Blackout(start_s=4.0, duration_s=0.4)]),
        )
        blackout_and_loss = ScenarioConfig(
            link=red,
            flows=staggered_flows(3, "cubic", interval_s=3.0,
                                  duration_s=10.0),
            duration_s=14.0,
            seed=23,
            faults=FaultSchedule([
                Blackout(start_s=4.0, duration_s=0.5),
                LossBurst(start_s=8.0, duration_s=0.5, loss_rate=0.1),
            ]),
        )
        for scenario in (blackout, blackout_and_loss):
            ref = build_driver(
                scenario, engine=ReferenceFluid.for_scenario(scenario)).run()
            prod = run_scenario(scenario)
            for a, b in zip(ref.flows, prod.flows, strict=True):
                assert a.times == b.times
                for series in ("throughput_mbps", "rtt_s", "loss_rate",
                               "cwnd_pkts", "send_rate_mbps"):
                    da = np.asarray(getattr(a, series), dtype="<f8")
                    db = np.asarray(getattr(b, series), dtype="<f8")
                    assert da.tobytes() == db.tobytes(), series


class TestZeroArrivalGoodput:
    """Regression: backlog drained on a zero-arrival tick must still be
    attributed to the flows whose fluid is queued (it used to vanish)."""

    @pytest.mark.parametrize("reference", [True, False])
    def test_drain_attributed_after_sender_stalls(self, reference):
        link = LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_bdp=4.0)
        net = (ReferenceFluid if reference else FluidNetwork)(link)
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

    @pytest.mark.parametrize("reference", [True, False])
    def test_total_delivered_conserved_through_stall(self, reference):
        link = LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_bdp=4.0)
        net = (ReferenceFluid if reference else FluidNetwork)(link)
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


class TestCarryPaths:
    """The tick-to-tick carries of the single-link kernel, whose per-flow
    columns are written per block: the arrival share carried over ticks
    (and blocks) with no arrivals, the ticks before any share exists,
    and every loss and mark term inside one block."""

    @staticmethod
    def zero_arrival_ticks(net: FluidNetwork, fids) -> list[int]:
        """Ticks (in sample order) at which every flow's arrivals were
        all early-dropped: lost equals sent, and something was sent."""
        rows = [net.pending_samples(fid) for fid in fids]
        return [k for k, tick in enumerate(zip(*rows))
                if all(s.sent_pkts > 0 and s.lost_pkts == s.sent_pkts
                       for s in tick)]

    @pytest.mark.parametrize("block", [7, 15, 40])
    def test_zero_arrival_ticks_inside_a_block(self, block):
        """RED at a drop fraction of 1 empties a tick's arrivals; with an
        instant average the queue swings across the thresholds within
        one block, so a sending tick and a zero-arrival tick share a
        block, and the drain of the zero-arrival one takes the share the
        sending one left."""
        def build(engine):
            link = LinkConfig(bandwidth_mbps=24.0, rtt_ms=20.0,
                              buffer_bdp=4.0, qdisc="red",
                              qdisc_kwargs={"min_th_pkts": 5.0,
                                            "max_th_pkts": 20.0,
                                            "ewma": 1.0})
            net = engine(link)
            return net, [net.add_flow(0.02, cwnd_pkts=300.0),
                         net.add_flow(0.03, cwnd_pkts=120.0)]

        def script(net, fids, per_tick):
            advance(net, 400, per_tick, block=block)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        zero = set(self.zero_arrival_ticks(fast, fast.flow_ids))
        assert any(k % block and k - 1 not in zero for k in zero)

    @pytest.mark.parametrize("block", [1, 15])
    def test_share_carried_across_blocks(self, block):
        """Every sender stalls (pacing 0) for whole blocks: each of those
        blocks starts with no arrivals and drains the backlog in the
        share the link carried in from an earlier block."""
        def build(engine):
            link = LinkConfig(bandwidth_mbps=12.0, rtt_ms=20.0,
                              buffer_bdp=4.0)
            net = engine(link)
            return net, [net.add_flow(0.02, cwnd_pkts=200.0),
                         net.add_flow(0.04, cwnd_pkts=90.0)]

        def script(net, fids, per_tick):
            advance(net, 60, per_tick, block=block)
            for fid in fids:
                net.set_cwnd(fid, net.cwnd(fid), pacing_pps=0.0)
            advance(net, 45, per_tick, block=block)
            for fid in fids:
                net.set_cwnd(fid, net.cwnd(fid))
            advance(net, 30, per_tick, block=block)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        stalled = [fast.pending_samples(fid)[60:105] for fid in fast.flow_ids]
        assert all(s.sent_pkts == 0.0 for rows in stalled for s in rows)
        assert all(sum(s.delivered_pkts for s in rows) > 0
                   for rows in stalled)

    def test_blocks_before_any_arrival(self):
        """Ticks before the link ever had arrivals deliver to no flow:
        on a fresh network whose senders start stalled, and after churn
        (which drops the carried share) over a standing backlog."""
        def build(engine):
            link = LinkConfig(bandwidth_mbps=12.0, rtt_ms=20.0,
                              buffer_bdp=4.0)
            net = engine(link)
            return net, [net.add_flow(0.02, cwnd_pkts=200.0, pacing_pps=0.0),
                         net.add_flow(0.03, cwnd_pkts=90.0, pacing_pps=0.0)]

        def script(net, fids, per_tick):
            advance(net, 30, per_tick)
            for fid in fids:
                net.set_cwnd(fid, net.cwnd(fid))
            advance(net, 60, per_tick)
            net.remove_flow(fids[1])
            net.set_cwnd(fids[0], net.cwnd(fids[0]), pacing_pps=0.0)
            advance(net, 30, per_tick)
            net.set_cwnd(fids[0], net.cwnd(fids[0]))
            advance(net, 30, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        rows = fast.pending_samples(fast.flow_ids[0])
        assert all(s.delivered_pkts == 0.0 for s in rows[:30])
        assert all(s.delivered_pkts == 0.0 for s in rows[90:120])
        assert ref.queue_pkts() > 0.0

    @pytest.mark.parametrize("ecn", [False, True])
    def test_every_loss_and_mark_term_in_one_block(self, ecn):
        """RED early drops (or, with ECN, marks), overflow drops, the
        link's random loss, a loss burst and reorder-signalled loss,
        overlapping inside the same blocks."""
        faults = FaultSchedule([
            LossBurst(start_s=0.1, duration_s=0.2, loss_rate=0.2),
            ReorderWindow(start_s=0.15, duration_s=0.2, rate=0.1),
        ])

        def build(engine):
            link = LinkConfig(bandwidth_mbps=24.0, rtt_ms=20.0,
                              buffer_bdp=0.5, qdisc="red",
                              random_loss=0.01,
                              qdisc_kwargs={"min_th_pkts": 2.0,
                                            "max_th_pkts": 60.0,
                                            "max_p": 0.5, "ewma": 0.5,
                                            "ecn": ecn})
            net = engine(link, faults=faults)
            return net, [net.add_flow(0.02, cwnd_pkts=150.0),
                         net.add_flow(0.03, cwnd_pkts=80.0)]

        def script(net, fids, per_tick):
            advance(net, 250, per_tick)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        rows = [s for fid in fast.flow_ids
                for s in fast.pending_samples(fid)]
        assert any(s.lost_pkts > 0 for s in rows)
        assert any(s.marked_pkts > 0 for s in rows) == ecn
        assert fast.link_drops_pkts() > 0

    @pytest.mark.parametrize("block", [7, 15])
    def test_blackout(self, block):
        """Capacity 0: the queue delay falls back to the nominal rate,
        nothing departs, the backlog and then the overflow grow."""
        def build(engine):
            link = LinkConfig(bandwidth_mbps=24.0, rtt_ms=20.0,
                              buffer_bdp=1.0)
            net = engine(link, faults=FaultSchedule(
                [Blackout(start_s=0.1, duration_s=0.15)]))
            return net, [net.add_flow(0.02, cwnd_pkts=60.0),
                         net.add_flow(0.04, cwnd_pkts=40.0)]

        def script(net, fids, per_tick):
            advance(net, 250, per_tick, block=block)

        ref, fast = run_pair(build, script)
        assert_networks_equal(ref, fast)
        dark = fast.pending_samples(fast.flow_ids[0])[55:120]
        assert all(s.delivered_pkts == 0.0 for s in dark)
        assert fast.link_drops_pkts() > 0


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

        def build(engine):
            link = LinkConfig(bandwidth_mbps=bw, rtt_ms=20.0,
                              buffer_bdp=buf, qdisc=qdisc,
                              random_loss=rloss)
            net = engine(link, faults=fault)
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
        """Queues left by removed flows drain on the general kernel as on
        the reference, compared mid-drain and through a blackout, on one
        link and on two; the idle drain leaves the RED state alone, so a
        flow that starts afterwards sees the same qdisc."""
        one = [LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_bdp=4.0,
                          qdisc="red")]
        two = [LinkConfig(name="a", bandwidth_mbps=10.0, rtt_ms=20.0,
                          buffer_bdp=4.0),
               LinkConfig(name="b", bandwidth_mbps=4.0, rtt_ms=20.0,
                          buffer_bdp=4.0)]
        blackout = FaultSchedule([Blackout(start_s=0.15, duration_s=0.05)])
        for links in (one, two):
            ref = ReferenceFluid(links, faults=blackout)
            fast = FluidNetwork(links, faults=blackout)
            for net in (ref, fast):
                fid = net.add_flow(0.02, cwnd_pkts=400.0)
                for _ in range(50):
                    net.advance(DT)
                net.remove_flow(fid)
            assert ref.queue_pkts() > 0
            for n_ticks in (7, 1, 30, 200):
                for _ in range(n_ticks):
                    ref.advance(DT)
                fast.advance_block(DT, n_ticks)
                assert_networks_equal(ref, fast)
            for net in (ref, fast):
                net.add_flow(0.02, cwnd_pkts=400.0)
            advance(ref, 100, per_tick=True)
            advance(fast, 100, per_tick=False)
            assert_networks_equal(ref, fast)
