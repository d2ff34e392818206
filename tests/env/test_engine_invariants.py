"""Invariants every engine keeps under the scenario driver.

The fluid, packet and socket engines run under one
:class:`~repro.env.multiflow.ScenarioDriver` pass, so one suite checks
them all through the driver's ``on_step`` hook and the logs it writes:
a collector never reports more packets than the engine counted, every
logged interval is well-formed, Jain's index stays in its range and the
link is never used beyond capacity plus what its buffer can release.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import build_driver
from repro.netsim import FluidNetwork, PacketNetwork
from repro.netsim.faults import Blackout, DelaySpike, FaultSchedule
from repro.netsim.socketpath import SocketNetwork

SKIP_S = 2.0


def scenario(engine: str) -> ScenarioConfig:
    if engine == "socket":
        # The socket engine runs in scaled wall time and takes only
        # whole-run flows on one shared path: one short scenario.
        return ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=8.0, rtt_ms=20.0, buffer_bdp=1.0),
            flows=(FlowConfig(cc="cubic"), FlowConfig(cc="vegas")),
            duration_s=4.0, seed=1)
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_bdp=1.0),
        flows=(FlowConfig(cc="cubic"),
               FlowConfig(cc="vegas", start_s=0.5, extra_rtt_ms=20.0),
               FlowConfig(cc="bbr", start_s=1.0, duration_s=4.0),
               FlowConfig(cc="reno", start_s=1.5, extra_rtt_ms=10.0)),
        duration_s=8.0, seed=1, faults=FaultSchedule((
            Blackout(3.0, 0.3), DelaySpike(5.0, 0.5, extra_ms=30.0))))


def engine_for(name: str, sc: ScenarioConfig):
    if name == "fluid":
        return FluidNetwork(sc.link, seed=sc.seed, faults=sc.faults,
                            tick_s=sc.tick_s)
    if name == "packet":
        return PacketNetwork(sc.link, seed=sc.seed, mtp_s=sc.mtp_s,
                             faults=sc.faults)
    return SocketNetwork(sc.link, sc.faults, seed=sc.seed, mtp_s=sc.mtp_s)


def engine_totals(engine, fid: int) -> np.ndarray:
    """The engine's own cumulative (sent, delivered, lost) of a flow."""
    if isinstance(engine, FluidNetwork):
        return np.array([engine.flow_sent_pkts(fid),
                         engine.flow_delivered_pkts(fid),
                         engine.flow_lost_pkts(fid)])
    if isinstance(engine, PacketNetwork):
        stats = engine.stats(fid)
        return np.array([stats.sent, stats.delivered, stats.lost],
                        dtype=float)
    sender = engine.flows[fid].sender
    return engine.pkts_per_seg * np.array(
        [sender.sent_segs, sender.delivered_segs,
         sender.fast_retransmits + sender.rto_timeouts], dtype=float)


@pytest.fixture(scope="module", params=["fluid", "packet", "socket"])
def run(request):
    """One driven run per engine: its scenario, result, and per step the
    collected running totals next to the engine's counters."""
    sc = scenario(request.param)
    engine = engine_for(request.param, sc)
    collected: dict[int, np.ndarray] = {}
    checks = []

    def on_step(now, flows, columns):
        for rf, s in zip(flows, columns.rows() if columns else []):
            total = collected.setdefault(rf.engine_id, np.zeros(3))
            total += (s.sent_pkts, s.delivered_pkts, s.lost_pkts)
            checks.append((rf.index, total.copy(),
                           engine_totals(engine, rf.engine_id)))

    try:
        result = build_driver(sc, on_step=on_step, engine=engine).run()
    finally:
        if isinstance(engine, SocketNetwork):
            engine.close()
    return sc, result, checks


def test_collected_totals_never_exceed_the_engines_counters(run):
    _sc, _result, checks = run
    assert checks
    for index, collected, counted in checks:
        assert (collected <= counted * (1 + 1e-9) + 1e-9).all(), \
            (index, collected, counted)


def test_every_logged_interval_is_well_formed(run):
    sc, result, _checks = run
    for cfg, log in zip(sc.flows, result.flows):
        assert log.times, cfg.cc
        loss = np.asarray(log.loss_rate)
        assert ((loss >= 0) & (loss <= 1)).all(), cfg.cc
        assert (np.asarray(log.throughput_mbps) >= 0).all(), cfg.cc
        base_rtt_s = sc.link.rtt_s + cfg.extra_rtt_ms / 1e3
        assert (np.asarray(log.rtt_s) >= base_rtt_s - 1e-9).all(), cfg.cc


def test_mean_jain_index_is_in_range(run):
    sc, result, _checks = run
    jain = result.mean_jain()
    assert 1.0 / len(sc.flows) <= jain <= 1.0


def test_utilization_within_capacity_plus_buffer(run):
    # Over the measured window the link delivers at most its capacity,
    # plus the backlog its buffer held when the window opened.
    sc, result, _checks = run
    slack = sc.link.buffer_bdp * sc.link.rtt_s / (sc.duration_s - SKIP_S)
    assert 0 < result.utilization(SKIP_S) <= 1 + slack
