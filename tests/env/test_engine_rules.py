"""Controller rules every engine enforces the same way.

The fluid, packet and socket engines take their windows from the same
driver pass, so a controller's failure must look the same on each: a
non-finite window, or a NaN or negative pacing rate, is a typed
:class:`~repro.errors.SimulationError` naming the flow, never a bare
``ValueError`` or ``OverflowError`` from deep inside an engine, and
never a run that carries on logging it (or, for a bad pacing rate,
silently sends unpaced).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.cc.base import CongestionController, Decision
from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import run_scenario, run_scenario_packet
from repro.errors import SimulationError
from repro.netsim import FluidNetwork
from repro.netsim.socketpath import run_scenario_socket

RUNNERS = {"fluid": run_scenario, "packet": run_scenario_packet,
           "socket": run_scenario_socket}


class FixedWindow(CongestionController):
    def __init__(self, cwnd_pkts: float):
        super().__init__()
        self.cwnd_pkts = cwnd_pkts

    def on_interval(self, stats):
        return Decision(cwnd_pkts=self.cwnd_pkts)


@pytest.mark.parametrize("engine", sorted(RUNNERS))
@pytest.mark.parametrize("cwnd", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_window_is_a_simulation_error_naming_the_flow(engine,
                                                                  cwnd):
    scenario = ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0),
        flows=(FlowConfig(cc="cubic"),) * 3, duration_s=0.5)
    with pytest.raises(SimulationError,
                       match=rf"^non-finite cwnd for flow 1: {cwnd}$"):
        RUNNERS[engine](scenario, [None, FixedWindow(cwnd), None])


class FixedPacing(CongestionController):
    def __init__(self, pacing_pps: float):
        super().__init__()
        self.pacing_pps = pacing_pps

    def on_interval(self, stats):
        return Decision(cwnd_pkts=20.0, pacing_pps=self.pacing_pps)


@pytest.mark.parametrize("engine", sorted(RUNNERS))
@pytest.mark.parametrize("pacing", [math.nan, -1.0], ids=["nan", "negative"])
def test_invalid_pacing_is_a_simulation_error_naming_the_flow(engine,
                                                              pacing):
    scenario = ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0),
        flows=(FlowConfig(cc="cubic"),) * 3, duration_s=0.5)
    with pytest.raises(SimulationError,
                       match=rf"^invalid pacing rate for flow 1: {pacing}$"):
        RUNNERS[engine](scenario, [None, FixedPacing(pacing), None])


@pytest.mark.parametrize("pacing", [math.nan, -1.0], ids=["nan", "negative"])
def test_rejected_pacing_applies_nothing(pacing):
    """All-or-nothing on the fluid engine: neither the batch nor the
    scalar call changes any flow, so no other flow's stats are touched."""
    def build():
        net = FluidNetwork(LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0))
        return net, net.add_flows([{"base_rtt_s": 0.03}] * 2)

    (net, fids), (twin, _) = build(), build()
    with pytest.raises(SimulationError, match="flow 1"):
        net.set_cwnds(net.slots(fids), [80.0, 80.0], [5000.0, pacing])
    with pytest.raises(SimulationError, match="flow 0"):
        net.set_cwnd(fids[0], 80.0, pacing_pps=pacing)
    for engine in (net, twin):
        engine.advance_block(0.002, 50)
    got, want = (e.collect_stats(e.slots(fids), e.now) for e in (net, twin))
    assert np.isfinite(got.throughput_pps).all()
    assert got.rows() == want.rows()
