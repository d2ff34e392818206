"""Controller rules every engine enforces the same way.

The fluid, packet and socket engines take their windows from the same
driver pass, so a controller's failure must look the same on each: a
non-finite window is a typed :class:`~repro.errors.SimulationError`
naming the flow, never a bare ``ValueError`` or ``OverflowError`` from
deep inside an engine, and never a run that carries on logging it.
"""

from __future__ import annotations

import math

import pytest

from repro.cc.base import CongestionController, Decision
from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import run_scenario, run_scenario_packet
from repro.errors import SimulationError
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
