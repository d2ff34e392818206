"""Astraea on the packet-level engine.

The policy is trained on the fluid substrate; these tests run the same
controller through the shipped packet path — the scenario driver over
the discrete-event packet simulator — to confirm the learned behaviour
carries over to real FIFO queueing, the fidelity claim of DESIGN.md §2
exercised end-to-end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import run_engine_scenario

LINK = LinkConfig(bandwidth_mbps=12.0, rtt_ms=30.0, buffer_bdp=2.0)


def run_packet(cc_names, duration_s):
    return run_engine_scenario(ScenarioConfig(
        link=LINK, flows=tuple(FlowConfig(cc=cc) for cc in cc_names),
        duration_s=duration_s, seed=0), "packet")


class TestAstraeaOnPackets:
    @pytest.mark.parametrize("cc_name", ["astraea", "astraea-ref"])
    def test_single_flow_fills_link_without_bloat(self, cc_name):
        result = run_packet([cc_name], 20.0)
        log = result.flows[0]
        rate = result.flow_mean_throughput(0)
        assert rate > 0.8 * LINK.bandwidth_mbps
        assert np.mean(log.rtt_s) < 0.060      # bounded queueing
        assert np.mean(log.loss_rate) < 0.02

    def test_two_flows_share_fairly(self):
        result = run_packet(["astraea-ref"] * 2, 30.0)
        rates = [result.flow_mean_throughput(i) for i in range(2)]
        ratio = max(rates) / max(min(rates), 1e-9)
        assert ratio < 1.6
        assert sum(rates) > 0.8 * LINK.bandwidth_mbps
