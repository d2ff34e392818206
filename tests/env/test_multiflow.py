"""Scenario runner: lifecycle, logging, result analytics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import run_scenario, run_topology
from repro.errors import ConfigError, SimulationError
from repro.netsim import staggered_flows
from repro.netsim.topology import parking_lot


LINK = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)


class TestLifecycle:
    def test_flow_logs_respect_start_and_end(self):
        scenario = ScenarioConfig(
            link=LINK,
            flows=(FlowConfig(cc="cubic", start_s=0.0, duration_s=8.0),
                   FlowConfig(cc="cubic", start_s=4.0, duration_s=8.0)),
            duration_s=15.0,
        )
        result = run_scenario(scenario)
        t0 = np.asarray(result.flows[0].times)
        t1 = np.asarray(result.flows[1].times)
        assert t0.min() < 0.2
        assert t0.max() <= 8.0 + 0.1
        assert t1.min() >= 4.0
        assert t1.max() <= 12.0 + 0.1

    def test_simulation_stops_when_no_flows_remain(self):
        scenario = ScenarioConfig(
            link=LINK,
            flows=(FlowConfig(cc="cubic", start_s=0.0, duration_s=2.0),),
            duration_s=100.0,
        )
        result = run_scenario(scenario)  # returns promptly
        assert np.asarray(result.flows[0].times).max() <= 2.1

    def test_step_hook_sees_every_decision(self):
        calls = []
        scenario = ScenarioConfig(
            link=LINK,
            flows=(FlowConfig(cc="cubic", start_s=0.0),),
            duration_s=3.0,
        )
        run_scenario(scenario, on_step=lambda now, flows, columns:
                     calls.extend((now, rf.index, s) for rf, s in
                                  zip(flows, columns.rows() if columns
                                      else [])))
        assert len(calls) == len(run_scenario(scenario).flows[0].times)
        assert all(i == 0 and s.time_s == now for now, i, s in calls)

    def test_injected_controllers_used(self):
        from repro.cc import Decision
        from repro.cc.base import CongestionController

        class Fixed(CongestionController):
            def on_interval(self, stats):
                return Decision(cwnd_pkts=50.0)

        scenario = ScenarioConfig(
            link=LINK,
            flows=(FlowConfig(cc="cubic", start_s=0.0),),
            duration_s=3.0,
        )
        result = run_scenario(scenario, controllers=[Fixed()])
        assert np.allclose(result.flows[0].cwnd_pkts, 50.0)

    @pytest.mark.parametrize("runner", ["fluid", "packet", "topology"])
    def test_one_controller_object_for_two_flows_is_refused(self, runner):
        """Two flows on one object would share one CUBIC state; the
        driver refuses, naming both flows."""
        from repro.cc import Cubic
        from repro.env import run_scenario_packet

        shared = Cubic()
        controllers = [None, shared, Cubic(), shared]
        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0),
            flows=(FlowConfig(cc="cubic"),) * 4, duration_s=1.0)
        run = {"fluid": lambda: run_scenario(scenario, controllers),
               "packet": lambda: run_scenario_packet(scenario, controllers),
               "topology": lambda: run_topology(
                   parking_lot(2, 2, cc="cubic", duration_s=1.0),
                   controllers)}[runner]
        with pytest.raises(ConfigError, match="flows 1 and 3 share one "
                                              "controller object"):
            run()


class TestResultAnalytics:
    def test_throughput_matrix_shape(self, reference_three_flow_result):
        t, m, a = reference_three_flow_result.throughput_matrix(0.5)
        assert m.shape == (3, len(t))
        assert a.shape == m.shape

    def test_active_mask_matches_lifetimes(self, reference_three_flow_result):
        t, m, a = reference_three_flow_result.throughput_matrix(0.5)
        # Flow 1 starts at 10 s: inactive before.
        assert not a[1, t < 10.0].any()
        assert a[1, (t > 11.0) & (t < 39.0)].all()

    def test_jain_series_only_multiflow_slots(self,
                                              reference_three_flow_result):
        t, j = reference_three_flow_result.jain_series(0.5)
        assert t.min() >= 10.0          # before the 2nd flow: no Jain
        assert np.all((j > 0.3) & (j <= 1.0))

    def test_mean_jain_high_for_reference(self, reference_three_flow_result):
        assert reference_three_flow_result.mean_jain() > 0.95

    def test_utilization_reasonable(self, reference_three_flow_result):
        assert 0.9 < reference_three_flow_result.utilization() <= 1.05

    def test_flow_mean_throughput_single(self, single_cubic_result):
        thr = single_cubic_result.flow_mean_throughput(0, skip_s=3.0)
        assert thr == pytest.approx(100.0, rel=0.1)

    def test_grid_validation(self, single_cubic_result):
        with pytest.raises(SimulationError):
            single_cubic_result.throughput_matrix(0.0)


class TestTopologyRun:
    def test_parking_lot_max_min(self):
        topo = parking_lot(n_fs1=2, n_fs2=2, cc="astraea-ref",
                           duration_s=20.0)
        result = run_topology(topo)
        fs1 = [result.flow_mean_throughput(i, skip_s=8.0) for i in (0, 1)]
        fs2 = [result.flow_mean_throughput(i, skip_s=8.0) for i in (2, 3)]
        # FS-2 capped by link2 at ~10 each; FS-1 shares the rest of link1.
        assert np.mean(fs2) == pytest.approx(10.0, rel=0.25)
        assert np.mean(fs1) == pytest.approx(40.0, rel=0.25)
