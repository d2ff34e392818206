"""Steppable scenario driver semantics."""

from __future__ import annotations

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import build_driver, run_scenario


def tiny(duration=4.0):
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=50.0, rtt_ms=20.0, buffer_bdp=1.0),
        flows=(FlowConfig(cc="cubic", duration_s=duration - 1.0),),
        duration_s=duration,
    )


class TestScenarioDriver:
    def test_done_after_duration(self):
        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=50.0, rtt_ms=20.0),
            flows=(FlowConfig(cc="cubic"),),
            duration_s=1.0,
        )
        driver = build_driver(scenario)
        steps = 0
        while driver.step_block():
            steps += 1
        assert driver.done
        assert not driver.step_block()    # idempotent once finished
        assert steps <= int(1.0 / 0.002) + 2

    def test_partial_result_readable_midway(self):
        driver = build_driver(tiny())
        while driver.now < 1.2:
            driver.step_block()
        partial = driver.result()
        assert 0 < len(partial.flows[0].times)
        assert max(partial.flows[0].times) <= 1.3

    def test_matches_run_scenario(self):
        scenario = tiny()
        direct = run_scenario(scenario)
        driver = build_driver(scenario)
        while driver.step_block():
            pass
        stepped = driver.result()
        assert stepped.flows[0].times == direct.flows[0].times
        assert stepped.flows[0].throughput_mbps == \
            direct.flows[0].throughput_mbps

    def test_early_finish_when_flows_end(self):
        driver = build_driver(tiny(duration=100.0))
        # The only flow stops at 99 s... use a short-lived flow instead.
        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=50.0, rtt_ms=20.0),
            flows=(FlowConfig(cc="cubic", duration_s=1.0),),
            duration_s=100.0,
        )
        driver = build_driver(scenario)
        steps = 0
        while driver.step_block():
            steps += 1
        # Finishes shortly after the flow ends, not after 100 s.
        assert driver.now < 2.0
