"""Shared fixtures: short canonical scenario runs cached per session."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import run_scenario
from repro.netsim import staggered_flows

_TESTS = Path(__file__).parent

#: Suites that must not lean on a silent divide-by-zero, overflow or
#: invalid value: the engine's block kernel masks its no-arrival
#: divisions, and the observer's reductions and the TD3 workspaces
#: compute what the per-tick and allocating paths compute.  Any
#: RuntimeWarning fails a test in them (a test's own ``filterwarnings``
#: mark still wins).
STRICT_NUMERICS = tuple(_TESTS / part for part in (
    "netsim", "env", "fleet", "rl", "core/test_learner_golden.py"))


def pytest_collection_modifyitems(config, items):
    strict = pytest.mark.filterwarnings("error::RuntimeWarning")
    for item in items:
        if any(item.path.is_relative_to(p) for p in STRICT_NUMERICS):
            # Prepended, so that the test's own marks apply after it.
            item.add_marker(strict, append=False)


@pytest.fixture(scope="session")
def short_link() -> LinkConfig:
    return LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)


@pytest.fixture(scope="session")
def reference_three_flow_result(short_link):
    """Three astraea-ref flows, 10 s stagger — reused by many tests."""
    scenario = ScenarioConfig(
        link=short_link,
        flows=staggered_flows(3, cc="astraea-ref", interval_s=10.0,
                              duration_s=30.0),
        duration_s=50.0,
    )
    return run_scenario(scenario)


@pytest.fixture(scope="session")
def single_cubic_result(short_link):
    scenario = ScenarioConfig(
        link=short_link,
        flows=(FlowConfig(cc="cubic", start_s=0.0),),
        duration_s=15.0,
    )
    return run_scenario(scenario)
