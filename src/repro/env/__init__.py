"""Environment runners: scenario execution and RL episode collection."""

from .engines import ALL_ENGINES, ENGINES, run_engine_scenario
from .episode import (
    EpisodeStats,
    Observer,
    TrainFlowController,
    run_training_episode,
)
from .multiflow import (
    FlowLog,
    ScenarioDriver,
    ScenarioResult,
    build_driver,
    run_scenario,
    run_scenario_packet,
    run_topology,
)
from .pool import EnvironmentPool

__all__ = [
    "FlowLog",
    "ScenarioResult",
    "ScenarioDriver",
    "build_driver",
    "run_scenario",
    "run_scenario_packet",
    "run_engine_scenario",
    "ENGINES",
    "ALL_ENGINES",
    "run_topology",
    "TrainFlowController",
    "Observer",
    "EpisodeStats",
    "run_training_episode",
    "EnvironmentPool",
]
