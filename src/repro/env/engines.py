"""Engine dispatch: one ``{engine name: runner}`` table.

Every sweep that takes an ``--engines`` axis (robustness, scenarios)
and every cross-engine test runs a :class:`~repro.config.ScenarioConfig`
through :func:`run_engine_scenario`; the engine names, the default
sweep subset and the unknown-engine error all derive from the table.
"""

from __future__ import annotations

from ..config import ScenarioConfig
from ..errors import ConfigError
from .multiflow import run_scenario, run_scenario_packet


def _run_scenario_socket(scenario: ScenarioConfig):
    # Lazy: the loopback-UDP datapath (asyncio, real sockets) is only
    # imported by runs that ask for it.
    from ..netsim.socketpath import run_scenario_socket

    return run_scenario_socket(scenario)


ENGINE_RUNNERS = {
    "fluid": run_scenario,
    "packet": run_scenario_packet,
    "socket": _run_scenario_socket,
}

#: Every engine :func:`run_engine_scenario` can dispatch to.
ALL_ENGINES = tuple(ENGINE_RUNNERS)

#: Engines of the default sweeps.  The socket engine is dispatchable but
#: excluded here: it runs in (scaled) wall-clock time, so a full sweep
#: over it would take tens of minutes — select it explicitly with
#: ``--engines socket``.
ENGINES = tuple(name for name in ALL_ENGINES if name != "socket")


def run_engine_scenario(scenario: ScenarioConfig, engine: str):
    """Dispatch one scenario to the requested simulation engine."""
    runner = ENGINE_RUNNERS.get(engine)
    if runner is None:
        raise ConfigError(
            f"unknown engine {engine!r}; known: {list(ALL_ENGINES)}")
    return runner(scenario)
