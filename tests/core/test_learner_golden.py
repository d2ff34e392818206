"""Pinned learner digests: the training path, bit for bit.

Each case runs two training episodes (0 and 1) on one small learner whose
warm-up falls inside the first episode and whose update bursts fire every
second, once on the per-object serial leg and once on the batched leg,
and hashes the learner after each episode: the six TD3 networks, the
replay's seven fields over its whole capacity (the rows not yet written
as zeros), the replay cursor and size, and the
``EpisodeStats`` (floats as ``float.hex``).  The sink case acts through
a warm :class:`~repro.env.pool.FrozenPolicy` without updates, as a pool
worker does, and hashes the sunk transition tuples too.

Both legs must agree with each other everywhere.  The digests are pinned
per numeric environment (NumPy build and BLAS kernel family, as the perf
ledger keys its fleet pins): a chaotic rollout's last ulp belongs to the
environment, so elsewhere the pin is reported as not applicable.  Run
this file as a script to print the digests of the current tree.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.config import (
    FlowConfig,
    LinkConfig,
    ScenarioConfig,
    TrainingConfig,
    replace,
)
from repro.core.learner import Learner
from repro.env.episode import run_training_episode
from repro.env.pool import FrozenPolicy
from repro.netsim.faults import Blackout, DelaySpike, FaultSchedule

NETS = ("actor", "critic1", "critic2", "actor_target",
        "critic1_target", "critic2_target")

CONFIG = replace(TrainingConfig(), hidden_layers=(16, 16), batch_size=16,
                 warmup_transitions=120, update_steps=2,
                 update_interval_s=1.0, seed=9)
LINK = LinkConfig(bandwidth_mbps=60.0, rtt_ms=30.0, buffer_bdp=1.5)

_SKYLAKEX = "numpy-2.4.6/openblas-SkylakeX"

#: case -> numeric environment -> digest.
PINNED_LEARNER_DIGESTS: dict[str, dict[str, str]] = {
    "agents_cubic": {_SKYLAKEX: "d4915c0fbf03fe2d"},
    "staggered_faults": {_SKYLAKEX: "daee36e8a0e0cdd9"},
    "four_agents": {_SKYLAKEX: "4025307396e7ccaa"},
    "local_reward": {_SKYLAKEX: "031cac055a74cb21"},
    "sink": {_SKYLAKEX: "4530c76b90f6ceda"},
}


def _scenario(name: str) -> ScenarioConfig:
    if name == "staggered_faults":
        return ScenarioConfig(
            link=LINK,
            flows=(FlowConfig(cc="astraea", start_s=0.0),
                   FlowConfig(cc="astraea", start_s=0.37, extra_rtt_ms=12.0),
                   FlowConfig(cc="vegas", start_s=0.8, duration_s=2.5),
                   FlowConfig(cc="astraea", start_s=1.21, duration_s=2.0)),
            duration_s=4.0, seed=4,
            faults=FaultSchedule((Blackout(1.5, 0.3),
                                  DelaySpike(2.6, 0.5, extra_ms=40.0))))
    if name == "four_agents":
        return ScenarioConfig(
            link=LINK,
            flows=tuple(FlowConfig(cc="astraea", start_s=0.1 * i)
                        for i in range(4)),
            duration_s=4.0, seed=6)
    # agents_cubic, local_reward, sink: two agents and a late CUBIC.
    return ScenarioConfig(
        link=LINK,
        flows=(FlowConfig(cc="astraea"), FlowConfig(cc="astraea"),
               FlowConfig(cc="cubic", start_s=1.5)),
        duration_s=4.0, seed=2)


def _local_reward(stats, link) -> float:
    """An Aurora-style per-flow reward (throughput minus latency)."""
    thr = stats.throughput_pps * 1500 * 8 / 1e6 / link.bandwidth_mbps
    return float(np.clip(0.1 * thr - 0.05 * stats.avg_rtt_s / link.rtt_s
                         - stats.loss_rate, -0.1, 0.1))


def _hex(value) -> str:
    return float(value).hex()


def learner_digest(case: str, batched: bool) -> str:
    """The digest of ``case`` on one leg (serial or batched)."""
    scenario = _scenario(case)
    learner = Learner(CONFIG)
    policy = learner
    sunk: list[tuple] = []
    kwargs = {}
    if case == "local_reward":
        kwargs["local_reward"] = _local_reward
    if case == "sink":
        policy = FrozenPolicy(CONFIG, learner.td3.actor.get_state(),
                              warm=True)
        kwargs.update(do_updates=False, transition_sink=lambda *t:
                      sunk.append(t))
    h = hashlib.sha256()
    for episode in (0, 1):
        stats = run_training_episode(
            policy, scenario, noise_std=0.15,
            initial_cwnds=[12.0 + 3.0 * i
                           for i in range(len(scenario.flows))],
            episode=episode, batched=batched, **kwargs)
        for name in NETS:
            for p in getattr(learner.td3, name).get_state():
                h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
        replay = learner.replay
        unwritten = replay.capacity - len(replay)
        for column in replay.columns().values():
            h.update(np.ascontiguousarray(column, dtype="<f8").tobytes())
            h.update(bytes(8 * unwritten * int(np.prod(column.shape[1:]))))
        h.update(repr((replay.cursor, len(replay),
                       stats.transitions, stats.reward_count,
                       stats.update_bursts, _hex(stats.reward_sum),
                       sorted((k, _hex(v))
                              for k, v in stats.last_losses.items())
                       )).encode())
        for now, *arrays in sunk:
            h.update(_hex(now).encode())
            for a in arrays:
                h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
        sunk.clear()
    return h.hexdigest()[:16]


CASES = ("agents_cubic", "staggered_faults", "four_agents", "local_reward",
         "sink")


def numeric_environment() -> str:
    """The perf ledger's key (``benchmarks/perf/envelope.py``)."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" \
        / "envelope.py"
    spec = importlib.util.spec_from_file_location("_perf_envelope", path)
    envelope = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envelope)
    return envelope.numeric_environment()


@pytest.mark.parametrize("case", CASES)
def test_learner_digest(case):
    serial = learner_digest(case, batched=False)
    batched = learner_digest(case, batched=True)
    assert serial == batched
    pins = PINNED_LEARNER_DIGESTS.get(case, {})
    env = numeric_environment()
    if env not in pins:
        pytest.skip(f"digest {serial}: no pin for {env} (not applicable)")
    assert serial == pins[env]


if __name__ == "__main__":
    print(numeric_environment())
    for name in CASES:
        print(name, learner_digest(name, False), learner_digest(name, True))
