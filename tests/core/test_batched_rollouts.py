"""End-to-end equivalence of the batched training fast path.

The batched rollout (one stacked act per driver pass, deferred replay
flushes) and the worker pool must be *bitwise* transparent: the
same episode run serially, batched, or across pool workers leaves the
learner in the identical state.  These tests pin that contract at the
episode and the train-loop level; the unit-level pieces live in
tests/rl/test_replay.py and tests/core/test_learner.py.
"""

from __future__ import annotations

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
from repro.core.train import train_astraea
from repro.env.episode import run_training_episode

SMALL = replace(TrainingConfig(), hidden_layers=(16, 16), batch_size=16,
                warmup_transitions=40, update_steps=2,
                update_interval_s=2.0, seed=3)


def warm_learner():
    """A learner past warmup, so the episode runs policy actions and
    real update bursts from the start."""
    learner = Learner(SMALL)
    rng = np.random.default_rng(11)
    n = 48
    learner.replay.add_batch(
        rng.normal(size=(n, learner.local_dim)),
        rng.normal(size=(n, learner.global_dim)),
        rng.normal(size=(n, 1)),
        rng.normal(size=n),
        rng.normal(size=(n, learner.local_dim)),
        rng.normal(size=(n, learner.global_dim)),
        np.zeros(n))
    return learner


def scenario():
    # Two agents plus CUBIC cross traffic: exercises the shared reward,
    # the mixed begin/finish pass and the cross-traffic slots.
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=96.0, rtt_ms=30.0, buffer_bdp=1.5),
        flows=(FlowConfig(cc="astraea", start_s=0.0, duration_s=5.0),
               FlowConfig(cc="astraea", start_s=0.5, duration_s=4.5),
               FlowConfig(cc="cubic", start_s=1.0, duration_s=4.0)),
        duration_s=5.0,
        seed=2,
    )


class TestEpisodeEquivalence:
    def test_batched_matches_serial_bitwise(self):
        def leg(batched):
            learner = warm_learner()
            stats = run_training_episode(
                learner, scenario(), noise_std=0.15,
                initial_cwnds=[16.0, 20.0, 24.0], episode=3,
                batched=batched)
            return learner, stats

        serial_learner, serial_stats = leg(False)
        fast_learner, fast_stats = leg(True)
        assert serial_stats.transitions == fast_stats.transitions
        assert serial_stats.update_bursts == fast_stats.update_bursts
        assert serial_stats.update_bursts >= 1   # bursts actually fired
        assert serial_stats.reward_sum == fast_stats.reward_sum
        assert len(serial_learner.replay) == len(fast_learner.replay)
        assert serial_learner.replay.cursor == fast_learner.replay.cursor
        fast = fast_learner.replay.columns()
        for name, column in serial_learner.replay.columns().items():
            np.testing.assert_array_equal(column, fast[name])
        serial_td3, fast_td3 = serial_learner.td3, fast_learner.td3
        for net in serial_td3.NETS:
            for p_s, p_b in zip(getattr(serial_td3, net).get_state(),
                                getattr(fast_td3, net).get_state()):
                np.testing.assert_array_equal(p_s, p_b)
        for opt in ("actor_opt", "critic_opt"):
            o_s = getattr(serial_td3, opt).get_state()
            o_b = getattr(fast_td3, opt).get_state()
            assert (o_s["t"], o_s["lr"]) == (o_b["t"], o_b["lr"])
            for moment in ("m", "v"):
                for m_s, m_b in zip(o_s[moment], o_b[moment]):
                    np.testing.assert_array_equal(m_s, m_b)


# Tiny but real train loop: 2 strides of 2 parallel envs.  Warmup is
# parked high so the periodic held-out evaluation (minutes of sim time)
# never triggers; the rollout, pool-merge and reward paths all run.
TRAIN = replace(TrainingConfig(), episodes=4, parallel_envs=2,
                episode_duration_s=3.0, flow_count=(2, 2),
                hidden_layers=(8, 8), warmup_transitions=10 ** 6, seed=5)


class TestTrainWorkerEquivalence:
    def test_episode_rewards_match_serial(self):
        _, serial = train_astraea(TRAIN, workers=1)
        _, pooled = train_astraea(TRAIN, workers=2)
        assert len(serial.episode_rewards) == len(pooled.episode_rewards)
        assert serial.episode_rewards == pytest.approx(
            pooled.episode_rewards, abs=1e-12)
        assert not serial.failed_episodes and not pooled.failed_episodes
