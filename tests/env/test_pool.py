"""Parallel environment pool (Appendix A): frozen-policy strides."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    LinkConfig,
    ScenarioConfig,
    TrainingConfig,
    replace,
)
from repro.core.learner import Learner
from repro.env.pool import EnvironmentPool
from repro.netsim import staggered_flows

SMALL = replace(TrainingConfig(), hidden_layers=(16, 16), batch_size=16,
                warmup_transitions=50, update_steps=2,
                update_interval_s=2.0)


def scenario(bw=100.0, duration=6.0):
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=bw, rtt_ms=30.0, buffer_bdp=1.0),
        flows=staggered_flows(2, cc="astraea", interval_s=1.0,
                              duration_s=duration - 1.0),
        duration_s=duration,
    )


class TestEnvironmentPool:
    def test_collects_from_all_instances(self):
        learner = Learner(SMALL)
        pool = EnvironmentPool(
            learner, [scenario(100.0), scenario(50.0)], noise_std=0.1,
            initial_cwnds=[[30.0, 30.0], [20.0, 20.0]])
        stats = pool.run()
        # A single instance of the same shape yields roughly half the
        # transitions the pool collects.
        learner2 = Learner(SMALL)
        pool2 = EnvironmentPool(learner2, [scenario(100.0)], noise_std=0.1,
                                initial_cwnds=[[30.0, 30.0]])
        single = pool2.run().transitions
        assert stats.transitions > 1.5 * single

    def test_updates_fire_on_pooled_clock(self):
        learner = Learner(SMALL)
        pool = EnvironmentPool(learner, [scenario(), scenario(60.0)],
                               noise_std=0.1,
                               initial_cwnds=[[30.0, 30.0], [30.0, 30.0]])
        stats = pool.run()
        # 6 s episodes with a 2 s interval: at least two bursts.
        assert stats.update_bursts >= 2
        assert learner.total_updates >= 2 * SMALL.update_steps

    def test_instances_of_different_lengths(self):
        learner = Learner(SMALL)
        pool = EnvironmentPool(learner,
                               [scenario(duration=4.0),
                                scenario(duration=8.0)],
                               noise_std=0.1,
                               initial_cwnds=[[30.0, 30.0], [30.0, 30.0]])
        stats = pool.run()
        assert stats.transitions > 0

    def test_rejects_mismatched_cwnds(self):
        learner = Learner(SMALL)
        with pytest.raises(ValueError):
            EnvironmentPool(learner, [scenario()], noise_std=0.1,
                            initial_cwnds=[])

    def test_cross_traffic_instances_supported(self):
        from repro.config import FlowConfig

        learner = Learner(SMALL)
        sc = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0,
                            buffer_bdp=1.0),
            flows=(FlowConfig(cc="astraea", duration_s=5.0),
                   FlowConfig(cc="cubic", duration_s=5.0)),
            duration_s=6.0,
        )
        pool = EnvironmentPool(learner, [sc], noise_std=0.1,
                               initial_cwnds=[[30.0, 10.0]])
        stats = pool.run()
        assert stats.transitions > 0


class TestPoolRobustness:
    def test_stats_aggregate_across_instances(self):
        """The pooled counters are the exact sum of per-instance episodes.

        The policy is frozen per stride, so running each scenario alone
        against a fresh (identically cold) learner reproduces exactly
        the episodes the combined stride collects.
        """
        a, b = scenario(100.0), scenario(50.0)
        single_a = EnvironmentPool(Learner(SMALL), [a], noise_std=0.1,
                                   initial_cwnds=[[30.0, 30.0]],
                                   episodes=[0]).run()
        single_b = EnvironmentPool(Learner(SMALL), [b], noise_std=0.1,
                                   initial_cwnds=[[30.0, 30.0]],
                                   episodes=[1]).run()
        combined = EnvironmentPool(
            Learner(SMALL), [a, b], noise_std=0.1,
            initial_cwnds=[[30.0, 30.0], [30.0, 30.0]],
            episodes=[0, 1]).run()
        assert combined.transitions == \
            single_a.transitions + single_b.transitions
        assert combined.reward_count == \
            single_a.reward_count + single_b.reward_count
        assert combined.reward_sum == pytest.approx(
            single_a.reward_sum + single_b.reward_sum)
        assert combined.mean_reward == pytest.approx(
            combined.reward_sum / combined.reward_count)

    def test_rejects_mismatched_episode_ids(self):
        learner = Learner(SMALL)
        with pytest.raises(ValueError):
            EnvironmentPool(learner, [scenario(), scenario(50.0)],
                            noise_std=0.1,
                            initial_cwnds=[[30.0, 30.0], [30.0, 30.0]],
                            episodes=[0])

    def test_controller_exception_quarantines_stride(self, monkeypatch):
        """The pool must not swallow failures — train_astraea's quarantine
        layer is responsible for containment, and it can only react if the
        error surfaces.  Nothing from a failed stride may reach replay."""
        from repro.core.astraea import AstraeaController
        from repro.errors import SimulationError

        learner = Learner(SMALL)
        pool = EnvironmentPool(learner, [scenario()], noise_std=0.1,
                               initial_cwnds=[[30.0, 30.0]])

        def boom(*_args):
            raise SimulationError("controller blew up mid-episode")

        # The per-object decision and the column pass the pool runs.
        monkeypatch.setattr(AstraeaController, "on_interval", boom)
        monkeypatch.setattr(AstraeaController, "decide_columns",
                            classmethod(boom))
        with pytest.raises(SimulationError):
            pool.run()
        assert len(learner.replay) == 0

    def test_episode_ids_seed_exploration_per_instance(self):
        from repro.env.episode import build_training_controllers

        learner = Learner(SMALL)
        ctls = [
            c
            for episode in (4, 5)
            for c in build_training_controllers(
                learner, scenario(), noise_std=0.1,
                initial_cwnds=[30.0, 30.0], episode=episode)
        ]
        draws = [c.policy.streams[c.slot].random() for c in ctls]
        assert len(set(draws)) == len(draws)


class TestWorkerEquivalence:
    def test_workers_match_serial_bitwise(self):
        """A stride on 2 pool workers is bit-identical to the in-process
        run: same counters, same replay contents and cursor, same actor
        parameters afterwards."""
        def run(workers):
            learner = Learner(SMALL)
            stats = EnvironmentPool(
                learner, [scenario(duration=4.0), scenario(50.0, 4.0)],
                noise_std=0.1,
                initial_cwnds=[[30.0, 30.0], [20.0, 20.0]],
                episodes=[2, 3], workers=workers).run()
            return learner, stats

        serial_learner, serial_stats = run(1)
        pooled_learner, pooled_stats = run(2)
        assert serial_stats.transitions == pooled_stats.transitions
        assert serial_stats.reward_sum == pooled_stats.reward_sum
        assert serial_stats.update_bursts == pooled_stats.update_bursts
        assert len(serial_learner.replay) == len(pooled_learner.replay)
        assert serial_learner.replay.cursor == pooled_learner.replay.cursor
        pooled = pooled_learner.replay.columns()
        for name, column in serial_learner.replay.columns().items():
            assert np.array_equal(column, pooled[name])
        for p_s, p_w in zip(serial_learner.td3.actor.get_state(),
                            pooled_learner.td3.actor.get_state()):
            assert np.array_equal(p_s, p_w)
