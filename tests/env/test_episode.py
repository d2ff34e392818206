"""Training-episode collection: observer, transitions, rewards."""

from __future__ import annotations

from types import SimpleNamespace

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
from repro.env.episode import Observer, build_training_controllers, \
    run_training_episode
from repro.netsim import staggered_flows
from repro.netsim.stats import MtpColumns

SMALL = replace(TrainingConfig(), hidden_layers=(16, 16), batch_size=16,
                warmup_transitions=50, update_steps=2)
LINK = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)


def episode_scenario(n=2, duration=6.0):
    return ScenarioConfig(
        link=LINK,
        flows=staggered_flows(n, cc="astraea", interval_s=1.0,
                              duration_s=duration - 1.0),
        duration_s=duration,
    )


def agent(learner, noise_std=0.1, initial_cwnd=10.0):
    """A training agent, built as an episode builds flow 0's."""
    ctl, = build_training_controllers(learner, episode_scenario(n=1),
                                      noise_std, [initial_cwnd])
    return ctl


class TestTrainController:
    def test_respects_alpha_bound(self):
        learner = Learner(SMALL)
        ctl = agent(learner, noise_std=1.0, initial_cwnd=50.0)
        from tests.cc.test_base import make_stats

        prev = ctl.cwnd
        for i in range(10):
            d = ctl.on_interval(make_stats(time_s=(i + 1) * 0.03))
            assert d.cwnd_pkts <= prev * 1.025 + 1e-9
            prev = d.cwnd_pkts

    def test_randomised_initial_cwnd(self):
        learner = Learner(SMALL)
        ctl = agent(learner, initial_cwnd=77.0)
        assert ctl.initial_cwnd == 77.0
        assert ctl.cwnd == 77.0

    def test_records_state_action(self):
        learner = Learner(SMALL)
        ctl = agent(learner)
        from tests.cc.test_base import make_stats

        ctl.on_interval(make_stats())
        assert ctl.policy.has_state[ctl.slot]
        assert -1.0 <= ctl.policy.actions[ctl.slot] <= 1.0


class TestEpisode:
    def test_collects_transitions(self):
        learner = Learner(SMALL)
        stats = run_training_episode(learner, episode_scenario(),
                                     noise_std=0.1,
                                     initial_cwnds=[30.0, 30.0])
        assert stats.transitions > 100
        assert len(learner.replay) == stats.transitions

    def test_rewards_bounded(self):
        learner = Learner(SMALL)
        stats = run_training_episode(learner, episode_scenario(),
                                     noise_std=0.1,
                                     initial_cwnds=[30.0, 30.0])
        assert -0.1 <= stats.mean_reward <= 0.1

    def test_updates_fire_on_cadence(self):
        cfg = replace(SMALL, update_interval_s=2.0)
        learner = Learner(cfg)
        stats = run_training_episode(learner, episode_scenario(duration=7.0),
                                     noise_std=0.1,
                                     initial_cwnds=[30.0, 30.0])
        assert stats.update_bursts >= 2
        assert learner.total_updates >= 2 * cfg.update_steps

    def test_no_updates_when_disabled(self):
        learner = Learner(SMALL)
        run_training_episode(learner, episode_scenario(), noise_std=0.1,
                             initial_cwnds=[30.0, 30.0], do_updates=False)
        assert learner.total_updates == 0

    def test_local_reward_path(self):
        learner = Learner(SMALL)
        seen = []

        def local_reward(stats, link):
            seen.append(stats)
            return 0.05

        ep = run_training_episode(learner, episode_scenario(n=1),
                                  noise_std=0.1, initial_cwnds=[30.0],
                                  local_reward=local_reward)
        assert seen
        assert ep.mean_reward == pytest.approx(0.05)

    def test_fair_outcome_scores_higher_than_starved(self):
        """Global reward must rank a fair equilibrium above a starved one —
        the property that makes multi-agent training optimise fairness."""
        learner = Learner(SMALL)

        # Fair: two equal astraea-ref flows.
        fair = ScenarioConfig(
            link=LINK,
            flows=staggered_flows(2, cc="astraea", interval_s=0.0),
            duration_s=8.0,
        )
        fair_stats = run_training_episode(
            learner, fair, noise_std=0.0, initial_cwnds=[125.0, 125.0],
            do_updates=False)

        # Starved: one giant window, one pinned tiny window.
        starved_stats = run_training_episode(
            learner, fair, noise_std=0.0, initial_cwnds=[450.0, 2.0],
            do_updates=False)
        assert fair_stats.mean_reward > starved_stats.mean_reward


class TestDeterminism:
    def test_back_to_back_same_seed_runs_are_bit_identical(self):
        """Regression: the exploration RNG must derive from (seed, episode,
        flow index), not from a process-global controller counter — the
        second same-seed run in one process used to diverge from the first,
        which also broke bit-exact checkpoint resume."""

        def run_once():
            learner = Learner(SMALL)
            run_training_episode(learner, episode_scenario(), noise_std=0.1,
                                 initial_cwnds=[30.0, 30.0], episode=0)
            return learner

        a = run_once()
        b = run_once()
        n = len(a.replay)
        assert n == len(b.replay) > 0
        np.testing.assert_array_equal(a.replay.columns()["local"],
                                      b.replay.columns()["local"])
        np.testing.assert_array_equal(a.replay.columns()["action"],
                                      b.replay.columns()["action"])
        for x, y in zip(a.td3.actor.parameters(), b.td3.actor.parameters()):
            np.testing.assert_array_equal(x, y)

    def test_distinct_episode_and_flow_ids_decorrelate_exploration(self):
        learner = Learner(SMALL)
        draws = {c.policy.streams[c.slot].random() for episode in (0, 1)
                 for c in build_training_controllers(
                     learner, episode_scenario(), 0.1, [30.0, 30.0],
                     episode=episode)}
        assert len(draws) == 4


def step(obs, now):
    """Fire ``obs`` as the driver's per-step hook for a pass in which
    flow 0 decided at ``now``."""
    from tests.cc.test_base import make_stats

    obs(now, [SimpleNamespace(index=0)],
        MtpColumns.of(now, [make_stats(time_s=now)]))


class TestObserverGuards:
    def observer(self, learner):
        ctl = agent(learner, initial_cwnd=30.0)
        flows = (FlowConfig(cc="astraea", duration_s=100.0),)
        return ctl, Observer(learner, LINK, flows, [ctl])

    def test_skips_controller_that_has_no_state_yet(self):
        """A controller observed before its first on_interval has no
        state in its policy's slot table; the Observer must skip it
        rather than poison a transition tuple."""
        from tests.cc.test_base import make_stats

        learner = Learner(SMALL)
        ctl, obs = self.observer(learner)

        step(obs, 1.0)  # no state yet
        assert obs.stats.transitions == 0
        assert len(learner.replay) == 0

        # Once the controller produces states, transitions resume.
        ctl.on_interval(make_stats(time_s=1.03))
        step(obs, 1.03)
        ctl.on_interval(make_stats(time_s=1.06))
        step(obs, 1.06)
        assert obs.stats.transitions == 1
        learner.flush_transitions()
        assert len(learner.replay) == 1

    def test_reset_mid_episode_drops_stale_pending_pair(self):
        from tests.cc.test_base import make_stats

        learner = Learner(SMALL)
        ctl, obs = self.observer(learner)

        ctl.on_interval(make_stats(time_s=1.0))
        step(obs, 1.0)       # seeds pending
        ctl.reset()          # the slot has no state
        step(obs, 1.03)      # must drop pending
        assert obs.stats.transitions == 0

        ctl.on_interval(make_stats(time_s=1.06))
        step(obs, 1.06)
        assert obs.stats.transitions == 0  # pending re-seeded, not paired

    def test_a_pass_with_no_due_flow_still_runs_the_update_clock(self):
        learner = Learner(SMALL)
        _ctl, obs = self.observer(learner)
        obs(SMALL.update_interval_s, [], None)
        assert obs.stats.update_bursts == 1
        assert obs.stats.transitions == 0


class TestStackedForward:
    def test_batched_leg_stacks_the_pass_and_serial_leg_does_not(
            self, monkeypatch):
        rows = {True: [], False: []}
        leg = [True]
        act_batch = Learner.act_batch

        def counting(self, states, noise_std=0.0):
            rows[leg[0]].append(len(states))
            return act_batch(self, states, noise_std)

        monkeypatch.setattr(Learner, "act_batch", counting)
        scenario = ScenarioConfig(
            link=LINK, flows=(FlowConfig(cc="astraea"),) * 3,
            duration_s=2.0)
        for batched in (True, False):
            leg[0] = batched
            learner = Learner(replace(SMALL, warmup_transitions=0))
            run_training_episode(learner, scenario, noise_std=0.1,
                                 initial_cwnds=[30.0] * 3,
                                 batched=batched)
        assert max(rows[True]) == 3     # one forward for all three agents
        assert set(rows[False]) == {1}  # one forward per agent
