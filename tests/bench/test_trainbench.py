"""``repro bench train``'s equivalence verdict is exact."""

from __future__ import annotations

import math

import numpy as np

from repro.bench.trainbench import compare_legs
from repro.config import TrainingConfig, replace
from repro.core.learner import Learner
from repro.env.episode import EpisodeStats

SMALL = replace(TrainingConfig(), hidden_layers=(8, 8), batch_size=4,
                replay_capacity=64, seed=1)


def learner_with_replay() -> Learner:
    learner = Learner(SMALL)
    rng = np.random.default_rng(3)
    n = 10
    learner.replay.add_batch(
        rng.normal(size=(n, learner.local_dim)),
        rng.normal(size=(n, learner.global_dim)),
        rng.normal(size=(n, 1)), rng.normal(size=n),
        rng.normal(size=(n, learner.local_dim)),
        rng.normal(size=(n, learner.global_dim)), np.zeros(n))
    return learner


def test_identical_legs_pass():
    verdict = compare_legs(learner_with_replay(), EpisodeStats(),
                           learner_with_replay(), EpisodeStats())
    assert verdict == {"passed": True, "mismatched": [], "max_delta": 0.0}


def test_a_nan_poisoned_replay_row_fails_the_gate():
    # |a - nan| is nan, and max(x, nan) is x: a fold of deltas passed this.
    ref, fast = learner_with_replay(), learner_with_replay()
    fast.replay._local[3, 0] = np.nan
    verdict = compare_legs(ref, EpisodeStats(), fast, EpisodeStats())
    assert not verdict["passed"]
    assert verdict["mismatched"] == ["replay.local"]
    assert verdict["max_delta"] == math.inf


def test_the_same_nan_on_both_legs_is_equal():
    ref, fast = learner_with_replay(), learner_with_replay()
    for learner in (ref, fast):
        learner.replay._reward[2] = np.nan
    assert compare_legs(ref, EpisodeStats(), fast, EpisodeStats())["passed"]


def test_every_network_optimiser_and_counter_is_compared():
    ref = learner_with_replay()
    cases = {
        "critic2_target.0": lambda l: l.td3.critic2_target.layers[0].W
        .__setitem__((0, 0), 1.5),
        "critic_opt.v.3": lambda l: l.td3.critic_opt._v[3]
        .__setitem__(0, 1e-9),
        "actor_opt.t_lr": lambda l: setattr(l.td3.actor_opt, "_t", 7),
        "replay.cursor_size": lambda l: setattr(l.replay, "_cursor", 0),
    }
    for name, poison in cases.items():
        fast = learner_with_replay()
        poison(fast)
        verdict = compare_legs(ref, EpisodeStats(), fast, EpisodeStats())
        assert verdict["mismatched"] == [name]
        assert 0.0 < verdict["max_delta"] < math.inf
    verdict = compare_legs(ref, EpisodeStats(reward_sum=0.5),
                           learner_with_replay(),
                           EpisodeStats(reward_sum=0.5 + 2 ** -53))
    assert verdict["mismatched"] == ["stats.reward_sum"]
    verdict = compare_legs(ref, EpisodeStats(last_losses={"actor_loss": 1.0}),
                           learner_with_replay(), EpisodeStats())
    assert verdict["mismatched"] == ["stats.actor_loss"]
    assert verdict["max_delta"] == math.inf
