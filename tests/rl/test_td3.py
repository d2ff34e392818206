"""TD3 learner: learning behaviour and the TD3-specific mechanisms."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.config import TrainingConfig, replace
from repro.errors import ModelError
from repro.rl import ReplayBuffer, TD3Learner

SMALL = replace(TrainingConfig(), hidden_layers=(32, 32), batch_size=64)


def bandit_buffer(optimum: float, n: int = 2000, seed: int = 0):
    """State-independent bandit: r = -(a - optimum)^2."""
    rng = np.random.default_rng(seed)
    buf = ReplayBuffer(n, 3, 2, 1, seed=seed)
    for _ in range(n):
        s, g = rng.normal(size=3), rng.normal(size=2)
        a = rng.uniform(-1, 1, size=1)
        buf.add(s, g, a, -(a[0] - optimum) ** 2, s, g, True)
    return buf


class TestLearning:
    def test_learns_bandit_optimum(self):
        learner = TD3Learner(3, 2, cfg=SMALL, seed=0)
        buf = bandit_buffer(0.5)
        for _ in range(1500):
            learner.update(buf.sample(64))
        actions = learner.act(np.random.default_rng(3).normal(size=(20, 3)))
        assert np.mean(actions) == pytest.approx(0.5, abs=0.25)

    def test_critic_loss_decreases(self):
        learner = TD3Learner(3, 2, cfg=SMALL, seed=0)
        buf = bandit_buffer(0.0)
        first = learner.update(buf.sample(64))["critic_loss"]
        for _ in range(300):
            last = learner.update(buf.sample(64))["critic_loss"]
        assert last < first

    def test_local_only_critic_ablation(self):
        learner = TD3Learner(3, 2, cfg=SMALL, use_global=False, seed=0)
        buf = bandit_buffer(-0.3)
        for _ in range(600):
            learner.update(buf.sample(64))
        actions = learner.act(np.random.default_rng(3).normal(size=(20, 3)))
        assert np.mean(actions) == pytest.approx(-0.3, abs=0.2)


class TestMechanisms:
    def test_actions_clipped(self):
        learner = TD3Learner(3, 2, cfg=SMALL, seed=0)
        acts = learner.act(np.random.default_rng(0).normal(size=(50, 3)),
                           noise_std=5.0)
        assert np.all(np.abs(acts) <= 0.999)

    def test_policy_delay(self):
        cfg = replace(SMALL, policy_delay=2)
        learner = TD3Learner(3, 2, cfg=cfg, seed=0)
        buf = bandit_buffer(0.0, n=200)
        l1 = learner.update(buf.sample(32))
        l2 = learner.update(buf.sample(32))
        assert np.isnan(l1["actor_loss"])       # delayed
        assert not np.isnan(l2["actor_loss"])   # fires every 2nd step

    def test_targets_move_slowly(self):
        learner = TD3Learner(3, 2, cfg=SMALL, seed=0)
        buf = bandit_buffer(0.9, n=500)
        before = learner.actor_target.get_state()
        for _ in range(10):
            learner.update(buf.sample(64))
        after = learner.actor_target.get_state()
        online = learner.actor.get_state()
        drift_target = sum(np.abs(a - b).sum() for a, b in zip(after, before))
        drift_online = sum(np.abs(a - b).sum()
                           for a, b in zip(online, before))
        assert drift_target < drift_online

    def test_q_values_shape(self):
        learner = TD3Learner(3, 2, cfg=SMALL, seed=0)
        q = learner.q_values(np.zeros((4, 2)), np.zeros((4, 3)),
                             np.zeros((4, 1)))
        assert q.shape == (4, 1)

    def test_rejects_bad_dims(self):
        with pytest.raises(ModelError):
            TD3Learner(0, 2)


class TestActorWarmup:
    def test_actor_frozen_during_warmup(self):
        cfg = replace(SMALL, actor_warmup_updates=10, policy_delay=1)
        learner = TD3Learner(3, 2, cfg=cfg, seed=0)
        buf = bandit_buffer(0.5, n=300)
        before = learner.actor.get_state()
        for _ in range(10):
            out = learner.update(buf.sample(32))
            assert np.isnan(out["actor_loss"])
        after = learner.actor.get_state()
        assert all(np.allclose(a, b) for a, b in zip(before, after))
        # Past the warmup the actor starts moving.
        out = learner.update(buf.sample(32))
        assert not np.isnan(out["actor_loss"])


class TestPickle:
    """A copied learner trains its own nets, exactly as the original."""

    @pytest.fixture
    def trained(self):
        cfg = replace(SMALL, policy_delay=1)
        learner = TD3Learner(3, 2, cfg=cfg, seed=5)
        buf = bandit_buffer(0.2, n=300)
        for _ in range(3):
            learner.update(buf.sample(32))
        learner.scale_learning_rates(0.5)
        return learner, buf.sample(32)

    @staticmethod
    def arrays(learner) -> list[bytes]:
        out = [p.tobytes() for name in TD3Learner.NETS
               for p in getattr(learner, name).parameters()]
        for opt in (learner.actor_opt, learner.critic_opt):
            state = opt.get_state()
            out += [a.tobytes() for a in state["m"] + state["v"]]
            out += [repr((state["t"], state["lr"])).encode()]
        return out

    @pytest.mark.parametrize("how", ["pickle", "deepcopy"])
    def test_copy_binds_and_steps_bit_equal(self, trained, how):
        learner, batch = trained
        twin = pickle.loads(pickle.dumps(learner)) if how == "pickle" \
            else copy.deepcopy(learner)
        nets = (twin.actor, twin.critic1, twin.critic2)
        for opt, bound in ((twin.actor_opt, nets[:1]),
                           (twin.critic_opt, nets[1:])):
            params = [p for net in bound for p in net.parameters()]
            grads = [g for net in bound for g in net.gradients()]
            assert len(opt.params) == len(params)
            assert all(a is b for a, b in zip(opt.params, params))
            assert all(a is b for a, b in zip(opt.grads, grads))
        assert self.arrays(twin) == self.arrays(learner)
        before = self.arrays(twin)
        assert learner.update(batch) == twin.update(batch)
        assert self.arrays(twin) == self.arrays(learner)
        assert self.arrays(twin) != before
