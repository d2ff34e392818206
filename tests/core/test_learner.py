"""Learner: cadence, warmup gating, snapshots."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig, replace
from repro.core.learner import Learner
from repro.rl.replay import ReplayBuffer
from repro.errors import (
    ModelError,
    TrainingDivergedError,
    TrainingInstabilityWarning,
)

SMALL = replace(TrainingConfig(), hidden_layers=(16, 16), batch_size=16,
                warmup_transitions=20, update_steps=3,
                update_interval_s=5.0)


def fill(learner, n):
    rng = np.random.default_rng(0)
    for _ in range(n):
        learner.add_transition(rng.normal(size=learner.global_dim),
                               rng.normal(size=learner.local_dim),
                               0.1, 0.05,
                               rng.normal(size=learner.global_dim),
                               rng.normal(size=learner.local_dim))


class TestLearner:
    def test_dims_follow_config(self):
        learner = Learner(SMALL)
        assert learner.local_dim == 8 * SMALL.history_length
        assert learner.global_dim == 12

    def test_warmup_gates_updates(self):
        learner = Learner(SMALL)
        fill(learner, 5)
        assert not learner.warm
        losses = learner.update_burst()
        assert np.isnan(losses["critic_loss"])
        assert learner.total_updates == 0
        fill(learner, 30)
        assert learner.warm
        learner.update_burst()
        assert learner.total_updates == SMALL.update_steps

    def test_maybe_update_cadence(self):
        learner = Learner(SMALL)
        fill(learner, 40)
        assert learner.maybe_update(1.0) is None       # interval not reached
        assert learner.maybe_update(5.1) is not None   # fires
        assert learner.maybe_update(6.0) is None       # resets
        assert learner.maybe_update(10.2) is not None

    def test_reset_update_clock(self):
        learner = Learner(SMALL)
        fill(learner, 40)
        learner.maybe_update(5.1)
        learner.reset_update_clock()
        assert learner.maybe_update(5.1) is not None

    def test_act_in_range(self):
        learner = Learner(SMALL)
        a = learner.act(np.zeros(learner.local_dim), noise_std=1.0)
        assert -1.0 < a < 1.0

    def test_snapshot_and_load(self):
        learner = Learner(SMALL)
        bundle = learner.snapshot_policy()
        other = Learner(replace(SMALL, seed=123))
        other.load_policy(bundle)
        x = np.random.default_rng(0).normal(size=learner.local_dim)
        assert learner.act(x) == pytest.approx(other.act(x))

    def test_load_rejects_mismatched_bundle(self):
        learner = Learner(SMALL)
        small_cfg = replace(SMALL, history_length=2)
        other = Learner(small_cfg)
        with pytest.raises(ModelError):
            learner.load_policy(other.snapshot_policy())

    def test_snapshot_is_immutable_copy(self):
        learner = Learner(SMALL)
        bundle = learner.snapshot_policy()
        before = bundle.actor.get_state()[0].copy()
        fill(learner, 40)
        learner.update_burst()
        assert np.allclose(bundle.actor.get_state()[0], before)


REPLAY_ARRAYS = ("_local", "_global", "_action", "_reward",
                 "_next_local", "_next_global", "_done")


class TestBatchedAct:
    def test_act_batch_matches_sequential_act_bitwise(self):
        batched, serial = Learner(SMALL), Learner(SMALL)
        states = np.random.default_rng(1).normal(
            size=(5, batched.local_dim))
        stack = batched.act_batch(states)
        rows = np.array([serial.act(s) for s in states])
        np.testing.assert_array_equal(stack, rows)

    def test_act_batch_noise_stream_is_batch_shape_invariant(self):
        # One (k, 1) draw must consume the noise stream exactly as k
        # sequential (1, 1) draws — the batched rollout contract.
        batched, serial = Learner(SMALL), Learner(SMALL)
        states = np.random.default_rng(2).normal(
            size=(6, batched.local_dim))
        stack = batched.act_batch(states, noise_std=0.3)
        rows = np.array([serial.act(s, noise_std=0.3) for s in states])
        np.testing.assert_array_equal(stack, rows)

    def test_act_batch_raises_after_exhausting_rollback_budget(self):
        learner = Learner(SMALL)
        for p in learner.td3.actor.parameters():
            p[:] = np.nan
        # Snapshot the poisoned state too, so every rollback restores a
        # still-broken actor and the bounded retry must give up.
        learner.guard._snapshot = learner.td3.state_dict()
        with pytest.warns(TrainingInstabilityWarning), \
                pytest.raises(TrainingDivergedError):
            learner.act_batch(np.zeros((3, learner.local_dim)))
        assert learner.guard.rollbacks == SMALL.rollback_budget


def transition_rows(learner, n, seed):
    """``n`` transitions as row arrays: g, s, a, r, g', s', done."""
    rng = np.random.default_rng(seed)
    g, g2 = (rng.normal(size=(n, learner.global_dim)) for _ in range(2))
    s, s2 = (rng.normal(size=(n, learner.local_dim)) for _ in range(2))
    return g, s, rng.normal(size=n), rng.normal(size=n), g2, s2, \
        (rng.random(n) < 0.1).astype(float)


class TestDeferredTransitions:
    """The learner buffers transition blocks until
    :meth:`~Learner.flush_transitions` writes them into replay."""

    def test_rows_stay_pending_until_flushed(self):
        learner = Learner(SMALL)
        fill(learner, 19)
        assert len(learner.replay) == 0
        assert not learner.warm
        assert learner.total_transitions == 19
        fill(learner, 1)
        assert learner.warm                       # pending rows count
        assert len(learner.replay) == 0
        learner.flush_transitions()
        assert len(learner.replay) == learner.total_transitions == 20
        assert learner.warm
        learner.flush_transitions()               # nothing pending
        assert len(learner.replay) == 20

    def test_deferred_flush_matches_direct_adds_bitwise(self):
        """Flushes of mixed blocks, one wrapping past capacity and one
        longer than it, against row-by-row ``ReplayBuffer.add``."""
        learner = Learner(replace(SMALL, replay_capacity=25))
        reference = ReplayBuffer(25, learner.local_dim, learner.global_dim,
                                 action_dim=1)
        for flush, sizes in enumerate([(1, 9, 5), (20,), (4, 30)]):
            for block, n in enumerate(sizes):
                rows = transition_rows(learner, n, seed=[flush, block])
                g, s, a, r, g2, s2, done = rows
                if n == 1:
                    learner.add_transition(g[0], s[0], a[0], r[0], g2[0],
                                           s2[0], bool(done[0]))
                else:
                    learner.add_transitions(*rows)
                for i in range(n):
                    reference.add(s[i], g[i], a[i:i + 1], r[i], s2[i],
                                  g2[i], bool(done[i]))
            learner.flush_transitions()
            assert len(learner.replay) == len(reference)
            assert learner.replay._cursor == reference._cursor
            for name in REPLAY_ARRAYS:
                assert getattr(learner.replay, name).tobytes() == \
                    getattr(reference, name).tobytes(), name

    def test_update_burst_flushes_pending_first(self):
        learner = Learner(SMALL)
        fill(learner, 30)
        assert learner.warm and len(learner.replay) == 0
        learner.update_burst()
        assert len(learner.replay) == 30
        assert learner.total_updates == SMALL.update_steps
