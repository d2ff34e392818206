"""Full learner checkpointing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainingConfig, replace
from repro.core.checkpoint import load_training_checkpoint, \
    save_training_checkpoint
from repro.core.learner import Learner
from repro.core.train import TrainingHistory
from repro.errors import ModelError

SMALL = replace(TrainingConfig(), hidden_layers=(8, 8), batch_size=8,
                warmup_transitions=10, update_steps=2)


def trained_learner(seed=0):
    learner = Learner(SMALL, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        learner.add_transition(rng.normal(size=learner.global_dim),
                               rng.normal(size=learner.local_dim),
                               0.2, 0.01,
                               rng.normal(size=learner.global_dim),
                               rng.normal(size=learner.local_dim))
    learner.update_burst()
    return learner


class TestCheckpoint:
    def test_roundtrip_restores_all_networks(self, tmp_path):
        a = trained_learner(seed=1)
        path = a.save_checkpoint(tmp_path / "ck.npz")
        b = Learner(SMALL, seed=99)
        b.load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(3, a.local_dim))
        g = np.random.default_rng(1).normal(size=(3, a.global_dim))
        act = np.zeros((3, 1))
        assert np.allclose(a.td3.actor.forward(x), b.td3.actor.forward(x))
        assert np.allclose(a.q_values(g, x, act), b.q_values(g, x, act)) \
            if hasattr(a, "q_values") else True
        assert np.allclose(a.td3.q_values(g, x, act),
                           b.td3.q_values(g, x, act))
        assert np.allclose(a.td3.critic2.forward(
            np.concatenate([g, x, act], axis=1)),
            b.td3.critic2.forward(np.concatenate([g, x, act], axis=1)))
        assert b.total_updates == a.total_updates

    def test_targets_restored_independently(self, tmp_path):
        a = trained_learner(seed=2)
        path = a.save_checkpoint(tmp_path / "ck.npz")
        b = Learner(SMALL, seed=3)
        b.load_checkpoint(path)
        x = np.random.default_rng(0).normal(size=(2, a.local_dim))
        assert np.allclose(a.td3.actor_target.forward(x),
                           b.td3.actor_target.forward(x))

    def test_dimension_mismatch_rejected(self, tmp_path):
        a = trained_learner()
        path = a.save_checkpoint(tmp_path / "ck.npz")
        other = Learner(replace(SMALL, history_length=2))
        with pytest.raises(ModelError):
            other.load_checkpoint(path)

    def test_topology_mismatch_rejected(self, tmp_path):
        a = trained_learner()
        path = a.save_checkpoint(tmp_path / "ck.npz")
        other = Learner(SMALL, use_global=False)
        with pytest.raises(ModelError):
            other.load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            Learner(SMALL).load_checkpoint(tmp_path / "nope.npz")

    def test_training_checkpoint_persists_pending_rows(self, tmp_path):
        """Rows still pending in the learner land in the checkpoint's
        replay, and a resumed learner holds them all (and none of its
        own rows from before the restore)."""
        a = trained_learner(seed=4)
        rng = np.random.default_rng(4)
        for _ in range(7):
            a.add_transition(rng.normal(size=a.global_dim),
                             rng.normal(size=a.local_dim), 0.3, 0.02,
                             rng.normal(size=a.global_dim),
                             rng.normal(size=a.local_dim))
        assert len(a.replay) == 40
        save_training_checkpoint(
            tmp_path, learner=a, rng=np.random.default_rng(0), episode=1,
            noise=0.1, history_dict=TrainingHistory().__dict__.copy(),
            best_state=a.td3.actor.get_state())
        b = trained_learner(seed=5)
        b.add_transition(rng.normal(size=b.global_dim),
                         rng.normal(size=b.local_dim), 0.1, 0.0,
                         rng.normal(size=b.global_dim),
                         rng.normal(size=b.local_dim))
        load_training_checkpoint(tmp_path, b, np.random.default_rng(0))
        b.flush_transitions()           # nothing from before the restore
        assert len(b.replay) == len(a.replay) == 47
        assert b.replay._cursor == a.replay._cursor
        assert b.total_transitions == a.total_transitions == 47
        for name in ("_local", "_global", "_action", "_reward",
                     "_next_local", "_next_global", "_done"):
            assert getattr(b.replay, name).tobytes() == \
                getattr(a.replay, name).tobytes(), name
