"""Training checkpoints: crash-kill-resume bit-compatibility and integrity."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.env.episode as episode_mod
from repro.config import TrainingConfig, replace
from repro.core.checkpoint import (
    MANIFEST_NAME,
    load_training_checkpoint,
    save_training_checkpoint,
)
from repro.core.learner import Learner
from repro.core.train import TrainingHistory, train_astraea
from repro.errors import CheckpointError

# Small but real: episodes get warm, so updates, evals and best-policy
# tracking all happen on both sides of the comparison.
FAST = replace(TrainingConfig(), episodes=4, episode_duration_s=4.0,
               hidden_layers=(8, 8), batch_size=16, warmup_transitions=60,
               update_steps=1, checkpoint_every=2, seed=7)


def run_full(tmp_path=None):
    return train_astraea(FAST, eval_every=100,
                         checkpoint_dir=tmp_path)


def newest_checkpoint(directory) -> dict:
    """The newest entry of a checkpoint directory's manifest."""
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    return manifest["checkpoints"][0]


class TestKillResume:
    def test_kill_after_checkpoint_then_resume_is_bit_identical(
            self, tmp_path, monkeypatch):
        bundle_full, history_full = train_astraea(FAST, eval_every=100)

        # Interrupted run: die mid-episode-3 (after the episode-2
        # checkpoint has landed on disk).
        ckpt = tmp_path / "ckpt"
        real = episode_mod.run_training_episode
        calls = {"n": 0}

        def dying(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt("simulated kill -9")
            return real(*args, **kwargs)

        monkeypatch.setattr(episode_mod, "run_training_episode", dying)
        with pytest.raises(KeyboardInterrupt):
            train_astraea(FAST, eval_every=100, checkpoint_dir=ckpt)
        monkeypatch.setattr(episode_mod, "run_training_episode", real)
        assert (ckpt / MANIFEST_NAME).exists()

        bundle_res, history_res = train_astraea(FAST, eval_every=100,
                                                resume_from=ckpt)
        # The resumed history continues exactly from the checkpointed
        # episode: identical rewards, evals and best-policy selection.
        np.testing.assert_array_equal(history_res.episode_rewards,
                                      history_full.episode_rewards)
        assert history_res.eval_episodes == history_full.eval_episodes
        assert history_res.eval_score == history_full.eval_score
        assert history_res.best_episode == history_full.best_episode
        for a, b in zip(bundle_res.actor.get_state(),
                        bundle_full.actor.get_state()):
            np.testing.assert_array_equal(a, b)

    def test_pool_kill_after_checkpoint_then_resume_is_bit_identical(
            self, tmp_path, monkeypatch):
        """``parallel_envs=2``: die in the second stride, after the first
        stride's checkpoint.  Warm-up falls inside the first stride and
        bursts fire every simulated second, so a transition the
        checkpoint missed would change what the resumed bursts sample."""
        from repro.env.pool import EnvironmentPool

        cfg = replace(FAST, parallel_envs=2, update_interval_s=1.0)
        bundle_full, history_full = train_astraea(
            cfg, eval_every=100, checkpoint_dir=tmp_path / "full")

        ckpt = tmp_path / "ckpt"
        real = EnvironmentPool.run
        calls = {"n": 0}

        def dying(pool):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt("simulated kill -9")
            return real(pool)

        monkeypatch.setattr(EnvironmentPool, "run", dying)
        with pytest.raises(KeyboardInterrupt):
            train_astraea(cfg, eval_every=100, checkpoint_dir=ckpt)
        monkeypatch.setattr(EnvironmentPool, "run", real)
        first = newest_checkpoint(ckpt)
        assert first["episode"] == 2
        assert first["replay"]["size"] >= cfg.warmup_transitions

        bundle_res, history_res = train_astraea(cfg, eval_every=100,
                                                resume_from=ckpt)
        np.testing.assert_array_equal(history_res.episode_rewards,
                                      history_full.episode_rewards)
        for a, b in zip(bundle_res.actor.get_state(),
                        bundle_full.actor.get_state()):
            np.testing.assert_array_equal(a, b)
        final = newest_checkpoint(ckpt)
        full = newest_checkpoint(tmp_path / "full")
        assert final["episode"] == full["episode"] == cfg.episodes
        assert final["replay"] == full["replay"]
        assert final["replay"]["size"] > first["replay"]["size"]
        assert final["td3_updates"] == full["td3_updates"] \
            > first["td3_updates"]

    def test_resume_prefix_matches_checkpointed_history(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        train_astraea(replace(FAST, episodes=2), eval_every=100,
                      checkpoint_dir=ckpt)
        manifest = json.loads((ckpt / MANIFEST_NAME).read_text())
        assert manifest["episode"] == 2
        entry = manifest["checkpoints"][0]
        assert len(entry["history"]["episode_rewards"]) == 2

        # Resuming under a *larger* episode budget must keep the prefix.
        with pytest.raises(CheckpointError):
            # ... but only under the identical config.
            train_astraea(replace(FAST, episodes=6), eval_every=100,
                          resume_from=ckpt)

    def test_only_latest_payload_retained(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        train_astraea(FAST, eval_every=100, checkpoint_dir=ckpt)
        payloads = list(ckpt.glob("state-ep*.npz"))
        assert len(payloads) == 1
        assert payloads[0].name == "state-ep000004.npz"


class TestRotation:
    def _save(self, directory, learner, episode, keep_last):
        save_training_checkpoint(
            directory, learner=learner, rng=np.random.default_rng(episode),
            episode=episode, noise=0.1 / episode,
            history_dict=TrainingHistory(
                episode_rewards=[0.0] * episode).__dict__.copy(),
            best_state=learner.td3.actor.get_state(), keep_last=keep_last)

    def test_keep_last_retains_n_and_prunes_older(self, tmp_path):
        learner = Learner(FAST)
        for episode in (2, 4, 6):
            self._save(tmp_path, learner, episode, keep_last=2)
        payloads = sorted(p.name for p in tmp_path.glob("state-ep*.npz"))
        assert payloads == ["state-ep000004.npz", "state-ep000006.npz"]
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert [e["payload"] for e in manifest["checkpoints"]] == \
            ["state-ep000006.npz", "state-ep000004.npz"]
        assert manifest["payload"] == "state-ep000006.npz"

    def test_keep_last_must_be_positive(self, tmp_path):
        with pytest.raises(CheckpointError, match="keep_last"):
            self._save(tmp_path, Learner(FAST), 2, keep_last=0)

    def test_resume_falls_back_when_newest_payload_damaged(self, tmp_path):
        learner = Learner(FAST)
        self._save(tmp_path, learner, 2, keep_last=2)
        self._save(tmp_path, learner, 4, keep_last=2)
        newest = tmp_path / "state-ep000004.npz"
        newest.write_bytes(newest.read_bytes()[:64])

        resume = load_training_checkpoint(tmp_path, Learner(FAST),
                                          np.random.default_rng(0))
        assert resume.episode == 2
        assert len(resume.history_dict["episode_rewards"]) == 2

    def test_resume_falls_back_when_newest_payload_missing(self, tmp_path):
        # A kill between the payload prune and a later write can leave the
        # newest payload gone; the next-newest entry must still load.
        learner = Learner(FAST)
        self._save(tmp_path, learner, 2, keep_last=2)
        self._save(tmp_path, learner, 4, keep_last=2)
        (tmp_path / "state-ep000004.npz").unlink()

        resume = load_training_checkpoint(tmp_path, Learner(FAST),
                                          np.random.default_rng(0))
        assert resume.episode == 2

    def test_all_payloads_gone_reports_every_failure(self, tmp_path):
        learner = Learner(FAST)
        self._save(tmp_path, learner, 2, keep_last=2)
        self._save(tmp_path, learner, 4, keep_last=2)
        (tmp_path / "state-ep000004.npz").unlink()
        broken = tmp_path / "state-ep000002.npz"
        broken.write_bytes(broken.read_bytes()[:64])
        with pytest.raises(CheckpointError) as info:
            load_training_checkpoint(tmp_path, Learner(FAST),
                                     np.random.default_rng(0))
        assert "missing" in str(info.value)
        assert "SHA-256" in str(info.value)

    def test_format1_manifest_still_resumes(self, tmp_path):
        learner = Learner(FAST)
        self._save(tmp_path, learner, 2, keep_last=1)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        entry = manifest["checkpoints"][0]
        legacy = {k: v for k, v in manifest.items() if k != "checkpoints"}
        legacy.update(entry)
        legacy["format"] = 1
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(legacy))

        resume = load_training_checkpoint(tmp_path, Learner(FAST),
                                          np.random.default_rng(0))
        assert resume.episode == 2

    def test_train_checkpoint_keep_rotates(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        train_astraea(FAST, eval_every=100, checkpoint_dir=ckpt,
                      checkpoint_keep=2)
        payloads = sorted(p.name for p in ckpt.glob("state-ep*.npz"))
        # checkpoint_every=2 over 4 episodes -> ep2 and ep4 both retained.
        assert payloads == ["state-ep000002.npz", "state-ep000004.npz"]


class TestIntegrity:
    def _saved(self, tmp_path):
        learner = Learner(FAST)
        rng = np.random.default_rng(FAST.seed)
        save_training_checkpoint(
            tmp_path, learner=learner, rng=rng, episode=2, noise=0.1,
            history_dict=TrainingHistory().__dict__.copy(),
            best_state=learner.td3.actor.get_state())
        return learner, rng

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_training_checkpoint(tmp_path, Learner(FAST),
                                     np.random.default_rng(0))

    def test_corrupt_manifest(self, tmp_path):
        self._saved(tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            load_training_checkpoint(tmp_path, Learner(FAST),
                                     np.random.default_rng(0))

    def test_damaged_payload_fails_sha_check(self, tmp_path):
        self._saved(tmp_path)
        payload = next(tmp_path.glob("state-ep*.npz"))
        payload.write_bytes(payload.read_bytes()[:100])
        with pytest.raises(CheckpointError, match="SHA-256"):
            load_training_checkpoint(tmp_path, Learner(FAST),
                                     np.random.default_rng(0))

    def test_missing_payload(self, tmp_path):
        self._saved(tmp_path)
        next(tmp_path.glob("state-ep*.npz")).unlink()
        with pytest.raises(CheckpointError, match="missing"):
            load_training_checkpoint(tmp_path, Learner(FAST),
                                     np.random.default_rng(0))

    def test_config_mismatch_names_fields(self, tmp_path):
        self._saved(tmp_path)
        other = Learner(replace(FAST, batch_size=32))
        with pytest.raises(CheckpointError, match="batch_size"):
            load_training_checkpoint(tmp_path, other,
                                     np.random.default_rng(0))

    def test_round_trip_restores_everything(self, tmp_path):
        learner = Learner(FAST)
        rng = np.random.default_rng(FAST.seed)
        # Distinctive state: some transitions, one update burst, RNG draws.
        g = np.random.default_rng(1)
        for _ in range(70):
            learner.add_transition(g.normal(size=learner.global_dim),
                                   g.normal(size=learner.local_dim),
                                   0.1, 0.05,
                                   g.normal(size=learner.global_dim),
                                   g.normal(size=learner.local_dim))
        learner.update_burst()
        rng.random(5)
        save_training_checkpoint(
            tmp_path, learner=learner, rng=rng, episode=3, noise=0.07,
            history_dict=TrainingHistory(episode_rewards=[0.1, 0.2]
                                         ).__dict__.copy(),
            best_state=learner.td3.actor.get_state(),
            loop_state={"consecutive_failures": 1})

        learner2 = Learner(FAST)
        rng2 = np.random.default_rng(0)
        resume = load_training_checkpoint(tmp_path, learner2, rng2)
        assert resume.episode == 3
        assert resume.noise == pytest.approx(0.07)
        assert resume.history_dict["episode_rewards"] == [0.1, 0.2]
        assert resume.loop_state == {"consecutive_failures": 1}
        # Networks, replay and every RNG stream continue identically.
        for name in learner.td3.NETS:
            for a, b in zip(getattr(learner.td3, name).parameters(),
                            getattr(learner2.td3, name).parameters()):
                np.testing.assert_array_equal(a, b)
        assert len(learner2.replay) == len(learner.replay)
        a = learner.replay.sample(8)
        b = learner2.replay.sample(8)
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
        assert rng.random() == rng2.random()
        assert learner.td3._rng.random() == learner2.td3._rng.random()
        assert learner.td3.actor_opt.lr == learner2.td3.actor_opt.lr
        assert learner.td3.actor_opt._t == learner2.td3.actor_opt._t
