"""The Learner (§3.1/§3.4): policy store, replay, and update bursts.

The Learner owns the shared actor/critic networks (all flow agents execute
the same policy), the experience replay memory, and the update schedule of
Table 4: every ``model_update_interval`` seconds of environment time it
performs ``model_update_steps`` gradient steps on sampled batches.

Checkpoints (:meth:`Learner.save_checkpoint`) persist the *complete*
learner — actor, both critics and all three target networks — which is
what makes fine-tuning stable: resuming from an actor-only bundle pits a
good policy against freshly initialised critics, and the first actor
updates then chase random value estimates (a failure mode we hit; see
docs/architecture.md §2).
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import numpy as np

from ..config import TrainingConfig
from ..errors import ModelError, TrainingDivergedError, TrainingInstabilityWarning
from ..rl.replay import ReplayBuffer
from ..rl.td3 import TD3Learner
from .policy import PolicyBundle
from .state import GLOBAL_FEATURES, LOCAL_FEATURES


class DivergenceGuard:
    """Rolls the TD3 networks back when an update burst goes non-finite.

    State machine (docs/architecture.md §Runtime resilience): after every
    healthy burst the guard snapshots all six networks plus both Adam
    states; when a burst produces a non-finite critic loss, non-finite
    parameters, or a non-finite probe action, it restores the snapshot and
    decays both learning rates by ``lr_decay``.  ``budget`` *consecutive*
    rollbacks without an intervening healthy burst raise
    :class:`TrainingDivergedError`; any healthy burst resets the count.

    The actor loss is deliberately not checked: TD3's delayed policy
    updates report ``actor_loss = nan`` on non-actor steps as a sentinel,
    so actor divergence is caught through the parameter and probe checks
    instead.
    """

    def __init__(self, td3: TD3Learner, budget: int = 3,
                 lr_decay: float = 0.5):
        if budget < 1:
            raise ModelError("rollback budget must be >= 1")
        if not 0.0 < lr_decay <= 1.0:
            raise ModelError("rollback LR decay must be in (0, 1]")
        self.td3 = td3
        self.budget = budget
        self.lr_decay = lr_decay
        self.rollbacks = 0
        self.consecutive = 0
        self._probe = np.zeros((1, td3.local_dim))
        self._snapshot = td3.state_dict()

    def refresh(self) -> None:
        """Re-snapshot after an external restore (checkpoint load)."""
        self.consecutive = 0
        self._snapshot = self.td3.state_dict()

    def healthy(self, losses: dict[str, float] | None = None) -> bool:
        """Whether the learner state (and last losses) are all finite."""
        if losses:
            critic_loss = losses.get("critic_loss")
            if critic_loss is not None and not np.isfinite(critic_loss):
                return False
        if not self.td3.params_finite():
            return False
        return bool(np.isfinite(self.td3.act(self._probe)).all())

    def after_burst(self, losses: dict[str, float]) -> bool:
        """Check one finished update burst; returns True if rolled back."""
        if self.healthy(losses):
            self.consecutive = 0
            self._snapshot = self.td3.state_dict()
            return False
        self.rollback("non-finite losses/parameters after update burst")
        return True

    def rollback(self, reason: str) -> None:
        """Restore the last good snapshot and decay the learning rates."""
        self.consecutive += 1
        self.rollbacks += 1
        if self.consecutive > self.budget:
            raise TrainingDivergedError(
                f"divergence guard exhausted its rollback budget "
                f"({self.budget}): {reason}")
        self.td3.load_state_dict(self._snapshot)
        self.td3.scale_learning_rates(self.lr_decay)
        # Keep the decayed LR across further rollbacks to the same
        # snapshot (load_state_dict restored the pre-decay value).
        self._snapshot["actor_opt"]["lr"] = self.td3.actor_opt.lr
        self._snapshot["critic_opt"]["lr"] = self.td3.critic_opt.lr
        warnings.warn(
            f"divergence rollback {self.consecutive}/{self.budget}: "
            f"{reason}; learning rates decayed by {self.lr_decay}",
            TrainingInstabilityWarning, stacklevel=3)


class Learner:
    """Shared-policy learner with the paper's update cadence."""

    def __init__(self, cfg: TrainingConfig | None = None,
                 use_global: bool = True, seed: int | None = None):
        self.cfg = cfg or TrainingConfig()
        seed = self.cfg.seed if seed is None else seed
        self.local_dim = LOCAL_FEATURES * self.cfg.history_length
        self.global_dim = GLOBAL_FEATURES
        self.use_global = use_global
        self.td3 = TD3Learner(self.local_dim, self.global_dim, action_dim=1,
                              cfg=self.cfg, use_global=use_global, seed=seed)
        self.replay = ReplayBuffer(self.cfg.replay_capacity, self.local_dim,
                                   self.global_dim, action_dim=1, seed=seed)
        self.guard = DivergenceGuard(self.td3,
                                     budget=self.cfg.rollback_budget,
                                     lr_decay=self.cfg.rollback_lr_decay)
        self._last_update_env_s = 0.0
        self.total_updates = 0
        self.total_transitions = 0
        #: Transition blocks not yet written to replay, and their rows.
        self._pending: list = []
        self._pending_rows = 0

    # ------------------------------------------------------------------

    def act(self, local_state: np.ndarray, noise_std: float = 0.0) -> float:
        """Shared-policy action for one stacked local state.

        A non-finite action triggers a guard rollback and a retry,
        capped at the guard's rollback budget per call: an actor that
        stays non-finite through every restored snapshot raises
        :class:`TrainingDivergedError` instead of spinning.
        """
        return float(self.act_batch(local_state[None, :], noise_std)[0])

    def act_batch(self, local_states: np.ndarray,
                  noise_std: float = 0.0) -> np.ndarray:
        """Shared-policy actions for a ``(k, local_dim)`` stack of states.

        Row ``i`` is bitwise identical to ``act(local_states[i])`` run in
        sequence — the forward kernel is row-consistent and the noise
        stream consumes identically (see :meth:`TD3Learner.act`).  Any
        non-finite row triggers a guard rollback and a full re-draw of
        the batch, bounded by the rollback budget.
        """
        actions = self.td3.act(local_states, noise_std)[:, 0]
        retries = 0
        while not np.isfinite(actions).all():
            if retries >= self.guard.budget:
                raise TrainingDivergedError(
                    f"actor output stayed non-finite through {retries} "
                    f"rollback retries")
            self.guard.rollback("non-finite action from actor")
            actions = self.td3.act(local_states, noise_std)[:, 0]
            retries += 1
        return actions

    def add_transition(self, global_state, local_state, action: float,
                       reward: float, next_global, next_local,
                       done: bool = False) -> None:
        """Store one (g, s, a, r, g', s') tuple: a one-row block of
        :meth:`add_transitions`."""
        self.add_transitions(
            np.asarray(global_state, dtype=float)[None, :],
            np.asarray(local_state, dtype=float)[None, :],
            np.array([float(action)]), np.array([float(reward)]),
            np.asarray(next_global, dtype=float)[None, :],
            np.asarray(next_local, dtype=float)[None, :],
            np.array([float(done)]))

    def add_transitions(self, global_states, local_states, actions,
                        rewards, next_globals, next_locals,
                        done=None) -> None:
        """Store a block of ``k`` tuples, row ``i`` being one transition:
        ``(k, global_dim)`` and ``(k, local_dim)`` states, ``(k,)``
        actions, rewards and (optional, default 0) done flags.

        Equal to ``k`` :meth:`add_transition` calls in row order.  The
        block is kept as given (the caller hands over the arrays) until
        :meth:`flush_transitions` writes every pending block into replay
        at once.
        """
        rewards = np.asarray(rewards, dtype=float)
        k = len(rewards)
        if done is None:
            done = np.zeros(k)
        self._pending.append((
            local_states, global_states,
            np.asarray(actions, dtype=float).reshape(k, 1), rewards,
            next_locals, next_globals, done))
        self._pending_rows += k
        self.total_transitions += k

    def flush_transitions(self) -> None:
        """Write all pending transition blocks to replay in one block:
        before an update burst samples it, at the end of an episode or a
        pool stride, and before a checkpoint saves it."""
        pending = self._pending
        if not pending:
            return
        if len(pending) == 1:
            fields = pending[0]
        else:
            fields = [np.concatenate(column) for column in zip(*pending)]
        self.replay.add_batch(*fields)
        pending.clear()
        self._pending_rows = 0

    @property
    def warm(self) -> bool:
        """Whether replay holds enough experience to start updating.

        Pending transitions count: they are in replay before the next
        burst samples it.
        """
        return len(self.replay) + self._pending_rows >= max(
            self.cfg.warmup_transitions, self.cfg.batch_size)

    def update_burst(self) -> dict[str, float]:
        """Run one burst of ``model_update_steps`` gradient steps.

        The burst runs with NumPy float warnings silenced: a blow-up mid
        burst must reach the divergence guard as non-finite values, not
        as a stderr warning or (under ``np.errstate`` strictness) a raw
        FloatingPointError.  The guard then rolls back or raises a typed
        :class:`TrainingDivergedError`.
        """
        if not self.warm:
            return {"critic_loss": float("nan"), "actor_loss": float("nan")}
        self.flush_transitions()
        losses = {}
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(self.cfg.update_steps):
                losses = self.td3.update(
                    self.replay.sample(self.cfg.batch_size))
                self.total_updates += 1
        self.guard.after_burst(losses)
        return losses

    def maybe_update(self, env_now_s: float) -> dict[str, float] | None:
        """Update burst if the env-time update interval elapsed."""
        if env_now_s - self._last_update_env_s < self.cfg.update_interval_s:
            return None
        self._last_update_env_s = env_now_s
        return self.update_burst()

    def reset_update_clock(self) -> None:
        """Start a new episode's env-time update schedule."""
        self._last_update_env_s = 0.0

    # ------------------------------------------------------------------

    def snapshot_policy(self, scheme: str = "astraea",
                        metadata: dict | None = None) -> PolicyBundle:
        """An immutable copy of the current actor as a PolicyBundle."""
        return PolicyBundle(
            actor=self.td3.actor.clone(),
            history=self.cfg.history_length,
            scheme=scheme,
            metadata=metadata,
        )

    def load_policy(self, bundle: PolicyBundle) -> None:
        """Warm-start the actor (and its target) from a bundle.

        Prefer :meth:`load_checkpoint` when one is available — an
        actor-only warm start leaves the critics random, which requires
        an actor-freeze warmup (``TrainingConfig.actor_warmup_updates``)
        to avoid destroying the warm policy.
        """
        if bundle.actor.in_dim != self.local_dim:
            raise ModelError(
                f"bundle input dim {bundle.actor.in_dim} != learner "
                f"local dim {self.local_dim}")
        self.td3.actor.set_state(bundle.actor.get_state())
        self.td3.actor_target.set_state(bundle.actor.get_state())
        self.guard.refresh()

    # ------------------------------------------------------------------

    _CHECKPOINT_NETS = ("actor", "critic1", "critic2", "actor_target",
                        "critic1_target", "critic2_target")

    def save_checkpoint(self, path: str | Path) -> Path:
        """Persist actor, critics and targets to one ``.npz`` file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        arrays = {}
        for net_name in self._CHECKPOINT_NETS:
            net = getattr(self.td3, net_name)
            for i, p in enumerate(net.get_state()):
                arrays[f"{net_name}__{i}"] = p
        meta = {
            "local_dim": self.local_dim,
            "global_dim": self.global_dim,
            "use_global": self.use_global,
            "hidden_layers": list(self.cfg.hidden_layers),
            "total_updates": self.total_updates,
        }
        np.savez(path, meta=json.dumps(meta), **arrays)
        return path

    def load_checkpoint(self, path: str | Path) -> None:
        """Restore a full checkpoint written by :meth:`save_checkpoint`."""
        path = Path(path)
        if not path.exists():
            raise ModelError(f"no checkpoint at {path}")
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta["local_dim"] != self.local_dim or \
                    meta["global_dim"] != self.global_dim:
                raise ModelError(
                    "checkpoint dimensions do not match this learner")
            if meta["use_global"] != self.use_global:
                raise ModelError(
                    "checkpoint critic topology (use_global) mismatch")
            for net_name in self._CHECKPOINT_NETS:
                net = getattr(self.td3, net_name)
                n = len(net.get_state())
                state = [data[f"{net_name}__{i}"] for i in range(n)]
                net.set_state(state)
            self.total_updates = int(meta.get("total_updates", 0))
        self.guard.refresh()
