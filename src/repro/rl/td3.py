"""Centralised-critic deterministic actor-critic (the paper's Algorithm 1).

The learner follows §3.4: a deterministic actor maps a flow's *local*
state to an action; a centralised critic estimates Q(g, s, a) where ``g``
is the aggregated global state of Table 2 — the MADDPG-style use of extra
global information that reduces value-estimation variance.  On top of the
vanilla update the paper's Appendix A adopts the TD3 refinements, all
implemented here:

* target networks with Polyak averaging,
* clipped double-Q learning (two critics, min for the target),
* delayed policy updates,
* target policy smoothing regularisation.

Setting ``use_global=False`` ablates the centralised critic (local-only
observations), reproducing the paper's variance argument.
"""

from __future__ import annotations

import numpy as np

from ..config import TrainingConfig
from ..errors import ModelError
from .nn import MLP
from .optim import Adam


class TD3Learner:
    """TD3 with a centralised critic over (global, local, action)."""

    def __init__(self, local_dim: int, global_dim: int, action_dim: int = 1,
                 cfg: TrainingConfig | None = None, use_global: bool = True,
                 seed: int = 0):
        if local_dim <= 0 or global_dim <= 0 or action_dim <= 0:
            raise ModelError("dimensions must be positive")
        cfg = cfg or TrainingConfig()
        self.cfg = cfg
        self.local_dim = local_dim
        self.global_dim = global_dim
        self.action_dim = action_dim
        self.use_global = use_global
        critic_in = local_dim + action_dim + (global_dim if use_global else 0)

        self.actor = MLP(local_dim, cfg.hidden_layers, action_dim,
                         output="tanh", seed=seed)
        self.critic1 = MLP(critic_in, cfg.hidden_layers, 1, seed=seed + 1)
        self.critic2 = MLP(critic_in, cfg.hidden_layers, 1, seed=seed + 2)
        self.actor_target = self.actor.clone()
        self.critic1_target = self.critic1.clone()
        self.critic2_target = self.critic2.clone()

        self.actor_opt = Adam(self.actor.parameters(), self.actor.gradients(),
                              lr=cfg.actor_lr)
        self.critic_opt = Adam(
            self.critic1.parameters() + self.critic2.parameters(),
            self.critic1.gradients() + self.critic2.gradients(),
            lr=cfg.critic_lr)
        self._rng = np.random.default_rng(seed + 3)
        self._updates = 0

    # ------------------------------------------------------------------

    def act(self, local_state: np.ndarray, noise_std: float = 0.0) -> np.ndarray:
        """Deterministic action for one or more local states, optionally
        perturbed by Gaussian exploration noise and clipped to (-1, 1).

        Uses the row-consistent forward kernel
        (:meth:`~repro.rl.nn.MLP.infer_rows`), so acting on a stacked
        batch of states is bitwise identical to acting on each state
        alone — the contract the serial-vs-batched rollout equivalence
        rests on — and a state repeated in the batch is forwarded once.
        The exploration noise stream (``self._rng``) is likewise
        batch-shape-invariant: drawing ``(k, 1)`` normals consumes the
        stream exactly as ``k`` sequential ``(1, 1)`` draws.
        """
        action = self.actor.infer_rows(local_state)
        if noise_std > 0:
            action = action + self._rng.normal(0.0, noise_std, size=action.shape)
        return np.clip(action, -0.999, 0.999)

    def _critic_input(self, g: np.ndarray, s: np.ndarray,
                      a: np.ndarray) -> np.ndarray:
        if self.use_global:
            return np.concatenate([g, s, a], axis=1)
        return np.concatenate([s, a], axis=1)

    # ------------------------------------------------------------------

    def update(self, batch: dict[str, np.ndarray]) -> dict[str, float]:
        """One gradient step on the critics, with a delayed actor update.

        ``batch`` comes from :class:`repro.rl.replay.ReplayBuffer.sample`.
        Returns the scalar losses for monitoring.
        """
        cfg = self.cfg
        s, g = batch["local"], batch["global"]
        a, r = batch["action"], batch["reward"]
        s2, g2 = batch["next_local"], batch["next_global"]
        done = batch["done"]
        batch_size = s.shape[0]

        # Target action with smoothing noise (TD3).  The targets never
        # take a backward pass, but their forwards still run in their
        # workspace: bitwise ``infer``, without its fresh arrays.
        a2 = self.actor_target.forward(s2)
        noise = np.clip(
            self._rng.normal(0.0, cfg.target_noise, size=a2.shape),
            -cfg.target_noise_clip, cfg.target_noise_clip)
        a2 = np.clip(a2 + noise, -1.0, 1.0)

        x2 = self._critic_input(g2, s2, a2)
        q1_t = self.critic1_target.forward(x2)
        q2_t = self.critic2_target.forward(x2)
        target = r[:, None] + cfg.gamma * (1.0 - done[:, None]) * np.minimum(q1_t, q2_t)

        # Critic regression toward the TD target.
        x = self._critic_input(g, s, a)
        critic_loss = 0.0
        for critic in (self.critic1, self.critic2):
            q = critic.forward(x)
            err = q - target
            critic_loss += float(np.mean(err ** 2))
            critic.zero_grad()
            # The critic input is data: its gradient has no reader.
            critic.backward(2.0 * err / batch_size, input_grad=False)
        self.critic_opt.step()

        self._updates += 1
        actor_loss = float("nan")
        if self._updates % cfg.policy_delay == 0 \
                and self._updates > cfg.actor_warmup_updates:
            # Deterministic policy gradient: ascend Q1 through the action.
            a_pi = self.actor.forward(s)
            x_pi = self._critic_input(g, s, a_pi)
            q = self.critic1.forward(x_pi)
            actor_loss = -float(np.mean(q))
            # Only the action's gradient is read here: critic1's parameter
            # gradients and the actor's input gradient are not computed.
            grad_in = self.critic1.backward(-np.ones_like(q) / batch_size,
                                            params=False)
            grad_action = grad_in[:, -self.action_dim:]
            self.actor.zero_grad()
            self.actor.backward(grad_action, input_grad=False)
            self.actor_opt.step()

            self.actor_target.polyak_update_from(self.actor, cfg.tau)
            self.critic1_target.polyak_update_from(self.critic1, cfg.tau)
            self.critic2_target.polyak_update_from(self.critic2, cfg.tau)

        return {"critic_loss": critic_loss / 2.0, "actor_loss": actor_loss}

    # ------------------------------------------------------------------

    def q_values(self, g: np.ndarray, s: np.ndarray,
                 a: np.ndarray) -> np.ndarray:
        """Q1 estimates for inspection and tests."""
        return self.critic1.infer(self._critic_input(g, s, a))

    # ------------------------------------------------------------------
    # Snapshot / restore (divergence guard + training checkpoints)
    # ------------------------------------------------------------------

    NETS = ("actor", "critic1", "critic2", "actor_target",
            "critic1_target", "critic2_target")

    def state_dict(self, out: dict | None = None) -> dict:
        """Copies of every network and both optimiser states, written
        into ``out`` (an earlier result) when given: no second set of
        arrays while the first is alive."""
        out = out or {"nets": dict.fromkeys(self.NETS),
                      "actor_opt": None, "critic_opt": None}
        for name in self.NETS:
            out["nets"][name] = getattr(self, name).get_state(
                out["nets"][name])
        for key in ("actor_opt", "critic_opt"):
            out[key] = getattr(self, key).get_state(out[key])
        out["updates"] = self._updates
        return out

    def __reduce__(self):
        """Pickle (and deep-copy) through the constructor and
        :meth:`state_dict`, plus the target-noise stream: the copy's
        optimisers then bind the copy's own parameter arrays.  Copying
        the attributes would leave each ``Adam`` stepping private
        copies of the parameters, since every ``MLP`` pickles by value.
        """
        return _rebuild, (self.local_dim, self.global_dim, self.action_dim,
                          self.cfg, self.use_global, self.state_dict(),
                          self._rng.bit_generator.state)

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output in place."""
        for name in self.NETS:
            getattr(self, name).set_state(state["nets"][name])
        self.actor_opt.set_state(state["actor_opt"])
        self.critic_opt.set_state(state["critic_opt"])
        self._updates = int(state["updates"])

    def params_finite(self) -> bool:
        """Whether every parameter of every network is finite."""
        return all(
            np.isfinite(p).all()
            for name in self.NETS
            for p in getattr(self, name).parameters()
        )

    def scale_learning_rates(self, factor: float) -> None:
        """Multiply both optimiser learning rates (divergence backoff)."""
        if factor <= 0:
            raise ModelError("LR scale factor must be positive")
        self.actor_opt.lr *= factor
        self.critic_opt.lr *= factor


def _rebuild(local_dim: int, global_dim: int, action_dim: int,
             cfg: TrainingConfig, use_global: bool, state: dict,
             rng_state: dict) -> TD3Learner:
    learner = TD3Learner(local_dim, global_dim, action_dim, cfg, use_global)
    learner.load_state_dict(state)
    learner._rng.bit_generator.state = rng_state
    return learner
