"""Parallel training environments (Appendix A).

The paper trains with four environment instances that share the same
actor/critic networks, which both diversifies the replay buffer within a
wall-clock window and decorrelates consecutive transitions.  This module
implements that as a *frozen-policy stride dispatcher*: at the start of
each stride the :class:`EnvironmentPool` snapshots the shared actor (and
the replay warm flag), rolls every instance's episode out against that
snapshot — in-process or on a :func:`repro.parallel.parallel_map` worker
pool, identically — ships the timestamped transitions back, and replays
the merged stream into the shared Learner in simulated-time order, firing
update bursts on the pooled environment clock.

Because the policy is frozen per stride and the merge order is a pure
function of the collected timestamps, the training trajectory is
bit-identical at any worker count — the property checkpoint resume and
``repro bench train`` rely on.
"""

from __future__ import annotations

import numpy as np

from ..config import RewardConfig, ScenarioConfig, TrainingConfig
from ..core.learner import Learner
from ..core.state import LOCAL_FEATURES
from ..errors import SimulationError
from ..parallel import parallel_map
from ..rl.nn import MLP
from .episode import EpisodeStats, run_training_episode


class FrozenPolicy:
    """Read-only actor snapshot that stands in for the Learner in workers.

    Duck-types the slice of :class:`~repro.core.learner.Learner` that
    :class:`~repro.env.episode.TrainingPolicy` and the episode runner
    touch: ``cfg``, ``warm``, ``act_batch``, the update-clock reset and
    the replay flush.  It never owns replay memory or critics
    — transitions leave the worker through the observer's
    ``transition_sink`` and updates happen only in the parent.
    """

    def __init__(self, cfg: TrainingConfig, actor_state: list[np.ndarray],
                 warm: bool):
        self.cfg = cfg
        self.warm = warm
        self.actor = MLP(LOCAL_FEATURES * cfg.history_length,
                         cfg.hidden_layers, 1, output="tanh")
        self.actor.set_state(actor_state)

    def act_batch(self, local_states: np.ndarray,
                  noise_std: float = 0.0) -> np.ndarray:
        """Greedy actions via the row-consistent kernel (no noise: the
        exploration Gaussian lives on the agents' own streams)."""
        actions = self.actor.infer_rows(local_states)[:, 0]
        if not np.isfinite(actions).all():
            # A worker cannot roll anything back; surface the bad actor
            # as a simulation failure so the stride gets quarantined.
            raise SimulationError("frozen policy produced a non-finite "
                                  "action")
        return np.clip(actions, -0.999, 0.999)

    def reset_update_clock(self) -> None:
        """No-op: the parent owns the update schedule."""

    def flush_transitions(self) -> None:
        """No-op: transitions leave through the observer's sink."""


def _rollout_task(payload) -> dict:
    """Module-level rollout worker (spawn-picklable for parallel_map).

    Runs one episode against a frozen actor snapshot and returns the
    timestamped transitions plus the episode counters.  Simulator
    failures are returned as a record — not raised — so every sibling
    episode still completes and the parent can quarantine the stride
    deterministically at any worker count.
    """
    (cfg, actor_state, warm, scenario, noise_std, cwnds, episode,
     reward_config) = payload
    policy = FrozenPolicy(cfg, actor_state, warm)
    captured: list[tuple] = []

    def sink(now, g_prev, s_prev, a_prev, reward, g_now, s_now):
        captured.append((now, g_prev, s_prev, a_prev, reward, g_now, s_now))

    try:
        stats = run_training_episode(
            policy, scenario, noise_std=noise_std, initial_cwnds=cwnds,
            reward_config=reward_config, do_updates=False, episode=episode,
            batched=True, transition_sink=sink)
    except (SimulationError, FloatingPointError) as exc:
        return {"episode": episode,
                "failed": f"{type(exc).__name__}: {exc}"}
    return {"episode": episode, "transitions": captured,
            "counts": (stats.transitions, stats.reward_sum,
                       stats.reward_count)}


def _describe_rollout(payload) -> str:
    return f"rollout episode {payload[6]} (scenario seed {payload[3].seed})"


class EnvironmentPool:
    """Runs several training scenarios against one shared Learner."""

    def __init__(self, learner: Learner, scenarios: list[ScenarioConfig],
                 noise_std: float, initial_cwnds: list[list[float]],
                 reward_config: RewardConfig | None = None,
                 episodes: list[int] | None = None,
                 workers: int | None = None):
        if len(scenarios) != len(initial_cwnds):
            raise ValueError("need one initial-cwnd list per scenario")
        if episodes is None:
            episodes = list(range(len(scenarios)))
        if len(episodes) != len(scenarios):
            raise ValueError("need one episode id per scenario")
        self.learner = learner
        self.scenarios = scenarios
        self.noise_std = noise_std
        self.initial_cwnds = initial_cwnds
        self.reward_config = reward_config
        self.episodes = episodes
        self.workers = workers

    def run(self) -> EpisodeStats:
        """Roll out every instance against a frozen policy, then learn.

        The actor snapshot and warm flag are taken once, up front;
        episodes run independently (serially in-process for
        ``workers <= 1``, on a process pool otherwise — bit-identical
        either way).  The shipped transitions are merged by
        ``(timestamp, instance, arrival)`` and written into replay in
        that order, with update bursts firing whenever the *mean*
        environment time across instances crosses the Table 4 update
        interval — the paper's shared-cadence parallel collection.

        If any episode dies in the simulator the entire stride is
        quarantined: nothing reaches replay and a
        :class:`~repro.errors.SimulationError` propagates to the
        training loop's fault-isolation wrapper.
        """
        actor_state = self.learner.td3.actor.get_state()
        payloads = [
            (self.learner.cfg, actor_state, self.learner.warm, scenario,
             self.noise_std, cwnds, episode, self.reward_config)
            for scenario, cwnds, episode in zip(
                self.scenarios, self.initial_cwnds, self.episodes)
        ]
        results = parallel_map(_rollout_task, payloads, workers=self.workers,
                               describe=_describe_rollout)
        failures = [r for r in results if "failed" in r]
        if failures:
            details = "; ".join(
                f"episode {r['episode']}: {r['failed']}" for r in failures)
            raise SimulationError(
                f"{len(failures)}/{len(results)} pool episodes failed "
                f"({details})")

        merged = sorted(
            (trans[0], k, j, trans)
            for k, result in enumerate(results)
            for j, trans in enumerate(result["transitions"])
        )
        combined = EpisodeStats()
        for result in results:
            transitions, reward_sum, reward_count = result["counts"]
            combined.transitions += transitions
            combined.reward_sum += reward_sum
            combined.reward_count += reward_count

        self.learner.reset_update_clock()
        clocks = np.zeros(len(results))
        for t, k, _, trans in merged:
            _, g_prev, s_prev, a_prev, reward, g_now, s_now = trans
            self.learner.add_transition(g_prev, s_prev, a_prev, reward,
                                        g_now, s_now)
            clocks[k] = t
            losses = self.learner.maybe_update(float(np.mean(clocks)))
            if losses is not None:
                combined.update_bursts += 1
                combined.last_losses = losses
        self.learner.flush_transitions()
        return combined
