"""Training-episode machinery: the Controller of §3.2 in code.

During training each flow is driven by a :class:`TrainFlowController`
executing the shared policy with exploration noise.  The
:class:`Observer` gathers the latest per-flow statistics (the paper's
world-observation exchange), compiles the Table 2 global state, evaluates
the global reward, assembles ``(g, s, a, r, g', s')`` transitions, and
tracks per-episode statistics.

:func:`run_training_episode` steps the same scenario driver as every
other fluid run (:meth:`~repro.env.multiflow.ScenarioDriver.step_block`).
Each step's pass collects all due flows' stats at one instant, lets every
agent decide — its policy forward stacked into one batched call for the
whole pass, or per flow on the serial leg — and applies every decision;
the observer, the driver's per-step hook, then publishes that snapshot,
computes the shared reward and global state once, emits the pass's
transitions and lets the Learner update on the Table 4 cadence.  The
serial and batched legs are bitwise identical: the forward kernel is
row-consistent, exploration randomness lives on per-controller streams,
and the observer sees the same published snapshot either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cc.base import Decision, TwoPhaseController
from ..config import (
    ACTION_ALPHA,
    FlowConfig,
    LinkConfig,
    RewardConfig,
    ScenarioConfig,
)
from ..core.action import apply_action, pacing_from_cwnd
from ..core.learner import Learner
from ..core.reward import FlowSnapshot, RewardBlock
from ..core.state import LocalStateBlock, global_state_vector
from ..netsim.stats import MtpStats
from .multiflow import build_driver


class TrainFlowController(TwoPhaseController):
    """Astraea agent in training mode: shared policy plus exploration.

    The initial window is randomised per flow so early training covers the
    state space even while exploration noise is too small to move the
    multiplicative window far within one episode.  Exploration combines
    three mechanisms: uniform random actions until the replay buffer is
    warm, an epsilon of uniform actions afterwards (Gaussian noise added
    after the tanh cannot escape a saturated actor), and the Gaussian
    perturbation itself.  Every random draw — epsilon, uniform action and
    the Gaussian noise — comes from this controller's own stream, so the
    episode's randomness is independent of *how* actions were computed
    (one flow at a time or one stacked batch per pass).

    The decision is two-phase (:class:`~repro.cc.base.TwoPhaseController`):
    :meth:`begin_interval` folds the new stats into the local state block
    and either finishes an exploratory decision or returns the state the
    policy should act on; :meth:`finish_interval` perturbs and applies the
    (possibly batched) policy action.  ``policy`` is the shared learner,
    which a driver stacks across the pass's agents; with ``policy`` set to
    ``None`` every decision runs the per-object ``on_interval``.
    """

    EPSILON_UNIFORM = 0.10

    def __init__(self, learner: Learner, noise_std: float = 0.1,
                 alpha: float = ACTION_ALPHA, mtp_s: float = 0.030,
                 initial_cwnd: float = 10.0, use_pacing: bool = True,
                 episode: int = 0, flow_index: int = 0):
        super().__init__(mtp_s)
        self.learner = self.policy = learner
        self.noise_std = noise_std
        self.alpha = alpha
        self.use_pacing = use_pacing
        self._initial_cwnd = max(initial_cwnd, 2.0)
        self.state_block = LocalStateBlock(history=learner.cfg.history_length)
        # The exploration stream is a pure function of (learner seed,
        # episode, flow index) — NOT of how many controllers this process
        # ever built.  A class-level counter here once made two same-seed
        # runs in one process diverge, and would have broken bit-exact
        # checkpoint resume.
        self._rng = np.random.default_rng(
            [learner.cfg.seed, episode, flow_index])
        self.reset()

    @property
    def initial_cwnd(self) -> float:
        return self._initial_cwnd

    def reset(self) -> None:
        self.state_block.reset()
        self.cwnd = self._initial_cwnd
        self.last_state: np.ndarray | None = None
        self.last_action: float = 0.0
        self._state: np.ndarray | None = None

    def begin_interval(self, stats: MtpStats) -> Decision | np.ndarray:
        """First half of a decision: observe, and choose *how* to act.

        Returns the finished :class:`Decision` when this interval explores
        with a uniform random action (not warm yet, or the epsilon draw
        fired), otherwise the local state the shared policy must act on.
        """
        state = self._state = self.state_block.update(stats)
        if not self.learner.warm \
                or self._rng.random() < self.EPSILON_UNIFORM:
            return self._apply(stats,
                               float(self._rng.uniform(-0.999, 0.999)))
        return state

    def finish_interval(self, stats: MtpStats, action: float) -> Decision:
        """Second half: perturb the clean policy ``action`` for the state
        :meth:`begin_interval` returned (Gaussian noise from this
        controller's stream) and apply it."""
        if self.noise_std > 0:
            action = action + float(self._rng.normal(0.0, self.noise_std))
        return self._apply(stats, float(np.clip(action, -0.999, 0.999)))

    def act(self, state: np.ndarray) -> float:
        return self.learner.act(state)

    def _apply(self, stats: MtpStats, action: float) -> Decision:
        self.cwnd = apply_action(self.cwnd, action, self.alpha)
        self.last_state = self._state
        self.last_action = action
        pacing = pacing_from_cwnd(self.cwnd, max(stats.srtt_s, 1e-6)) \
            if self.use_pacing else None
        return Decision(cwnd_pkts=self.cwnd, pacing_pps=pacing)


@dataclass
class EpisodeStats:
    """What one training episode produced."""

    transitions: int = 0
    reward_sum: float = 0.0
    reward_count: int = 0
    update_bursts: int = 0
    last_losses: dict = field(default_factory=dict)

    @property
    def mean_reward(self) -> float:
        return self.reward_sum / self.reward_count if self.reward_count else 0.0


class Observer:
    """Gathers world observations and feeds the Learner (§3.2 Controller).

    An observer is the scenario driver's per-step hook (see
    :meth:`__call__`).  ``transition_sink`` redirects assembled
    transitions away from the learner: the rollout workers of
    :mod:`repro.env.pool` capture them (with timestamps) for shipping back
    to the parent process instead of writing a replay buffer they don't
    own.
    """

    def __init__(self, learner: Learner, link: LinkConfig,
                 flows: tuple[FlowConfig, ...],
                 controllers: list[TrainFlowController],
                 reward_config: RewardConfig | None = None,
                 local_reward=None, do_updates: bool = True,
                 transition_sink=None):
        self.learner = learner
        self.link = link
        self.flows = flows
        self.controllers = controllers
        self.reward_block = RewardBlock(link, reward_config)
        self.local_reward = local_reward
        self.do_updates = do_updates
        self.transition_sink = transition_sink
        self._latest: dict[int, MtpStats] = {}
        self._pending: dict[int, tuple[np.ndarray, np.ndarray, float]] = {}
        self.stats = EpisodeStats()

    # ------------------------------------------------------------------

    def _active_indices(self, now: float) -> list[int]:
        """Active *agent* flows (cross-traffic competitors are part of the
        environment, not of the cooperating agent population)."""
        return [i for i in self._latest
                if self.flows[i].start_s <= now < self.flows[i].end_s()
                and isinstance(self.controllers[i], TrainFlowController)]

    def _snapshots(self, indices: list[int]) -> list[FlowSnapshot]:
        out = []
        for i in indices:
            s = self._latest[i]
            block = self.controllers[i].state_block
            out.append(FlowSnapshot(
                throughput_pps=s.throughput_pps,
                avg_thr_pps=block.avg_throughput_pps(),
                thr_std_pps=block.throughput_std_pps(),
                avg_rtt_s=s.avg_rtt_s,
                loss_pps=s.loss_pps,
                pacing_pps=s.pacing_pps,
            ))
        return out

    def __call__(self, now: float, flows, stats: list[MtpStats]) -> None:
        """The driver's per-step hook: ``flows`` (running records with an
        ``index``) decided on ``stats`` in this step's pass, possibly none.

        Publishes the pass's stats, so every agent's transition sees the
        identical world snapshot — the paper's synchronous
        world-observation exchange — and the (global) reward and global
        state are computed once from it.  Then one transition per agent
        that decided, in pass order, and the Learner's shot at an update
        burst, which it gets on every step.
        """
        agents = []
        for rf, s in zip(flows, stats):
            self._latest[rf.index] = s
            if isinstance(self.controllers[rf.index], TrainFlowController):
                agents.append((rf.index, s))
        active = self._active_indices(now) if agents else None
        if active:
            self._emit(now, agents, active)
        if self.do_updates:
            losses = self.learner.maybe_update(now)
            if losses is not None:
                self.stats.update_bursts += 1
                self.stats.last_losses = losses

    def _emit(self, now: float, agents: list[tuple[int, MtpStats]],
              active: list[int]) -> None:
        """One transition per agent of the pass (cross traffic is
        environment, not an agent, and emits none)."""
        if self.local_reward is None:
            reward = self.reward_block.compute(self._snapshots(active)).total
        g_now = global_state_vector([self._latest[i] for i in active],
                                    self.link)
        for idx, stats in agents:
            if self.local_reward is not None:
                reward = self.local_reward(stats, self.link)
            ctl = self.controllers[idx]
            s_now, a_now = ctl.last_state, ctl.last_action
            if s_now is None:
                # The flow has not produced a state yet (e.g. a freshly
                # reset controller observed out of band); a None here
                # would poison a transition tuple, so skip it.
                self._pending.pop(idx, None)
                continue
            if idx in self._pending:
                g_prev, s_prev, a_prev = self._pending[idx]
                if self.transition_sink is not None:
                    self.transition_sink(now, g_prev, s_prev, a_prev, reward,
                                         g_now, s_now)
                else:
                    self.learner.add_transition(g_prev, s_prev, a_prev,
                                                reward, g_now, s_now)
                self.stats.transitions += 1
                self.stats.reward_sum += reward
                self.stats.reward_count += 1
            self._pending[idx] = (g_now, s_now, a_now)


def build_training_controllers(learner, scenario: ScenarioConfig,
                               noise_std: float,
                               initial_cwnds: list[float],
                               episode: int = 0) -> list:
    """One controller per flow: agents for ``astraea``, cross traffic else.

    ``learner`` only needs ``cfg.seed``, ``cfg.history_length``, ``warm``
    and the act methods — a frozen policy snapshot
    (:class:`repro.env.pool.FrozenPolicy`) works as well as the live
    :class:`~repro.core.learner.Learner`.
    """
    from ..cc import create as create_cc

    controllers = []
    for flow_index, (cfg_flow, cw) in enumerate(zip(scenario.flows,
                                                    initial_cwnds)):
        if cfg_flow.cc == "astraea":
            controllers.append(TrainFlowController(
                learner, noise_std=noise_std, mtp_s=scenario.mtp_s,
                initial_cwnd=cw, episode=episode, flow_index=flow_index))
        else:
            controllers.append(create_cc(cfg_flow.cc, **cfg_flow.cc_kwargs))
    return controllers


def run_training_episode(learner: Learner, scenario: ScenarioConfig,
                         noise_std: float, initial_cwnds: list[float],
                         reward_config: RewardConfig | None = None,
                         local_reward=None,
                         do_updates: bool = True,
                         episode: int = 0,
                         batched: bool = True,
                         transition_sink=None) -> EpisodeStats:
    """Collect one episode of experience (and update on the Table 4 cadence).

    ``local_reward`` switches the reward from Astraea's global objective to
    a per-flow local function (used to train the Aurora baseline with its
    own Eq. 1 reward in the identical harness).

    Flows whose scheme is not ``"astraea"`` are instantiated from the
    registry and act as environment cross traffic (e.g. a CUBIC competitor
    teaching TCP friendliness); they generate no transitions.

    ``episode`` seeds each flow's exploration stream (together with the
    learner seed and the flow index), which keeps runs reproducible — and
    checkpoint resume bit-exact — regardless of process history.

    ``batched`` selects the fast path: all policy actions of a pass in
    one stacked forward and transitions buffered for block writes into
    replay.  ``batched=False`` runs the per-object path of the same pass
    (one ``on_interval`` per agent) with direct replay writes; both
    produce bitwise-identical episodes (the contract ``repro bench
    train`` verifies).

    ``transition_sink`` forwards transitions to a callable instead of the
    learner's replay buffer (the rollout-worker capture path).
    """
    controllers = build_training_controllers(learner, scenario, noise_std,
                                             initial_cwnds, episode=episode)
    if not batched:
        for ctl in controllers:
            if isinstance(ctl, TrainFlowController):
                ctl.policy = None
    observer = Observer(learner, scenario.link, scenario.flows,
                        controllers, reward_config=reward_config,
                        local_reward=local_reward, do_updates=do_updates,
                        transition_sink=transition_sink)
    driver = build_driver(scenario, controllers=controllers,
                          on_step=observer, align_intervals=True)
    learner.reset_update_clock()
    defer = batched and hasattr(learner, "set_deferred")
    if defer:
        learner.set_deferred(True)
    try:
        while driver.step_block():
            pass
    finally:
        if defer:
            learner.set_deferred(False)
    return observer.stats
