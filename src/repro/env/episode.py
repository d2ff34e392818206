"""Training-episode machinery: the Controller of §3.2 in code.

During training each agent flow is an
:class:`~repro.core.astraea.AstraeaController` with slow start, probe
drain and guards off, whose policy is the episode's
:class:`TrainingPolicy`: the shared actor plus exploration.  The
:class:`Observer` gathers the latest per-flow statistics (the paper's
world-observation exchange), compiles the Table 2 global state, evaluates
the global reward, assembles ``(g, s, a, r, g', s')`` transitions, and
tracks per-episode statistics.

:func:`run_training_episode` steps the same scenario driver as every
other fluid run (:meth:`~repro.env.multiflow.ScenarioDriver.step_block`).
Each step's pass collects all due flows' stats at one instant as
columns, lets every agent decide — all agents in one column decision
around one stacked forward, or per flow on the serial leg — and applies
every decision; the observer, the driver's per-step hook, then publishes
that snapshot into its per-flow arrays, computes the shared reward and
global state once as column reductions, emits the pass's transitions as
one block and lets the Learner update on the Table 4 cadence.  The serial
and batched legs are bitwise identical: the forward kernel is
row-consistent, exploration randomness lives on per-agent streams drawn
in the same order, and the observer sees the same published snapshot
either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import (
    ACTION_ALPHA,
    FlowConfig,
    LinkConfig,
    RewardConfig,
    ScenarioConfig,
)
from ..core.astraea import AstraeaController
from ..core.learner import Learner
from ..core.reward import RewardBlock
from ..core.state import GLOBAL_FEATURES, LOCAL_FEATURES, \
    global_state_from_reductions
from ..errors import ConfigError
from ..netsim.stats import MtpColumns, contiguous_run
from .multiflow import build_driver


class TrainingPolicy:
    """The shared policy of one training episode's agents: the
    learner's actor plus exploration.

    Holds the learner (or a :class:`~repro.env.pool.FrozenPolicy`) —
    :meth:`act_batch` forwards through its ``act_batch``, so that stays
    the one forward per pass — and, per agent slot, what cannot live in
    a float column: the agent's exploration stream, and the last
    ``(state, action)`` it decided, which the :class:`Observer` pairs
    into transitions.  :func:`build_training_controllers` builds one per
    episode, sized to its agents.

    Exploration combines three mechanisms: uniform random actions until
    the replay buffer is warm, an epsilon of uniform actions afterwards
    (Gaussian noise added after the tanh cannot escape a saturated
    actor), and the Gaussian perturbation itself.  Every draw comes from
    the deciding agent's own stream, so the episode's randomness is
    independent of *how* actions were computed (one agent at a time or
    one column pass).
    """

    EPSILON_UNIFORM = 0.10
    #: The Eq. 3 coefficient the agents apply (a bundle's ``alpha``).
    alpha = ACTION_ALPHA

    def __init__(self, learner, noise_std: float,
                 streams: list[np.random.Generator]):
        self.learner = learner
        self.history = learner.cfg.history_length
        self.noise_std = noise_std
        self.streams = streams
        n = len(streams)
        #: Per slot: the state the agent's last decision acted on, that
        #: decision's action, and whether there is one since its reset.
        self.states = np.zeros((n, LOCAL_FEATURES * self.history))
        self.actions = np.zeros(n)
        self.has_state = np.zeros(n, dtype=bool)
        #: Per slot: whether the agent was reset since the observer last
        #: looked (its state block, and so its Eq. 7 history, restarted).
        self.restarted = np.ones(n, dtype=bool)

    def restart(self, slot: int) -> None:
        """The agent at ``slot`` was reset: it has no state to pair."""
        self.has_state[slot] = False
        self.restarted[slot] = True

    def act(self, state: np.ndarray, slot: int) -> float:
        """:meth:`act_batch` of one agent."""
        return float(self.act_batch(state[None, :], [slot])[0])

    def act_batch(self, rows: np.ndarray, slots) -> np.ndarray:
        """The actions of the agents at ``slots`` deciding on the
        stacked states ``rows``, recorded in the slot table.

        Per agent, in order and from its own stream: the epsilon draw
        (once the learner is warm) and the uniform action of an
        exploring agent.  The learner acts once, through its row-exact
        ``act_batch``, on the other agents' rows only, each of which
        then draws its Gaussian noise (when ``noise_std > 0``); one clip
        closes the decision.
        """
        slots = np.asarray(slots, dtype=np.intp)
        streams = list(map(self.streams.__getitem__, slots.tolist()))
        action = np.empty(len(streams))
        greedy = []
        warm = self.learner.warm
        for j, stream in enumerate(streams):
            if warm and stream.random() >= self.EPSILON_UNIFORM:
                greedy.append(j)
            else:
                action[j] = stream.uniform(-0.999, 0.999)
        if greedy:
            clean = self.learner.act_batch(
                rows if len(greedy) == len(rows) else rows[greedy])
            noise = self.noise_std
            for j, a in zip(greedy, clean.tolist()):
                if noise > 0:
                    a = a + streams[j].normal(0.0, noise)
                action[j] = a
            # (An exploring row's uniform draw is inside the clip.)
            action.clip(-0.999, 0.999, out=action)
        self.record(contiguous_run(slots), rows, action)
        return action

    def record(self, slots, states: np.ndarray, actions) -> None:
        """The decisions of the agents at ``slots`` (an index array, or
        a slice): the states acted on and the actions applied."""
        self.states[slots] = states
        self.actions[slots] = actions
        self.has_state[slots] = True


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


#: The per-flow stats the observer keeps, the rows of its ``_latest``
#: (the reward's and the global state's inputs).
_LATEST = ("throughput_pps", "avg_rtt_s", "loss_pps", "pacing_pps",
           "cwnd_pkts", "loss_rate")


class Observer:
    """Gathers world observations and feeds the Learner (§3.2 Controller).

    An observer is the scenario driver's per-step hook (see
    :meth:`__call__`).  It keeps, per flow, the latest published stats
    and the throughput ring of Eq. 7 as arrays, the flows in first-seen
    order, and each agent's pending ``(g, s, a)`` awaiting its successor.
    An agent's ring holds what its state block holds: it restarts when
    the agent is reset, and takes a published throughput only while the
    agent has a state since that reset.  (Under the driver every
    published flow has just decided on those stats; an out-of-band
    caller that publishes a flow twice without a decision in between
    gives its ring an entry the block does not have.)
    ``transition_sink`` redirects assembled transitions away from the
    learner: the rollout workers of :mod:`repro.env.pool` capture them
    (with timestamps) for shipping back to the parent process instead of
    writing a replay buffer they don't own.
    """

    def __init__(self, learner: Learner, link: LinkConfig,
                 flows: tuple[FlowConfig, ...],
                 controllers: list,
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
        self.stats = EpisodeStats()
        n = len(flows)
        # An agent is a controller whose policy is a TrainingPolicy.
        policies = [getattr(c, "policy", None) for c in controllers]
        tables = {id(p): p for p in policies
                  if isinstance(p, TrainingPolicy)}
        if len(tables) > 1:
            raise ConfigError("an episode's agents must share one "
                              "TrainingPolicy (build_training_controllers)")
        self._agents = next(iter(tables.values()), None)
        self._is_agent = np.array(
            [p is not None and p is self._agents for p in policies],
            dtype=bool)
        self._slot = np.array([c.slot if agent else -1 for c, agent
                               in zip(controllers, self._is_agent)],
                              dtype=np.intp)
        self._start = np.array([f.start_s for f in flows], dtype=float)
        self._end = np.array([f.end_s() for f in flows], dtype=float)
        # The latest stats of every flow seen, in first-seen order.
        self._seen = np.zeros(n, dtype=bool)
        self._unseen = n
        self._order = np.zeros(0, dtype=np.intp)
        self._latest = np.zeros((len(_LATEST), n))
        # Eq. 7's throughput history, oldest first, zero-padded above.
        history = learner.cfg.history_length
        self._ring = np.zeros((history, n))
        self._ring_len = np.zeros(n, dtype=np.intp)
        # The reward's scratch: per flow the loss ratio, the fairness
        # share and the coefficient of variation.
        self._terms = np.zeros((3, n))
        # Each agent's pending (g, s, a) and whether it has one.
        local_dim = LOCAL_FEATURES * history
        self._pending = np.zeros(n, dtype=bool)
        self._pending_g = np.zeros((n, GLOBAL_FEATURES))
        self._pending_s = np.zeros((n, local_dim))
        self._pending_a = np.zeros(n)

    # ------------------------------------------------------------------

    def __call__(self, now: float, flows, columns: MtpColumns | None
                 ) -> None:
        """The driver's per-step hook: ``flows`` (running records with an
        ``index``) decided on ``columns`` in this step's pass, possibly
        none (``columns`` is ``None`` then).

        Publishes the pass's stats, so every agent's transition sees the
        identical world snapshot — the paper's synchronous
        world-observation exchange — and the (global) reward and global
        state are computed once from it.  Then one transition per agent
        that decided, in pass order, as one block, and the Learner's
        shot at an update burst, which it gets on every step.
        """
        if flows:
            index = np.array([rf.index for rf in flows], dtype=np.intp)
            self._publish(index, columns)
            agent = self._is_agent[index]
            if np.count_nonzero(agent):
                active = self._active_indices(now)
                if len(active):
                    self._emit(now, index, agent, columns, active)
        if self.do_updates:
            losses = self.learner.maybe_update(now)
            if losses is not None:
                self.stats.update_bursts += 1
                self.stats.last_losses = losses

    def _publish(self, index: np.ndarray, columns: MtpColumns) -> None:
        """Take the pass's stats as the flows' latest, and their
        throughputs into the rings (see the class docstring)."""
        if self._unseen:
            new = ~self._seen[index]
            fresh = int(np.count_nonzero(new))
            if fresh:
                self._seen[index] = True
                self._order = np.concatenate([self._order, index[new]])
                self._unseen -= fresh
        at = contiguous_run(index)
        self._latest[:, at] = [getattr(columns, name) for name in _LATEST]
        ring = self._ring
        thr = columns.throughput_pps
        table = self._agents
        if table is not None:
            restarted = table.restarted
            if restarted.any():
                stale = self._is_agent & restarted[self._slot]
                ring[:, stale] = 0.0
                self._ring_len[stale] = 0
                restarted[:] = False
            has = table.has_state
            if not has.all():
                keep = ~self._is_agent[index] | has[self._slot[index]]
                index, thr = index[keep], thr[keep]
                at = contiguous_run(index)
        ring[:-1, at] = ring[1:, at]
        ring[-1, at] = thr
        self._ring_len[at] = np.minimum(self._ring_len[at] + 1, len(ring))

    def _active_indices(self, now: float) -> np.ndarray:
        """Active *agent* flows in first-seen order (cross-traffic
        competitors are part of the environment, not of the cooperating
        agent population)."""
        order = self._order
        keep = self._is_agent[order] & (self._start[order] <= now) \
            & (now < self._end[order])
        return order[keep]

    def _throughput_moments(self, flows
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and std-dev of each flow's throughput ring: the
        ``LocalStateBlock.avg_throughput_pps`` / ``throughput_std_pps``
        of the same history (``np.mean`` / ``np.std``), bit for bit.

        Below eight entries NumPy sums a vector front to back, which is
        what a column sum down the ring does, and the ring's leading zero
        padding adds exact zeros; a longer history takes NumPy's own
        reductions per flow.  With one entry the deviation is exactly
        zero, the block's ``0.0``; an empty ring (a reset agent that has
        not decided since) has the block's ``0.0`` mean too.  With every
        ring full there is no padding to mask.  ``flows`` indexes the
        flows (a slice for a contiguous run).
        """
        ring = self._ring[:, flows]
        count = self._ring_len[flows]
        history = len(ring)
        if history >= 8:
            rows = [ring[history - c:, j] for j, c in
                    enumerate(count.tolist())]
            return (np.array([np.mean(r) if len(r) else 0.0
                              for r in rows]),
                    np.array([np.std(r) if len(r) >= 2 else 0.0
                              for r in rows]))
        full = np.minimum.reduce(count) == history
        if not full:
            count = np.maximum(count, 1)     # an empty ring is all zeros
        mean = ring.sum(axis=0) / count
        dev = ring - mean
        if not full:
            dev[np.arange(history)[:, None] < history - count] = 0.0
        dev *= dev
        return mean, np.sqrt(dev.sum(axis=0) / count)

    def _state_and_reward(self, active: np.ndarray
                          ) -> tuple[np.ndarray, float | None]:
        """The global state of the ``active`` flows and, unless the
        reward is local, their shared reward: what
        :func:`~repro.core.state.global_state_columns` and
        ``RewardBlock.compute_columns(...).total`` give on the same
        rows, bit for bit, with fewer NumPy calls.

        Every statistic is one 1-D reduction of one row of the latest
        block, shared where the two need the same one; a mean is that
        sum over the count, as ``np.mean`` takes it.  The formulas are
        the ones the column definitions call:
        :func:`~repro.core.state.global_state_from_reductions` and
        ``RewardBlock.terms_from_reductions``.  (Not a 2-D
        ``sum(axis=1)`` over the block: when the rows are strided — a
        transposed or column-major block — NumPy adds across them one
        column at a time, while a 1-D sum of eight or more entries runs
        eight pairwise accumulators, and at 8 flows the two differ in
        the last ulp on most passes.)
        """
        at = contiguous_run(active)
        thr, rtt, loss_pps, pacing, cwnd, loss_rate = self._latest[:, at]
        m = len(active)
        add, low = np.add.reduce, np.minimum.reduce
        thr_sum, thr_min = add(thr), low(thr)
        avg_rtt = add(rtt) / m
        g = global_state_from_reductions(
            thr_sum, thr_min, np.maximum.reduce(thr), avg_rtt, low(cwnd),
            np.maximum.reduce(cwnd), add(cwnd) / m, add(loss_rate) / m, m,
            self.link)
        if self.local_reward is not None:
            return g, None

        avg_thr, thr_std = self._throughput_moments(at)
        return g, self.reward_block.terms_from_reductions(
            thr_sum, thr_min, avg_rtt, thr, avg_thr, thr_std, loss_pps,
            pacing, scratch=self._terms[:, :m]).total

    def _emit(self, now: float, index: np.ndarray, agent: np.ndarray,
              columns: MtpColumns, active: np.ndarray) -> None:
        """One transition per agent of the pass (cross traffic is
        environment, not an agent, and emits none)."""
        agents = index[agent]
        g_now, reward = self._state_and_reward(active)
        if reward is not None:
            rewards = np.full(len(agents), reward)
        else:
            rows = (columns if len(agents) == len(index)
                    else columns.take(np.flatnonzero(agent))).rows()
            rewards = np.array([self.local_reward(s, self.link)
                                for s in rows], dtype=float)
        table = self._agents
        slots = self._slot[agents]
        # An agent with no state yet (e.g. a controller reset out of
        # band) has nothing to pair: its pending tuple is dropped.
        has = table.has_state[slots]
        pending = self._pending
        if not has.all():
            pending[agents[~has]] = False
            agents, slots, rewards = agents[has], slots[has], rewards[has]
        emit = pending[agents]
        k = int(np.count_nonzero(emit))
        if k:
            rows, r = agents[emit], rewards[emit]
            g_prev, s_prev = self._pending_g[rows], self._pending_s[rows]
            a_prev = self._pending_a[rows]
            s_now = table.states[slots[emit]]
            if self.transition_sink is not None:
                for j in range(k):
                    self.transition_sink(now, g_prev[j], s_prev[j],
                                         float(a_prev[j]), float(r[j]),
                                         g_now, s_now[j])
            else:
                self.learner.add_transitions(
                    g_prev, s_prev, a_prev, r,
                    g_now[None, :].repeat(k, axis=0), s_now)
            stats = self.stats
            stats.transitions += k
            stats.reward_count += k
            for value in r.tolist():
                stats.reward_sum += value
        pending[agents] = True
        self._pending_g[agents] = g_now
        self._pending_s[agents] = table.states[slots]
        self._pending_a[agents] = table.actions[slots]


def build_training_controllers(learner, scenario: ScenarioConfig,
                               noise_std: float,
                               initial_cwnds: list[float],
                               episode: int = 0) -> list:
    """One controller per flow: agents for ``astraea``, cross traffic else.

    An agent is an :class:`~repro.core.astraea.AstraeaController` that
    starts at its flow's (randomised) initial window, with slow start,
    probe drain and guards off; the agents share one
    :class:`TrainingPolicy`.  The initial window is randomised so early
    training covers the state space even while exploration noise is too
    small to move the multiplicative window far within one episode.
    ``learner`` only needs ``cfg.seed``, ``cfg.history_length``,
    ``warm`` and ``act_batch`` — a frozen policy snapshot
    (:class:`repro.env.pool.FrozenPolicy`) works as well as the live
    :class:`~repro.core.learner.Learner`.
    """
    from ..cc import create as create_cc

    flows = list(zip(scenario.flows, initial_cwnds))
    agents = [i for i, (f, _) in enumerate(flows) if f.cc == "astraea"]
    # An exploration stream is a pure function of (learner seed,
    # episode, flow index) — NOT of how many controllers this process
    # ever built.  A class-level counter here once made two same-seed
    # runs in one process diverge, and would have broken bit-exact
    # checkpoint resume.
    policy = TrainingPolicy(learner, noise_std, [
        np.random.default_rng([learner.cfg.seed, episode, i])
        for i in agents])
    slots = {i: slot for slot, i in enumerate(agents)}
    return [AstraeaController(
        mtp_s=scenario.mtp_s, policy=policy, slow_start=False,
        probe_rtt=False, guards=False, initial_cwnd=cw, slot=slots[i])
        if i in slots else create_cc(f.cc, **f.cc_kwargs)
        for i, (f, cw) in enumerate(flows)]


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

    ``batched`` selects the column decision: all agents of a pass
    decide in one call around one stacked forward.  ``batched=False``
    runs the driver's per-object reference step instead (one
    ``on_interval`` per flow, see
    :meth:`~repro.env.multiflow.ScenarioDriver.step_collect`); both
    produce bitwise-identical episodes (the contract ``repro bench
    train`` verifies).  Either way the learner buffers the
    pass's transition blocks and writes them into replay at the next
    update burst, and at the end of the episode (on error too).

    ``transition_sink`` forwards transitions to a callable instead of the
    learner's replay buffer (the rollout-worker capture path).
    """
    controllers = build_training_controllers(learner, scenario, noise_std,
                                             initial_cwnds, episode=episode)
    observer = Observer(learner, scenario.link, scenario.flows,
                        controllers, reward_config=reward_config,
                        local_reward=local_reward, do_updates=do_updates,
                        transition_sink=transition_sink)
    driver = build_driver(scenario, controllers=controllers,
                          on_step=observer, align_intervals=True,
                          log=False)
    learner.reset_update_clock()
    try:
        if batched:
            while driver.step_block():
                pass
        else:
            while (due := driver.step_collect()) is not None:
                for rf, stats in due:
                    driver.finish_flow(rf, stats,
                                       rf.controller.on_interval(stats))
                now = driver.now
                observer(now, [rf for rf, _ in due], MtpColumns.of(
                    now, [s for _, s in due]) if due else None)
    finally:
        learner.flush_transitions()
    return observer.stats
