"""The Astraea congestion controller (deployment-phase agent).

Each flow loads one RL agent with the trained policy and performs pure
local inference: per MTP the state block folds the newest packet
statistics, the actor maps the stacked local state to an action, and the
action block turns it into the next congestion window with pacing
``cwnd / sRTT``.  No global information is used at deployment (§3.1).

If no trained bundle is supplied and none shipped is usable — absent,
corrupt, or schema-invalid, per the fallback chain of
:func:`repro.core.policy.load_default_policy` — the controller falls
back to the analytic reference policy (:mod:`repro.core.reference`), which
has the same state -> action structure the trained model learns (Fig. 17);
benchmarks report which backend was used.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from ..cc.base import ColumnController, Decision, register, rows_where
from ..config import ACTION_ALPHA, HISTORY_LENGTH, MTP_S
from ..errors import ModelError
from ..netsim.stats import MtpColumns, MtpStats
from .action import apply_action, apply_action_columns, \
    pacing_from_cwnd
from .policy import PolicyBundle, resolve_policy
from .state import LocalStateBlock, column_rows


@register("astraea")
class AstraeaController(ColumnController):
    """Astraea in inference mode: local state -> actor -> Eq. 3 window.

    :meth:`on_interval` is the definition.  With a trained bundle it is
    also a column controller: a driver decides every due flow of one
    bundle in one :meth:`decide_columns` call, around one stacked
    forward.
    """

    SLOW_START_GROWTH = 1.5
    SLOW_START_BACKLOG_EXIT = 10.0   # packets queued before handover
    SLOW_START_LOSS_EXIT = 0.01
    PROBE_INTERVAL_S = 5.0           # periodic drain cadence
    PROBE_INTERVALS = 3              # drain duration in MTPs
    IDLE_RATIO = 1.05                # below this latency ratio the path is
                                     # congestion-free: never decrease
    IDLE_ACTION = 0.5
    BLOAT_RATIO = 3.0                # above this ratio, always back off
    BLOAT_ACTION = -0.5
    RTT_WINDOW_S = 10.0

    #: The scalar rows of the column state.  The state block's column
    #: (:meth:`LocalStateBlock.read_column`) and the guard's RTT ring
    #: (``ring`` rows of sample times, then ``ring`` of values) follow;
    #: ``ring_next`` is the ring's write slot.
    STATE = ("cwnd", "_in_slow_start", "_rtt_min", "_next_probe_s",
             "_drain_left", "ring_next", "alpha", "use_pacing",
             "probe_rtt_enabled", "guards_enabled")

    def __init__(self, mtp_s: float = MTP_S,
                 policy: PolicyBundle | str | None = None,
                 alpha: float | None = None,
                 history: int = HISTORY_LENGTH,
                 use_pacing: bool = True,
                 slow_start: bool = True,
                 probe_rtt: bool = True,
                 guards: bool = True):
        super().__init__(mtp_s)
        self.slow_start_enabled = slow_start
        self.probe_rtt_enabled = probe_rtt
        self.guards_enabled = guards
        # None resolves through the default fallback chain: shipped bundle
        # -> shipped alternates -> the analytic reference (below).  A
        # corrupt shipped bundle therefore degrades with a warning instead
        # of crashing construction; an explicit path raises typed errors.
        self.policy = policy = resolve_policy(policy, "astraea")
        if policy is not None:
            history = policy.history
            alpha = alpha if alpha is not None else policy.alpha
        self.alpha = alpha if alpha is not None else ACTION_ALPHA
        if not 0 < self.alpha < 1:
            # apply_action's check, at construction instead of at the
            # first decision after slow start.
            raise ModelError(f"alpha must lie in (0, 1), got {self.alpha}")
        self.use_pacing = use_pacing
        self._fallback = None
        if self.policy is None:
            from .reference import AstraeaReference

            self._fallback = AstraeaReference(mtp_s=mtp_s, alpha=self.alpha)
        self.state_block = LocalStateBlock(history=history)
        self.reset()

    @property
    def backend(self) -> str:
        """``"model"`` when a trained bundle drives decisions."""
        return "model" if self.policy is not None else "reference"

    def reset(self) -> None:
        self.state_block.reset()
        self.cwnd = self.initial_cwnd
        self._in_slow_start = self.slow_start_enabled
        self._rtt_min = float("inf")
        self._rtt_samples: deque[tuple[float, float]] = deque()
        self._next_probe_s: float | None = None
        self._drain_left = 0
        if self._fallback is not None:
            self._fallback.reset()

    def _windowed_rtt_min(self, now: float, sample: float) -> float:
        """Sliding-window minimum RTT for the deployment guards.

        A monotonic deque: a sample is dropped as soon as a newer one is
        no larger (it can never be the minimum again) or once it leaves
        the window, so the front is always the window minimum — the same
        float a scan of the whole window returns, in amortised O(1).
        ``now`` must not decrease between calls.
        """
        samples = self._rtt_samples
        while samples and samples[-1][1] >= sample:
            samples.pop()
        samples.append((now, sample))
        horizon = now - self.RTT_WINDOW_S
        while samples[0][0] < horizon:
            samples.popleft()
        return samples[0][1]

    def _guarded(self, action: float, stats: MtpStats) -> float:
        """Deployment guard rails around the raw policy action.

        Two standard kernel-datapath safety rules, each active only where
        *any* congestion controller's correct response is unambiguous:

        * idle guard — base-RTT latency and no loss means the path carries
          no congestion signal at all; decreasing there only wastes
          capacity (the failure mode of a policy extrapolating far outside
          its training envelope, e.g. a 10 Gbps or 800 ms path).
        * bufferbloat guard — latency several times the observed floor
          must trigger back-off regardless of what the model says.

        Inside the normal operating band the policy's action passes
        through untouched, so fairness/convergence dynamics are the
        model's own.  Disable with ``guards=False`` (EXPERIMENTS.md notes
        which appendix scenarios rely on them).
        """
        if not self.guards_enabled:
            return action
        rtt_min = self._windowed_rtt_min(stats.time_s, stats.min_rtt_s)
        ratio = stats.avg_rtt_s / max(rtt_min, 1e-9)
        if ratio < self.IDLE_RATIO and stats.loss_rate < 0.01:
            return max(action, self.IDLE_ACTION)
        if ratio > self.BLOAT_RATIO:
            return min(action, self.BLOAT_ACTION)
        return action

    def _probe_action(self, now: float) -> float | None:
        """Periodic short drain (the role BBR's PROBE_RTT plays).

        A standing queue biases every flow's minimum-latency observation —
        a late joiner can only measure the true base RTT when the queue
        empties — and biased observations are what let competing flows
        settle into a stable-but-unfair split.  Every few seconds the
        controller briefly sheds window so the bottleneck drains and the
        state block's latency floor refreshes.  This deployment-side
        mechanism is a reproduction addition (documented in
        EXPERIMENTS.md); disable with ``probe_rtt=False`` to see the raw
        policy's asymptotic behaviour.
        """
        if not self.probe_rtt_enabled:
            return None
        if self._next_probe_s is None:
            self._next_probe_s = now + self.PROBE_INTERVAL_S
        if now >= self._next_probe_s:
            self._drain_left = self.PROBE_INTERVALS
            self._next_probe_s = now + self.PROBE_INTERVAL_S
        if self._drain_left > 0:
            self._drain_left -= 1
            return -1.0
        return None

    def _slow_start_step(self, stats: MtpStats) -> Decision | None:
        """Kernel-TCP-style ramp before the agent takes over (§4).

        Returns the slow-start decision, or ``None`` once handed over.
        """
        self._rtt_min = min(self._rtt_min, stats.min_rtt_s)
        rtt = max(stats.avg_rtt_s, self._rtt_min, 1e-6)
        backlog = stats.cwnd_pkts * (1.0 - self._rtt_min / rtt)
        if backlog > self.SLOW_START_BACKLOG_EXIT \
                or stats.loss_rate > self.SLOW_START_LOSS_EXIT:
            self._in_slow_start = False
            self.cwnd = max(self.cwnd / self.SLOW_START_GROWTH, 2.0)
            return None
        # ACK-clocked growth: at most one packet per delivered ACK.
        self.cwnd = min(self.cwnd * self.SLOW_START_GROWTH,
                        self.cwnd + max(stats.delivered_pkts, 1.0))
        return self._decision(stats)

    def _decision(self, stats: MtpStats) -> Decision:
        """The current window, paced at ``cwnd / sRTT``."""
        pacing = pacing_from_cwnd(self.cwnd, max(stats.srtt_s, 1e-6)) \
            if self.use_pacing else None
        return Decision(cwnd_pkts=self.cwnd, pacing_pps=pacing)

    def _apply(self, action: float, stats: MtpStats) -> Decision:
        """Eq. 3 window update for ``action``."""
        self.cwnd = apply_action(self.cwnd, action, self.alpha)
        return self._decision(stats)

    def on_interval(self, stats: MtpStats) -> Decision:
        """Fold ``stats``; the reference backend, a slow-start step or a
        probe drain decide alone, else the policy's guarded action."""
        if self._fallback is not None:
            decision = self._fallback.on_interval(stats)
            self.cwnd = decision.cwnd_pkts
            return decision
        state = self.state_block.update(stats)
        if self._in_slow_start:
            decision = self._slow_start_step(stats)
            if decision is not None:
                return decision
        action = self._probe_action(stats.time_s)
        if action is None:
            action = self._guarded(self.policy.act(state), stats)
        return self._apply(action, stats)

    # -- columns -----------------------------------------------------------

    def column_key(self) -> tuple | None:
        """``None`` for the reference backend: no forward to decide
        around."""
        if self.policy is None:
            return None
        return (type(self), id(self.policy), self.state_block.history,
                self.mtp_s)

    def _ring_size(self) -> int:
        """Guard samples one RTT window can hold: a driver's decisions
        are at least one MTP apart."""
        return math.ceil(self.RTT_WINDOW_S / self.mtp_s) + 2

    def state_rows(self) -> int:
        return len(self.STATE) + column_rows(self.state_block.history) \
            + 2 * self._ring_size()

    @classmethod
    def _blocks(cls, state: np.ndarray, history: int):
        """The state block's column, the ring times and the ring values
        of a state column (or block of columns)."""
        lo = len(cls.STATE)
        hi = lo + column_rows(history)
        ring = (len(state) - hi) // 2
        return state[lo:hi], state[hi:hi + ring], state[hi + ring:]

    def read_state(self) -> np.ndarray:
        ring = self._ring_size()
        samples = self._rtt_samples
        if len(samples) > ring:
            raise ModelError(f"{len(samples)} windowed RTT samples do not "
                             f"fit a ring of {ring}")
        values = np.zeros(self.state_rows())
        values[:len(self.STATE)] = (
            self.cwnd, self._in_slow_start, self._rtt_min,
            np.nan if self._next_probe_s is None else self._next_probe_s,
            self._drain_left, len(samples) % ring, self.alpha,
            self.use_pacing, self.probe_rtt_enabled, self.guards_enabled)
        block, times, rtts = self._blocks(values, self.state_block.history)
        block[:] = self.state_block.read_column()
        times[:] = -np.inf
        rtts[:] = np.inf
        for slot, (t, rtt) in enumerate(samples):
            times[slot], rtts[slot] = t, rtt
        return values

    def write_state(self, values) -> None:
        """Hand a state column back: the state block as the scalar
        leaves it, the RTT deque as the ring's in-window suffix minima."""
        values = np.asarray(values, dtype=float)
        # The switches (alpha, pacing, probe, guards) never change.
        (self.cwnd, slow, self._rtt_min, next_probe, drain, ring_next,
         *_) = values[:len(self.STATE)].tolist()
        self._in_slow_start = bool(slow)
        self._next_probe_s = None if math.isnan(next_probe) else next_probe
        self._drain_left = int(drain)
        block, times, rtts = self._blocks(values, self.state_block.history)
        self.state_block.write_column(block)
        # Oldest first; never-written slots (time -inf) lead.  The deque
        # keeps the newest sample and, going back, each sample below
        # every later one, inside the newest sample's window.
        order = np.roll(np.arange(len(times)), -int(ring_next))
        times, rtts = times[order].tolist(), rtts[order].tolist()
        horizon = times[-1] - self.RTT_WINDOW_S
        kept = []
        for t, rtt in zip(reversed(times), reversed(rtts)):
            if t < horizon or t == -math.inf:
                break
            if not kept or rtt < kept[-1][1]:
                kept.append((t, rtt))
        self._rtt_samples.clear()
        self._rtt_samples.extend(reversed(kept))

    @classmethod
    def decide_columns(cls, state: np.ndarray, columns: MtpColumns,
                       policy: PolicyBundle
                       ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`on_interval` of many flows around one stacked forward.

        Each branch of :meth:`on_interval` — a slow-start step or the
        handover, the probe's first call, firing and draining, the
        policy's action through the guard's idle, bloat or pass — is a
        row set taken from the state the interval found, with every
        expression in the scalar's order.
        The policy acts once, through the row-exact ``act_batch``, on
        the rows that need an action from it.  The guard's windowed
        minimum is a masked minimum over the RTT ring; a minimum is
        exact, so it is the monotonic deque's front.
        """
        (cwnd, slow, rtt_min, next_probe, drain, ring_next, alpha,
         use_pacing, probe_rtt, guards) = state[:len(cls.STATE)]
        block, times, rtts = cls._blocks(state, policy.history)
        stack = LocalStateBlock.update_columns(columns, block)
        now = columns.time_s
        every = slice(None)
        # Rows whose decision ends in an action: all but slow-start steps
        # (a mask, or ``every``).
        acting = every
        sel = rows_where(slow != 0)
        if sel is not None:
            rtt_min[sel] = np.minimum(rtt_min[sel], columns.min_rtt_s[sel])
            low = rtt_min[sel]
            rtt = np.maximum(np.maximum(columns.avg_rtt_s[sel], low), 1e-6)
            backlog = columns.cwnd_pkts[sel] * (1.0 - low / rtt)
            leave = (backlog > cls.SLOW_START_BACKLOG_EXIT) \
                | (columns.loss_rate[sel] > cls.SLOW_START_LOSS_EXIT)
            w = cwnd[sel]
            cwnd[sel] = np.where(
                leave, np.maximum(w / cls.SLOW_START_GROWTH, 2.0),
                np.minimum(w * cls.SLOW_START_GROWTH,
                           w + np.maximum(columns.delivered_pkts[sel], 1.0)))
            slow[sel] = ~leave
            acting = slow == 0

        # The probe's rows: a first call, a firing or a drain.
        action = np.empty(len(cwnd))
        asking = acting            # rows that ask the policy
        probe = (drain > 0) | ~(next_probe > now)
        if acting is not every:
            probe &= acting
        if np.count_nonzero(probe):
            probe &= probe_rtt != 0
        if np.count_nonzero(probe):
            p = next_probe[probe]
            p[np.isnan(p)] = now + cls.PROBE_INTERVAL_S
            fire = now >= p
            p[fire] = now + cls.PROBE_INTERVAL_S
            left = np.where(fire, cls.PROBE_INTERVALS, drain[probe])
            next_probe[probe] = p
            draining = probe.copy()
            draining[probe] = left > 0
            drain[probe] = np.where(left > 0, left - 1.0, left)
            action[draining] = -1.0
            asking = ~draining if acting is every else acting & ~draining

        sel = every if asking is every else rows_where(asking)
        if sel is not None:
            # The stacked forward needs rows laid out as act() sees them.
            action[sel] = policy.act_batch(
                np.ascontiguousarray(stack[:, sel].T))
            guarded = guards != 0
            sel = rows_where(guarded if asking is every
                             else guarded & asking)
        if sel is not None:
            flows = np.arange(len(cwnd)) if isinstance(sel, slice) else sel
            slot = ring_next[sel].astype(np.intp)
            times[slot, flows] = now
            rtts[slot, flows] = columns.min_rtt_s[sel]
            ring_next[sel] = (slot + 1) % len(times)
            floor = np.minimum.reduce(
                rtts[:, sel], axis=0, initial=np.inf,
                where=times[:, sel] >= now - cls.RTT_WINDOW_S)
            ratio = columns.avg_rtt_s[sel] / np.maximum(floor, 1e-9)
            # Idle and bloat exclude each other (ratio < 1.05 vs > 3).
            a = action[sel]
            idle = ratio < cls.IDLE_RATIO
            if np.count_nonzero(idle):
                idle &= columns.loss_rate[sel] < 0.01
                np.maximum(a, cls.IDLE_ACTION, out=a, where=idle)
            np.minimum(a, cls.BLOAT_ACTION, out=a,
                       where=ratio > cls.BLOAT_RATIO)
            action[sel] = a

        sel = every if acting is every else rows_where(acting)
        if sel is not None:
            cwnd[sel] = apply_action_columns(cwnd[sel], action[sel],
                                             alpha[sel])
        pacing = np.where(use_pacing != 0,
                          cwnd / np.maximum(columns.srtt_s, 1e-6), np.inf)
        return cwnd, pacing
