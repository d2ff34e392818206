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

from collections import deque

import numpy as np

from ..cc.base import Decision, TwoPhaseController, register
from ..config import ACTION_ALPHA, HISTORY_LENGTH, MTP_S
from ..netsim.stats import MtpStats
from .action import apply_action, pacing_from_cwnd
from .policy import PolicyBundle, resolve_policy
from .state import LocalStateBlock


@register("astraea")
class AstraeaController(TwoPhaseController):
    """Astraea in inference mode: local state -> actor -> Eq. 3 window."""

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

    def begin_interval(self, stats: MtpStats) -> Decision | np.ndarray:
        """First half of a decision: everything that needs no policy.

        Folds ``stats`` into the state block and returns either a
        finished :class:`Decision` — the reference backend, a slow-start
        step, a probe-drain interval — or the stacked local state the
        policy must act on.  In the second case the caller owes one
        :meth:`finish_interval` with that state's action; a driver may
        compute the actions of every due flow in one stacked
        :meth:`PolicyBundle.act_batch` call in between.
        """
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
        if action is not None:
            return self._apply(action, stats)
        return state

    def finish_interval(self, stats: MtpStats, action: float) -> Decision:
        """Second half: guard the policy's ``action`` for the state
        :meth:`begin_interval` returned, then apply it."""
        return self._apply(self._guarded(action, stats), stats)

    # The base class's composition, bound in this class's own namespace
    # so per-scheme instrumentation (the perf ledger's ``cc.on_interval``
    # span) finds it here like every other scheme's.
    on_interval = TwoPhaseController.on_interval
