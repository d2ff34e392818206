"""TCP CUBIC (RFC 8312-style window growth)."""

from __future__ import annotations

import numpy as np

from ..netsim.stats import MtpColumns, MtpStats
from .base import ColumnController, Decision, py_pow, register, rows_where


@register("cubic")
class Cubic(ColumnController):
    """CUBIC: time-based cubic window growth around the last-loss window.

    On a loss event the window is reduced by the multiplicative factor
    ``BETA`` and a new cubic epoch starts; between losses the window follows
    ``W(t) = C (t - K)^3 + W_max`` with the standard TCP-friendly floor.
    """

    C = 0.4              # cubic scaling constant (packets/s^3)
    BETA = 0.7           # multiplicative decrease factor
    MIN_CWND = 2.0
    ECN_MARK_THRESHOLD = 0.01

    STATE = ("cwnd", "ssthresh", "_w_max", "_k", "_epoch_start",
             "_recovery_until", "ecn")

    def __init__(self, mtp_s: float = 0.030, ecn: bool = False):
        super().__init__(mtp_s)
        self.ecn = ecn
        self.reset()

    def reset(self) -> None:
        self.cwnd = self.initial_cwnd
        self.ssthresh = float("inf")
        self._w_max = 0.0
        self._k = 0.0
        self._epoch_start = -1.0
        self._recovery_until = -1.0

    def _enter_loss(self, now: float, srtt: float) -> None:
        self._w_max = self.cwnd
        self.cwnd = max(self.cwnd * self.BETA, self.MIN_CWND)
        self.ssthresh = self.cwnd
        self._k = ((self._w_max * (1.0 - self.BETA)) / self.C) ** (1.0 / 3.0)
        self._epoch_start = now
        self._recovery_until = now + srtt

    def on_interval(self, stats: MtpStats) -> Decision:
        now = stats.time_s
        srtt = stats.srtt_s
        # ECN-capable CUBIC (RFC 3168 semantics): a marked window triggers
        # the same multiplicative decrease as a loss, without losing data.
        congested = stats.lost_pkts > 0 or \
            (self.ecn and stats.mark_rate > self.ECN_MARK_THRESHOLD)
        if congested and now >= self._recovery_until:
            self._enter_loss(now, srtt)
            return Decision(cwnd_pkts=self.cwnd)

        if self.cwnd < self.ssthresh:
            self.cwnd = min(self.cwnd + stats.delivered_pkts, self.ssthresh)
            return Decision(cwnd_pkts=self.cwnd)

        if self._epoch_start < 0:
            # No loss yet: keep a fresh epoch anchored at the current window.
            self._epoch_start = now
            self._w_max = self.cwnd
            self._k = 0.0
        t = now - self._epoch_start
        target = self.C * (t + srtt - self._k) ** 3 + self._w_max
        # TCP-friendly region: never slower than an equivalent AIMD flow.
        w_tcp = (self._w_max * self.BETA
                 + 3.0 * (1.0 - self.BETA) / (1.0 + self.BETA) * t / max(srtt, 1e-6))
        target = max(target, w_tcp)
        if target > self.cwnd:
            # Approach the cubic target, at most doubling per RTT.
            growth = (target - self.cwnd) * min(1.0, stats.duration_s / max(srtt, 1e-6))
            self.cwnd = min(self.cwnd + max(growth, 0.0), self.cwnd * 1.5 + 1.0)
        self.cwnd = max(self.cwnd, self.MIN_CWND)
        return Decision(cwnd_pkts=self.cwnd)

    @classmethod
    def decide_columns(cls, state: np.ndarray, columns: MtpColumns,
                       policy) -> tuple[np.ndarray, None]:
        """:meth:`on_interval` of many flows: one row set per branch,
        each taken from the state the interval found, and every
        expression in the scalar's evaluation order."""
        cwnd, ssthresh, w_max, k, epoch, recovery, ecn = state
        now = columns.time_s
        srtt = columns.srtt_s
        congested = columns.lost_pkts > 0
        if np.count_nonzero(ecn):
            congested |= (ecn != 0) \
                & (columns.mark_rate > cls.ECN_MARK_THRESHOLD)
        loss = congested & (now >= recovery) \
            if np.count_nonzero(congested) else None
        slow = cwnd < ssthresh
        avoid = ~slow
        if loss is not None:
            slow &= ~loss
            avoid &= ~loss
            loss = rows_where(loss)
        slow, avoid = rows_where(slow), rows_where(avoid)

        if loss is not None:
            w_max[loss] = cwnd[loss]
            w = w_max[loss]
            cwnd[loss] = ssthresh[loss] = np.maximum(w * cls.BETA,
                                                     cls.MIN_CWND)
            k[loss] = py_pow(w * (1.0 - cls.BETA) / cls.C, 1.0 / 3.0)
            epoch[loss] = now
            recovery[loss] = now + srtt[loss]
        if slow is not None:
            cwnd[slow] = np.minimum(
                cwnd[slow] + columns.delivered_pkts[slow], ssthresh[slow])
        if avoid is not None:
            fresh = epoch[avoid] < 0
            if np.count_nonzero(fresh):
                # No loss yet: a fresh epoch anchored at the window.
                epoch[avoid] = np.where(fresh, now, epoch[avoid])
                w_max[avoid] = np.where(fresh, cwnd[avoid], w_max[avoid])
                k[avoid] = np.where(fresh, 0.0, k[avoid])
            cw, wm, s = cwnd[avoid], w_max[avoid], srtt[avoid]
            t = now - epoch[avoid]
            s_floor = np.maximum(s, 1e-6)
            target = np.maximum(
                cls.C * py_pow(t + s - k[avoid], 3) + wm,
                wm * cls.BETA
                + 3.0 * (1.0 - cls.BETA) / (1.0 + cls.BETA) * t / s_floor)
            growth = (target - cw) * np.minimum(
                columns.duration_s[avoid] / s_floor, 1.0)
            cwnd[avoid] = np.maximum(
                np.where(target > cw,
                         np.minimum(cw + np.maximum(growth, 0.0),
                                    cw * 1.5 + 1.0),
                         cw),
                cls.MIN_CWND)
        return cwnd, None
