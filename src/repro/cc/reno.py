"""TCP Reno: slow start plus AIMD congestion avoidance."""

from __future__ import annotations

import numpy as np

from ..netsim.stats import MtpColumns, MtpStats
from .base import ColumnController, Decision, register, rows_where


@register("reno")
class Reno(ColumnController):
    """Classic loss-based AIMD.

    Per interval the window grows by one packet per ``cwnd`` acked packets
    in congestion avoidance (doubling per RTT in slow start) and halves on
    a loss event, with a one-RTT recovery cooldown so a single congestion
    episode is not punished repeatedly.
    """

    MIN_CWND = 2.0

    STATE = ("cwnd", "ssthresh", "_recovery_until")

    def __init__(self, mtp_s: float = 0.030):
        super().__init__(mtp_s)
        self.reset()

    def reset(self) -> None:
        self.cwnd = self.initial_cwnd
        self.ssthresh = float("inf")
        self._recovery_until = -1.0

    def on_interval(self, stats: MtpStats) -> Decision:
        now = stats.time_s
        if stats.lost_pkts > 0 and now >= self._recovery_until:
            self.ssthresh = max(self.cwnd / 2.0, self.MIN_CWND)
            self.cwnd = self.ssthresh
            self._recovery_until = now + stats.srtt_s
        else:
            acked = stats.delivered_pkts
            if self.cwnd < self.ssthresh:
                # Slow start: one packet per ACK.
                self.cwnd = min(self.cwnd + acked, self.ssthresh)
            else:
                # Congestion avoidance: one packet per window per RTT.
                self.cwnd += acked / max(self.cwnd, 1.0)
        return Decision(cwnd_pkts=self.cwnd)

    @classmethod
    def decide_columns(cls, state: np.ndarray, columns: MtpColumns,
                       policy) -> tuple[np.ndarray, None]:
        """:meth:`on_interval` of many flows, branch by branch."""
        cwnd, ssthresh, recovery = state
        now = columns.time_s
        acked = columns.delivered_pkts
        loss = (columns.lost_pkts > 0) & (now >= recovery)
        slow = ~loss & (cwnd < ssthresh)
        avoid = rows_where(~(loss | slow))
        loss, slow = rows_where(loss), rows_where(slow)

        if loss is not None:
            cwnd[loss] = ssthresh[loss] = \
                np.maximum(cwnd[loss] / 2.0, cls.MIN_CWND)
            recovery[loss] = now + columns.srtt_s[loss]
        if slow is not None:
            cwnd[slow] = np.minimum(cwnd[slow] + acked[slow], ssthresh[slow])
        if avoid is not None:
            cw = cwnd[avoid]
            cwnd[avoid] = cw + acked[avoid] / np.maximum(cw, 1.0)
        return cwnd, None
