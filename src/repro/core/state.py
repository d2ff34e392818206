"""State block (§3.3): local per-flow features and the global state.

The local state contains the eight normalised statistics the paper lists,
computed per MTP and stacked over a ``w``-deep history (Table 4: w=5).
All ratios are normalised so the agent sees similar inputs across network
conditions; the raw maximum-throughput and minimum-latency features are
kept (scaled to O(1) units) so the agent can still discriminate network
characteristics — e.g. act more conservatively on high-RTT links.

The global state follows Table 2 exactly: aggregated throughput / latency /
cwnd statistics across all active flows plus the link's base delay, buffer
size and bandwidth.  It is consumed only by the centralised critic during
training and never by the deployed policy.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..config import HISTORY_LENGTH, LinkConfig
from ..errors import ModelError
from ..netsim.stats import MtpColumns, MtpStats
from ..units import mbps_to_pps, pps_to_mbps

LOCAL_FEATURES = 8
GLOBAL_FEATURES = 12

# Scales that bring raw quantities to O(1); shared by training & inference.
_THR_MAX_SCALE_MBPS = 200.0
_LAT_SCALE_S = 0.2
_NUM_FLOW_SCALE = 10.0
_BUFFER_BDP_SCALE = 8.0
_RATIO_CLIP = 6.0


def local_feature_vector(stats: MtpStats, thr_max_pps: float,
                         lat_min_s: float) -> np.ndarray:
    """The eight per-MTP local features of §3.3."""
    thr_max = max(thr_max_pps, 1e-6)
    lat_min = max(lat_min_s, 1e-6)
    bdp_est = max(thr_max * lat_min, 1e-6)
    features = np.array([
        stats.throughput_pps / thr_max,                       # thr ratio
        pps_to_mbps(thr_max) / _THR_MAX_SCALE_MBPS,           # thr_max (raw)
        stats.avg_rtt_s / lat_min,                            # latency ratio
        lat_min / _LAT_SCALE_S,                               # lat_min (raw)
        stats.cwnd_pkts / bdp_est,                            # relative cwnd
        stats.loss_pps / thr_max,                             # loss ratio
        stats.pkts_in_flight / max(stats.cwnd_pkts, 1.0),     # inflight ratio
        stats.pacing_pps / thr_max,                           # pacing ratio
    ])
    return np.clip(features, 0.0, _RATIO_CLIP)


def local_feature_columns(columns: MtpColumns, thr_max_pps: np.ndarray,
                          lat_min_s: np.ndarray, out: np.ndarray) -> None:
    """:func:`local_feature_vector` of many flows into the ``(8, k)``
    ``out``: the same expressions in the same order, elementwise."""
    thr_max = np.maximum(thr_max_pps, 1e-6)
    lat_min = np.maximum(lat_min_s, 1e-6)
    bdp_est = np.maximum(thr_max * lat_min, 1e-6)
    # Every feature is one quotient: one divide over the stacked rows.
    divisors = np.array([thr_max, thr_max, lat_min, lat_min, bdp_est,
                         thr_max, np.maximum(columns.cwnd_pkts, 1.0),
                         thr_max])
    divisors[1] = _THR_MAX_SCALE_MBPS
    divisors[3] = _LAT_SCALE_S
    np.divide(
        [columns.throughput_pps, pps_to_mbps(thr_max), columns.avg_rtt_s,
         lat_min, columns.cwnd_pkts, columns.loss_pps,
         columns.pkts_in_flight, columns.pacing_pps], divisors, out=out)
    out.clip(0.0, _RATIO_CLIP, out=out)


class LocalStateBlock:
    """Per-flow feature extractor with a ``w``-deep history stack.

    Tracks the flow's historical maximum throughput and minimum latency,
    produces the 8-feature vector per MTP, and stacks the last ``w``
    vectors as the model input (dimension ``8 * w``).
    """

    def __init__(self, history: int = HISTORY_LENGTH):
        if history <= 0:
            raise ModelError("history length must be positive")
        self.history = history
        self.reset()

    @property
    def input_dim(self) -> int:
        return LOCAL_FEATURES * self.history

    def reset(self) -> None:
        self._frames: deque[np.ndarray] = deque(maxlen=self.history)
        self.thr_max_pps = 0.0
        self.lat_min_s = float("inf")
        self.thr_history_pps: deque[float] = deque(maxlen=self.history)

    def update(self, stats: MtpStats) -> np.ndarray:
        """Fold one MTP of statistics; returns the stacked input vector."""
        self.thr_max_pps = max(self.thr_max_pps, stats.throughput_pps)
        self.lat_min_s = min(self.lat_min_s, stats.min_rtt_s)
        if self.lat_min_s == float("inf") or self.lat_min_s <= 0:
            self.lat_min_s = max(stats.srtt_s, 1e-3)
        self.thr_history_pps.append(stats.throughput_pps)
        frame = local_feature_vector(stats, self.thr_max_pps, self.lat_min_s)
        self._frames.append(frame)
        return self.input_vector()

    @staticmethod
    def update_columns(columns: MtpColumns, thr_max_pps: np.ndarray,
                       lat_min_s: np.ndarray, frames: np.ndarray,
                       thr_history_pps: np.ndarray,
                       depth: np.ndarray) -> None:
        """:meth:`update` of ``k`` blocks held as columns, in place.

        ``frames`` is the ``(8 * history, k)`` stack, oldest frame first,
        whose column is :meth:`input_vector` (zero rows where it pads);
        ``thr_history_pps`` is ``(history, k)``, oldest first; ``depth``
        counts the real frames.
        """
        np.maximum(thr_max_pps, columns.throughput_pps, out=thr_max_pps)
        np.minimum(lat_min_s, columns.min_rtt_s, out=lat_min_s)
        unset = (lat_min_s == np.inf) | (lat_min_s <= 0)
        if np.count_nonzero(unset):
            lat_min_s[unset] = np.maximum(columns.srtt_s[unset], 1e-3)
        thr_history_pps[:-1] = thr_history_pps[1:]
        thr_history_pps[-1] = columns.throughput_pps
        frames[:-LOCAL_FEATURES] = frames[LOCAL_FEATURES:]
        local_feature_columns(columns, thr_max_pps, lat_min_s,
                              frames[-LOCAL_FEATURES:])
        np.minimum(depth + 1.0, len(thr_history_pps), out=depth)

    def input_vector(self) -> np.ndarray:
        """Current stacked history, zero-padded on the left if young."""
        frames = list(self._frames)
        pad = self.history - len(frames)
        if pad > 0:
            frames = [np.zeros(LOCAL_FEATURES)] * pad + frames
        return np.concatenate(frames)

    def avg_throughput_pps(self) -> float:
        """Mean throughput over the last ``w`` MTPs (Eq. 7)."""
        if not self.thr_history_pps:
            return 0.0
        return float(np.mean(self.thr_history_pps))

    def throughput_std_pps(self) -> float:
        """Std-dev of throughput over the last ``w`` MTPs (for R_stab)."""
        if len(self.thr_history_pps) < 2:
            return 0.0
        return float(np.std(self.thr_history_pps))


def global_state_vector(flow_stats: list[MtpStats], link: LinkConfig,
                        ) -> np.ndarray:
    """The Table 2 global state, normalised to O(1) features.

    ``flow_stats`` holds the most recent MTP record of every active flow.
    """
    return global_state_columns(
        np.array([s.throughput_pps for s in flow_stats]),
        np.array([s.avg_rtt_s for s in flow_stats]),
        np.array([s.cwnd_pkts for s in flow_stats]),
        np.array([s.loss_rate for s in flow_stats]), link)


def global_state_columns(thr_pps: np.ndarray, avg_rtt_s: np.ndarray,
                         cwnd_pkts: np.ndarray, loss_rate: np.ndarray,
                         link: LinkConfig) -> np.ndarray:
    """:func:`global_state_vector` from the active flows' latest
    throughput, latency, window and loss-rate columns (one entry per
    flow, in the flows' order: the sums are order-dependent)."""
    c_pps = mbps_to_pps(link.bandwidth_mbps)
    bdp = max(c_pps * link.rtt_s, 1e-6)
    n = len(thr_pps)
    if not n:
        thr_pps = avg_rtt_s = cwnd_pkts = loss_rate = np.zeros(1)
    vec = np.array([
        thr_pps.sum() / c_pps,                                # ovr_thr
        thr_pps.min() / c_pps,                                # min_thr
        thr_pps.max() / c_pps,                                # max_thr
        min(avg_rtt_s.mean() / link.rtt_s, _RATIO_CLIP),      # avg_lat
        cwnd_pkts.min() / bdp,                                # min_cwnd
        cwnd_pkts.max() / bdp,                                # max_cwnd
        cwnd_pkts.mean() / bdp,                               # avg_cwnd
        loss_rate.mean(),                                     # loss_ratio
        n / _NUM_FLOW_SCALE,                                  # num_flow
        link.one_way_delay_s / (_LAT_SCALE_S / 2.0),          # d0
        link.buffer_size_packets / bdp / _BUFFER_BDP_SCALE,   # buf
        link.bandwidth_mbps / _THR_MAX_SCALE_MBPS,            # c
    ])
    return np.clip(vec, 0.0, _RATIO_CLIP)
