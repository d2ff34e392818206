"""Reward block (§3.3): the global reward of Eqs. 4-8.

The reward is computed centrally from the latest MTP statistics of *all*
active flows — this is what makes fairness and stability directly
optimisable.  Terms:

* ``R_thr`` (Eq. 4): aggregate throughput over link capacity.
* ``R_loss`` (Eq. 4): mean per-flow loss-to-throughput ratio.
* ``R_lat`` (Eq. 5): latency inflation beyond a ``(1+beta)`` tolerance of
  the base delay, weighted by the aggregate pacing rate so that pushing
  traffic into an already-inflated queue is what gets punished.  Normalised
  by the link BDP so the term is dimensionless across conditions.
* ``R_fair`` (Eq. 6): std-dev of per-flow *average* throughputs (averaged
  over the last ``w`` MTPs, Eq. 7), normalised by the total — zero at the
  fair point and, unlike the Jain index, still sensitive near it (Fig. 4).
* ``R_stab`` (Eq. 6): mean per-flow coefficient of variation of throughput
  over the ``w``-MTP history.

The total (Eq. 8) is a linear combination with the Table 4 coefficients,
bounded to ``(-0.1, 0.1)`` per MTP.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..config import LinkConfig, RewardConfig
from ..errors import ModelError
from ..units import mbps_to_pps


@dataclass(frozen=True)
class FlowSnapshot:
    """Per-flow inputs to the reward at one global step.

    ``avg_thr_pps`` and ``thr_std_pps`` are computed over the flow's last
    ``w`` MTPs (the state block maintains them); the remaining fields come
    from the flow's most recent MTP record.
    """

    throughput_pps: float
    avg_thr_pps: float
    thr_std_pps: float
    avg_rtt_s: float
    loss_pps: float
    pacing_pps: float


@dataclass(frozen=True)
class RewardTerms:
    """The individual reward components plus the bounded total."""

    throughput: float
    latency: float
    loss: float
    fairness: float
    stability: float
    total: float


def fairness_term(avg_throughputs) -> float:
    """Eq. 6, R_fair: normalised cross-flow std-dev of average throughput."""
    x = np.asarray(avg_throughputs, dtype=float)
    if x.size == 0:
        raise ModelError("fairness term needs at least one flow")
    total = x.sum()
    if total <= 0 or not np.isfinite(total):
        return 0.0
    # Work on normalised shares: numerically identical to Eq. 6 but immune
    # to overflow/underflow of total**2 at extreme magnitudes.
    shares = x / total
    return float(np.sqrt(np.sum((shares - 1.0 / x.size) ** 2) / x.size))


def stability_term(avg_throughputs, thr_stds) -> float:
    """Eq. 6, R_stab: mean per-flow coefficient of variation."""
    avg = np.asarray(avg_throughputs, dtype=float)
    std = np.asarray(thr_stds, dtype=float)
    if avg.size == 0:
        raise ModelError("stability term needs at least one flow")
    if avg.shape != std.shape:
        raise ModelError("avg/std arrays must align")
    cv = np.where(avg > 1e-9, std / np.maximum(avg, 1e-9), 0.0)
    return float(np.mean(np.minimum(cv, 4.0)))


class RewardBlock:
    """Computes the global reward from all active flows' snapshots."""

    def __init__(self, link: LinkConfig, config: RewardConfig | None = None):
        self.link = link
        self.config = config or RewardConfig()

    def compute(self, snapshots: list[FlowSnapshot],
                capacity_pps: float | None = None) -> RewardTerms:
        """Evaluate Eqs. 4-8 for one global step.

        ``capacity_pps`` overrides the link's nominal capacity for
        variable-bandwidth (trace-driven) training scenarios.
        """
        return self.compute_columns(
            *(np.array([getattr(s, f.name) for s in snapshots])
              for f in fields(FlowSnapshot)),
            capacity_pps=capacity_pps)

    def compute_columns(self, thr: np.ndarray, avg_thr: np.ndarray,
                        thr_std: np.ndarray, lat: np.ndarray,
                        loss: np.ndarray, pacing: np.ndarray,
                        capacity_pps: float | None = None) -> RewardTerms:
        """:meth:`compute` from columns of the :class:`FlowSnapshot`
        fields, one entry per active flow (in the flows' order: the sums
        are order-dependent)."""
        if not len(thr):
            raise ModelError("reward needs at least one active flow")
        cfg = self.config
        c = capacity_pps if capacity_pps is not None else \
            mbps_to_pps(self.link.bandwidth_mbps)
        if c <= 0:
            raise ModelError("link capacity must be positive")

        r_thr = min(float(thr.sum() / c), 1.5)

        loss_ratio = np.where(thr > 1e-9,
                              loss / np.maximum(thr, 1e-9),
                              np.where(loss > 0, 1.0, 0.0))
        r_loss = float(np.mean(np.minimum(loss_ratio, 1.0)))

        base = self.link.rtt_s
        tolerance = (1.0 + cfg.beta) * base
        avg_lat = float(lat.mean())
        if avg_lat > tolerance:
            # "Total increased latency of all sending packets", made
            # dimensionless: inflation (in base-RTT units) times the
            # aggregate pacing rate relative to capacity.
            r_lat = ((avg_lat - tolerance) / base) * float(pacing.sum()) / c
            r_lat = min(r_lat, 4.0)
        else:
            r_lat = 0.0

        r_fair = fairness_term(avg_thr)
        r_stab = stability_term(avg_thr, thr_std)

        total = (cfg.c_thr * r_thr
                 - cfg.c_lat * r_lat
                 - cfg.c_loss * r_loss
                 - cfg.c_fair * r_fair
                 - cfg.c_stab * r_stab)
        total = float(np.clip(total, -cfg.bound, cfg.bound))
        return RewardTerms(
            throughput=r_thr,
            latency=r_lat,
            loss=r_loss,
            fairness=r_fair,
            stability=r_stab,
            total=total,
        )
