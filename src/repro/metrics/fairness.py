"""Fairness metrics: Jain index, Astraea's R_fair, and max-min shares.

Also home to :class:`FairnessAccumulator`, the mergeable
sufficient-statistics form of the Jain index used by the sharded fleet
runner: each shard reduces its flows to ``(count, sum, sum of squares,
capacity)`` and the parent merges those tuples instead of shipping raw
per-tick traces between processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError


#: The idle floor shared by :func:`jain_index` and
#: :meth:`FairnessAccumulator.jain`, decided on the *raw* sum of squares
#: in both: an allocation with ``sum x^2 <= IDLE_SUM_SQ`` (every flow
#: below ~1e-150 in any throughput unit) is idle, and idle flows are
#: perfectly fair by convention (index 1).  The floor sits far above the
#: subnormal range, so whenever the ratio is evaluated the raw sums that
#: the accumulator carries have lost nothing to underflow and agree with
#: the peak-normalised form.
IDLE_SUM_SQ = 1e-300


def _jain(count, total, sum_sq, raw_sum_sq) -> float:
    """The one Jain definition: 1 when idle, else ``(sum x)^2 / (n *
    sum x^2)`` — ``total``/``sum_sq`` at any common scale,
    ``raw_sum_sq`` unscaled."""
    if raw_sum_sq <= IDLE_SUM_SQ:
        return 1.0
    return float(total ** 2 / (count * sum_sq))


def jain_index(throughputs) -> float:
    """Jain's fairness index: ``(sum x)^2 / (n * sum x^2)``.

    Equals 1 for perfectly equal allocations and ``1/n`` when one flow
    takes everything.  An idle allocation (see :data:`IDLE_SUM_SQ`; all
    zeros in particular) is defined as perfectly fair (index 1).
    """
    x = np.asarray(throughputs, dtype=float)
    if x.size == 0:
        raise ConfigError("jain index of an empty allocation is undefined")
    if np.any(x < 0):
        raise ConfigError("throughputs must be non-negative")
    with np.errstate(over="ignore"):
        raw_sum_sq = np.sum(x * x)
    # Normalising by the peak makes the (scale-invariant) index immune to
    # overflow of the squared sums at extreme magnitudes (an all-zero
    # allocation is idle whatever the scale).
    x = x / (x.max() or 1.0)
    return _jain(x.size, x.sum(), np.sum(x ** 2), raw_sum_sq)


@dataclass
class FairnessAccumulator:
    """Mergeable sufficient statistics for Jain fairness and utilization.

    The Jain index ``(sum x)^2 / (n * sum x^2)`` and link utilization
    ``sum x / capacity`` are both functions of ``(n, sum x, sum x^2,
    capacity)`` only, and every component is additive.  Shards therefore
    reduce their flows locally and the parent merges fixed-size tuples:
    merging in a deterministic order (plain float adds, shard index
    order) makes the aggregate bit-identical for any worker count.

    ``batches`` counts ``add``/non-empty ``merge`` contributions — one
    per shard in fleet runs — purely for diagnostics.
    """

    count: int = 0
    total: float = 0.0
    sum_sq: float = 0.0
    capacity: float = 0.0
    batches: int = 0

    def add(self, throughputs, capacity: float = 0.0) -> "FairnessAccumulator":
        """Fold one batch of per-flow throughputs (plus their shared
        ``capacity``, in the same unit) into the statistics."""
        x = np.asarray(throughputs, dtype=float)
        if x.size and (not np.all(np.isfinite(x)) or np.any(x < 0)):
            raise ConfigError(
                "throughputs must be finite and non-negative")
        if not math.isfinite(capacity) or capacity < 0:
            raise ConfigError(
                f"capacity must be finite and non-negative, got {capacity!r}")
        self.count += int(x.size)
        self.total += float(x.sum())
        self.sum_sq += float(np.sum(x * x))
        self.capacity += float(capacity)
        self.batches += 1
        return self

    def merge(self, other: "FairnessAccumulator") -> "FairnessAccumulator":
        """Fold another accumulator in (plain float adds; order matters
        for bit-identical aggregates, so callers merge in shard order)."""
        self.count += other.count
        self.total += other.total
        self.sum_sq += other.sum_sq
        self.capacity += other.capacity
        self.batches += other.batches
        return self

    def jain(self) -> float:
        """Jain index over every flow folded in so far.

        Matches :func:`jain_index` on the concatenated allocation: both
        call the same definition and take the same idle decision on the
        raw sum of squares (:data:`IDLE_SUM_SQ`), and above that floor
        the raw — unnormalized — sums agree with the peak-normalized
        form (the index is scale-invariant).
        """
        if self.count == 0:
            raise ConfigError("jain index of an empty allocation is undefined")
        return _jain(self.count, self.total, self.sum_sq, self.sum_sq)

    def utilization(self) -> float:
        """Aggregate throughput over aggregate capacity."""
        if self.capacity <= 0.0:
            raise ConfigError(
                "utilization undefined without positive capacity")
        return float(self.total / self.capacity)

    def as_dict(self) -> dict:
        """JSON/pickle-friendly form (inverse of :meth:`from_dict`)."""
        return {"count": self.count, "total": self.total,
                "sum_sq": self.sum_sq, "capacity": self.capacity,
                "batches": self.batches}

    @classmethod
    def from_dict(cls, payload: dict) -> "FairnessAccumulator":
        try:
            return cls(count=int(payload["count"]),
                       total=float(payload["total"]),
                       sum_sq=float(payload["sum_sq"]),
                       capacity=float(payload["capacity"]),
                       batches=int(payload["batches"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"malformed FairnessAccumulator payload: {exc!r}") from exc


def astraea_fairness_metric(avg_throughputs) -> float:
    """The paper's R_fair (Eq. 6): normalised std-dev of flow throughputs.

    Zero at the fair equilibrium; unlike the Jain index it stays sensitive
    as flows approach equality (Fig. 4).  Computed over per-flow *average*
    throughputs (the paper averages over the last ``w`` MTPs).
    """
    x = np.asarray(avg_throughputs, dtype=float)
    if x.size == 0:
        raise ConfigError("fairness metric of an empty allocation is undefined")
    total = x.sum()
    if total == 0:
        return 0.0
    mean = total / x.size
    return float(np.sqrt(np.sum((x - mean) ** 2) / (x.size * total ** 2)))


def max_min_fair_shares(demands, capacity: float) -> np.ndarray:
    """Max-min fair allocation of ``capacity`` among flows with demands.

    ``demands`` may contain ``inf`` for elastic flows.  Classic water-filling.
    """
    d = np.asarray(demands, dtype=float)
    if capacity < 0:
        raise ConfigError("capacity must be non-negative")
    if np.any(d < 0):
        raise ConfigError("demands must be non-negative")
    alloc = np.zeros_like(d)
    remaining = capacity
    unsatisfied = np.ones_like(d, dtype=bool)
    while unsatisfied.any() and remaining > 1e-12:
        share = remaining / unsatisfied.sum()
        limited = unsatisfied & (d - alloc <= share)
        if limited.any():
            grant = d[limited] - alloc[limited]
            alloc[limited] = d[limited]
            remaining -= grant.sum()
            unsatisfied &= ~limited
        else:
            alloc[unsatisfied] += share
            remaining = 0.0
    return alloc
