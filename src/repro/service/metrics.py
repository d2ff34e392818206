"""Streaming service metrics: latency histogram + text exposition.

The serving daemon is long-lived, so every metric here is O(1) in
memory no matter how many requests pass through: the latency histogram
is a fixed array of log-spaced buckets (the same bounded-accounting
discipline as :data:`repro.service.inference.RECENT_BATCHES`), and the
exposition format is the plain ``name value`` / ``name{quantile="p"}``
text that Prometheus-style scrapers and humans both read.
"""

from __future__ import annotations

import math

import numpy as np

from .inference import ServiceAccounting

#: Histogram range: 1 microsecond .. 100 seconds, log-spaced.
_LO_S = 1e-6
_HI_S = 100.0
#: Buckets per decade; 8 decades in range -> 160 finite buckets.
_PER_DECADE = 20


class LatencyHistogram:
    """Fixed-size log-bucketed latency histogram with quantile reads.

    ``record`` is O(1) (``record_many`` folds a whole batching window
    at once); ``quantile`` walks the (small, fixed) bucket
    array and interpolates linearly inside the winning bucket, which is
    accurate to a bucket width (~12 % with 20 buckets/decade) — plenty
    for p50/p99/p999 service-latency reporting, without retaining a
    sample list that grows with daemon lifetime.
    """

    def __init__(self) -> None:
        decades = math.log10(_HI_S / _LO_S)
        n = int(round(decades * _PER_DECADE))
        # Bucket i covers [edges[i], edges[i+1]); +2 for underflow and
        # overflow catch-alls at the ends.
        self._edges = _LO_S * np.power(10.0, np.arange(n + 1) / _PER_DECADE)
        self._counts = np.zeros(n + 2, dtype=np.int64)
        self.count = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        """Fold one latency observation into the histogram."""
        self.record_many((seconds,))

    def record_many(self, seconds) -> None:
        """Fold a window of observations with one ``searchsorted``;
        non-finite and negative ones are skipped."""
        values = np.asarray(seconds, dtype=float)
        values = values[np.isfinite(values) & (values >= 0.0)]
        if values.size == 0:
            return
        indices = np.searchsorted(self._edges, values, side="right")
        self._counts += np.bincount(indices, minlength=self._counts.size)
        self.count += values.size
        for value in values.tolist():
            # In arrival order: a float sum depends on it.
            self.sum_s += value
        self.max_s = max(self.max_s, float(values.max()))

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The latency at quantile ``q`` in [0, 1] (0.0 when empty)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            if seen + c >= target:
                frac = (target - seen) / c
                if i == 0:                       # underflow bucket
                    return float(min(self._edges[0], self.max_s))
                if i >= len(self._edges):        # overflow bucket
                    return self.max_s
                lo, hi = self._edges[i - 1], self._edges[i]
                # Interpolated position, clamped to the observed max so
                # a quantile never exceeds any recorded latency.
                return float(min(lo + frac * (hi - lo), self.max_s))
            seen += c
        return self.max_s

    def summary(self) -> dict[str, float]:
        """The percentile block every artifact and STATS reply carries."""
        return {
            "count": self.count,
            "mean_s": self.mean_s,
            "p50_s": self.quantile(0.50),
            "p99_s": self.quantile(0.99),
            "p999_s": self.quantile(0.999),
            "max_s": self.max_s,
        }


def render_metrics(accounting: ServiceAccounting,
                   latency: LatencyHistogram | None = None,
                   extra: dict[str, float] | None = None,
                   prefix: str = "repro_service") -> str:
    """Text exposition of the service counters and latency quantiles.

    One ``<prefix>_<name> <value>`` line per counter, plus
    ``<prefix>_latency_seconds{quantile="..."}`` lines when a histogram
    is supplied — the long-promised observability surface over
    :class:`~repro.service.inference.ServiceAccounting`.
    """
    lines = []
    counters = dict(accounting.counters())
    if extra:
        counters.update(extra)
    for name, value in counters.items():
        if isinstance(value, float):
            lines.append(f"{prefix}_{name} {value:.9g}")
        else:
            lines.append(f"{prefix}_{name} {value}")
    if latency is not None:
        s = latency.summary()
        for q, key in (("0.5", "p50_s"), ("0.99", "p99_s"),
                       ("0.999", "p999_s")):
            lines.append(f'{prefix}_latency_seconds{{quantile="{q}"}} '
                         f"{s[key]:.9g}")
        lines.append(f"{prefix}_latency_seconds_count {s['count']}")
        lines.append(f"{prefix}_latency_seconds_sum {latency.sum_s:.9g}")
        lines.append(f"{prefix}_latency_seconds_max {s['max_s']:.9g}")
    return "\n".join(lines) + "\n"
