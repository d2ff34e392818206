"""Order statistics for the perf ledger (pure Python, no NumPy).

The harness parent must not import NumPy (the BLAS thread pins have to be
in the environment first), so everything the parent computes — medians,
quartiles, the percentile rule — lives here on plain lists.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a latency report may quote, lowest first, each with the
#: number of samples of which one lies beyond it (integers, so the rule
#: below is exact: 100 - 99.9 is not 0.1 in floating point).
PERCENTILE_LADDER = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000))

#: choosing-metrics §1: a percentile is reportable only with at least
#: this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100] of ``samples``.

    Nearest rank never invents a value between two samples; with fewer
    than ``100 / (100 - q)`` samples it returns the maximum, which is
    why :func:`supported_percentile` exists.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def supported_percentile(n: int) -> float | None:
    """The highest ladder percentile with >= 10 samples beyond it.

    ``None`` when not even the median qualifies (n < 20).
    """
    best = None
    for q, one_in in PERCENTILE_LADDER:
        if n >= MIN_SAMPLES_BEYOND * one_in:
            best = q
    return best


def tail(samples, cap: float) -> dict:
    """Latency at the highest supported percentile, at most ``cap``.

    The rule of :func:`supported_percentile` applied uniformly: tens of
    thousands of served actions support p99; a few dozen in-process jobs
    support only the median, and then the median is what is reported
    (``percentile`` says which it was).
    """
    q = min(supported_percentile(len(samples)) or 50.0, cap)
    value = statistics.median(samples) if q == 50.0 \
        else percentile(samples, q)
    return {"value": value, "percentile": q, "n": len(samples)}


def summary(samples) -> dict:
    """Median, quartiles and count of ``samples``.

    Quartiles follow ``statistics.quantiles(n=4)`` — the same rule the
    acceptance check applies to ten whole runs — and collapse to the
    single value when there is only one sample.
    """
    values = [float(v) for v in samples]
    if not values:
        raise ValueError("summary of an empty sample")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def estimate(samples, better: str | None = None) -> dict:
    """:func:`summary` plus ``value``, the figure a run reports.

    ``value`` is the median — except for a rate or a cost of
    deterministic, CPU-bound work (``better`` = ``"higher"`` /
    ``"lower"``), where it is the *favourable* quartile.  A neighbour on
    a shared host can only slow such a job down, so the favourable
    quartile sits nearer the uncontended speed and moves about a third
    less from run to run than the median does (measured: README,
    "Steadiness"); a real regression shifts every quantile alike.
    """
    out = summary(samples)
    out["value"] = {None: out["median"], "higher": out["q3"],
                    "lower": out["q1"]}[better]
    return out
