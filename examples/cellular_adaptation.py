#!/usr/bin/env python3
"""Cellular adaptation: track a rapidly varying LTE-like link (Fig. 13).

Cellular links change capacity on millisecond timescales.  This example
replays the synthetic LTE trace through the emulator for Astraea and
Vivace and prints a side-by-side timeline of link capacity vs achieved
goodput, plus tracking statistics — the experiment behind the paper's
responsiveness claim.

Run with::

    python examples/cellular_adaptation.py
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.env import run_scenario
from repro.netsim.traces import LteTrace


def run(cc: str, seed: int = 0):
    scenario = scenarios.fig13_scenario(cc, quick=False, seed=seed)
    result = run_scenario(scenario)
    trace = LteTrace(seed=seed)
    times, matrix, active = result.throughput_matrix(1.0)
    capacity = np.array([trace.capacity_mbps(t) for t in times])
    live = active[0] & (times > 3.0)
    corr = float(np.corrcoef(matrix[0, live], capacity[live])[0, 1])
    return times, capacity, matrix[0], result, corr


def sparkline(values, lo, hi, width=60):
    blocks = " .:-=+*#%@"
    idx = np.linspace(0, len(values) - 1, width).astype(int)
    scaled = np.clip((values[idx] - lo) / max(hi - lo, 1e-9), 0, 0.999)
    return "".join(blocks[int(s * len(blocks))] for s in scaled)


def main() -> None:
    for cc in ("astraea", "vivace"):
        times, capacity, goodput, result, corr = run(cc)
        lo, hi = 0.0, capacity.max()
        print(f"\n=== {cc} on the LTE trace ===")
        print(f"capacity : {sparkline(capacity, lo, hi)}")
        print(f"goodput  : {sparkline(goodput, lo, hi)}")
        print(f"tracking correlation : {corr:.3f}")
        print(f"mean RTT             : {result.mean_rtt_s() * 1e3:.0f} ms "
              f"(base 40 ms)")
        print(f"mean loss rate       : {result.mean_loss_rate():.4f}")


if __name__ == "__main__":
    main()
