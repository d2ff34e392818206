"""Fig. 9 — Jain indices across bandwidth x RTT (§5.1.3).

Paper: Astraea's average Jain index stays above 0.95 across 20-200 Mbps
and 30-200 ms (a wider envelope than the training range), degrading
mildly at very large RTTs (slow feedback) and in very small-BDP settings
(window rounding).
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.bench.runners import run_scheme_trials
from benchmarks.conftest import TRIALS, QUICK, run_once

BANDWIDTHS = (20.0, 50.0, 100.0, 200.0)
RTTS = (30.0, 80.0, 140.0, 200.0)


def test_fig09_fairness_grid(benchmark):
    def campaign():
        rng = np.random.default_rng(9)
        grid = {}
        for bw in BANDWIDTHS:
            for rtt in RTTS:
                n = int(rng.integers(2, 5))
                results = run_scheme_trials(
                    scenarios.fig9_scenario("astraea", bw, rtt, n,
                                            quick=QUICK),
                    max(TRIALS // 2, 1))
                grid[(bw, rtt)] = float(np.mean(
                    [r.mean_jain() for r in results]))
        return grid

    grid = run_once(benchmark, campaign)
    print_table(
        "Fig. 9 — mean Jain index across network scenarios (Astraea)",
        ["bw (Mbps)", *[f"rtt {r:.0f}ms" for r in RTTS]],
        [[bw, *[grid[(bw, rtt)] for rtt in RTTS]] for bw in BANDWIDTHS],
    )
    save_results("fig09", {f"{bw}x{rtt}": j for (bw, rtt), j
                           in grid.items()})

    values = np.array(list(grid.values()))
    # Good average fairness across the envelope; degradation concentrates
    # in the largest-RTT / smallest-BDP corners, the same two regimes the
    # paper flags (slow feedback; window rounding).  Paper: > 0.95
    # everywhere; our trained policy is weaker at the corners
    # (EXPERIMENTS.md, [partial]).
    assert values.mean() > 0.80
    assert values.min() > 0.55
    assert np.median(values) > 0.80
    # Large-RTT degradation trend: the 200 ms column is the hardest.
    col = {rtt: np.mean([grid[(bw, rtt)] for bw in BANDWIDTHS])
           for rtt in RTTS}
    assert col[200.0] <= col[30.0] + 0.02
