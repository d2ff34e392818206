"""Fig. 8 — RTT fairness: five flows with base RTTs 40-200 ms (§5.1.2).

Paper: Astraea's throughput stays closest to the 20 Mbps optimal across
the RTT range — comparable with Copa and Vivace, better than Aurora, Orca
and the TCPs (CUBIC and Reno starve long-RTT flows badly).  Astraea keeps
a mild advantage for the short-RTT flow (faster feedback), which the
paper also reports.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.bench.runners import run_scheme_trials
from repro.metrics import jain_index
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "cubic", "vegas", "copa", "orca", "reno")
OPTIMAL_MBPS = 20.0


def test_fig08_rtt_fairness(benchmark):
    def campaign():
        out = {}
        for cc in SCHEMES:
            results = run_scheme_trials(
                scenarios.fig8_scenario(cc, quick=QUICK), TRIALS)
            skip = 10.0 if QUICK else 40.0
            shares = np.mean(
                [[r.flow_mean_throughput(i, skip_s=skip) for i in range(5)]
                 for r in results], axis=0)
            out[cc] = {
                "shares_mbps": shares.tolist(),
                "jain": jain_index(shares),
                "max_deviation": float(np.max(np.abs(shares -
                                                     OPTIMAL_MBPS))),
            }
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 8 — per-flow throughput, base RTTs 40/80/120/160/200 ms "
        "(optimal 20 Mbps each)",
        ["scheme", "40ms", "80ms", "120ms", "160ms", "200ms", "Jain"],
        [[cc, *[round(s, 1) for s in v["shares_mbps"]], v["jain"]]
         for cc, v in data.items()],
    )
    save_results("fig08", data)

    astraea = data["astraea"]
    # Astraea shares within a small factor across a 5x RTT spread — far
    # better than the loss-based TCPs, which starve long-RTT flows by
    # 20-30x.  (Paper reports near-equal shares with a mild short-RTT
    # advantage; our trained policy's spread is wider and slightly favours
    # the RTT extremes — see EXPERIMENTS.md, [partial].)
    assert astraea["jain"] > 0.7
    assert astraea["jain"] > data["cubic"]["jain"] + 0.3
    assert astraea["jain"] > data["reno"]["jain"] + 0.3
    shares = np.asarray(astraea["shares_mbps"])
    assert shares.max() / max(shares.min(), 1e-6) < 5.0
    # CUBIC's RTT unfairness, for contrast, is an order of magnitude worse.
    cubic = np.asarray(data["cubic"]["shares_mbps"])
    assert cubic.max() / max(cubic.min(), 1e-6) > 10.0
