"""Fig. 14 — TCP friendliness: one scheme flow vs k CUBIC flows (§5.3.1).

Paper: Aurora and BBR grab 10-60x a CUBIC flow's share; Vivace ends up
*below* CUBIC (delay-based disadvantage); Astraea lands in between —
acceptable ratios, not starving and not starved.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_scenario
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "aurora", "bbr", "vivace", "vegas", "copa")
CUBIC_COUNTS = (1, 2, 4)


def _ratio(cc: str, n_cubic: int, seed: int) -> float:
    scenario = scenarios.fig14_scenario(cc, n_cubic, quick=QUICK, seed=seed)
    result = run_scenario(scenario)
    skip = scenario.duration_s / 3.0
    mine = result.flow_mean_throughput(0, skip_s=skip)
    cubics = np.mean([result.flow_mean_throughput(i, skip_s=skip)
                      for i in range(1, n_cubic + 1)])
    return float(mine / max(cubics, 1e-6))


def test_fig14_tcp_friendliness(benchmark):
    def campaign():
        out = {}
        for cc in SCHEMES:
            out[cc] = {
                n: float(np.mean([_ratio(cc, n, seed)
                                  for seed in range(max(TRIALS // 2, 1))]))
                for n in CUBIC_COUNTS
            }
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 14 — throughput ratio to CUBIC (1.0 = perfectly friendly)",
        ["scheme", *[f"vs {n} cubic" for n in CUBIC_COUNTS], "paper"],
        [[cc, *[data[cc][n] for n in CUBIC_COUNTS],
          {"aurora": "10-60x", "bbr": "10-60x", "vivace": "<1",
           "astraea": "acceptable"}.get(cc, "")]
         for cc in SCHEMES],
    )
    save_results("fig14", {cc: {str(n): v for n, v in row.items()}
                           for cc, row in data.items()})

    mean_ratio = {cc: float(np.mean(list(row.values())))
                  for cc, row in data.items()}
    # Aurora and BBR are the bullies; Astraea is much friendlier than
    # either but (unlike pure delay-based schemes) not starved by CUBIC.
    assert mean_ratio["aurora"] > 3.0
    assert mean_ratio["bbr"] > 1.5
    assert mean_ratio["astraea"] < mean_ratio["aurora"] / 2.0
    assert mean_ratio["astraea"] > 0.1
    # Vivace's delay-based behaviour yields to CUBIC.
    assert mean_ratio["vivace"] < 1.0
