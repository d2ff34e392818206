"""Fig. 10 — fairness with many competing flows (§5.1.3).

Paper: on a 600 Mbps / 20 ms bottleneck, Astraea preserves high Jain
indices as the flow count grows from 10 to 50 even though it trained with
at most 5 flows — the normalisation of the state features is what makes
the policy population-size-agnostic.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.bench.runners import run_scheme_trials
from repro.metrics import jain_index
from benchmarks.conftest import TRIALS, QUICK, run_once

FLOW_COUNTS = (10, 20, 30, 50)


def test_fig10_many_flows(benchmark):
    def campaign():
        out = {}
        for n in FLOW_COUNTS:
            results = run_scheme_trials(
                scenarios.fig10_scenario("astraea", n, quick=QUICK),
                max(TRIALS // 2, 1))
            jains, utils = [], []
            for r in results:
                skip = r.duration_s / 2.0
                shares = [r.flow_mean_throughput(i, skip_s=skip)
                          for i in range(n)]
                jains.append(jain_index(shares))
                utils.append(r.utilization(skip_s=skip))
            out[n] = {"jain": float(np.mean(jains)),
                      "utilization": float(np.mean(utils))}
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 10 — fairness vs number of competing flows "
        "(600 Mbps, 20 ms)",
        ["flows", "Jain", "utilization", "paper"],
        [[n, v["jain"], v["utilization"], "high (>0.9)"]
         for n, v in data.items()],
    )
    save_results("fig10", {str(n): v for n, v in data.items()})

    for n, v in data.items():
        assert v["jain"] > 0.85, f"{n} flows"
        assert v["utilization"] > 0.7, f"{n} flows"
