"""Fig. 21 — cellular link statistics: throughput vs normalised delay (App. B.3).

Paper: over the LTE trace Astraea maintains high throughput with low
latency inflation; Aurora and Vivace buy throughput with heavy latency;
Copa and Vegas keep delay low but sacrifice utilisation.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_scenario
from repro.netsim.traces import LteTrace
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "aurora", "vivace", "copa", "vegas", "bbr", "cubic")


def _run(cc: str, seed: int) -> dict[str, float]:
    scenario = scenarios.fig13_scenario(cc, quick=QUICK, seed=seed)
    result = run_scenario(scenario)
    trace = LteTrace(seed=seed)
    # Mean capacity over the actual run window (the trace is long-lived).
    ts = np.arange(3.0, scenario.duration_s, 0.1)
    mean_capacity = float(np.mean([trace.capacity_mbps(t) for t in ts]))
    return {
        "norm_throughput": result.flow_mean_throughput(0, skip_s=3.0)
        / mean_capacity,
        "rtt_ratio": result.mean_rtt_s(skip_s=3.0) / scenario.link.rtt_s,
    }


def test_fig21_cellular_statistics(benchmark):
    def campaign():
        out = {}
        for cc in SCHEMES:
            rows = [_run(cc, seed) for seed in range(max(TRIALS // 2, 1))]
            out[cc] = {k: float(np.mean([r[k] for r in rows]))
                       for k in rows[0]}
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 21 — cellular link: normalised throughput vs RTT ratio",
        ["scheme", "thr / mean capacity", "RTT ratio", "paper"],
        [[cc, v["norm_throughput"], v["rtt_ratio"],
          {"astraea": "high thr, low delay",
           "aurora": "thr at high delay", "vivace": "thr at high delay",
           "copa": "low delay, low util", "vegas": "low delay, low util"}
          .get(cc, "")] for cc, v in data.items()],
    )
    save_results("fig21", data)

    astraea = data["astraea"]
    # High utilisation with bounded latency inflation (the bufferbloat
    # guard caps the standing queue at a few times the base RTT when
    # capacity collapses)...
    assert astraea["norm_throughput"] > 0.5
    assert astraea["rtt_ratio"] < 4.0
    # ...dramatically less than Vivace, whose probe-and-decide loop cannot
    # track ms-scale capacity swings (the Fig. 13/21 headline), and less
    # than loss-blind CUBIC filling the deep buffer.
    assert data["vivace"]["rtt_ratio"] > 5.0 * astraea["rtt_ratio"]
    assert data["cubic"]["rtt_ratio"] > 2.0 * astraea["rtt_ratio"]
