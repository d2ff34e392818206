"""Fig. 13 — tracking a rapidly changing cellular link (§5.2).

Paper: on the LTE trace Astraea's sending rate swiftly follows the link
capacity while Vivace's probe-and-decide loop lags, inflating latency and
dropping packets.  We measure tracking quality as the correlation between
per-second goodput and per-second capacity, plus utilisation and latency.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_scenario
from repro.netsim.traces import LteTrace
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "vivace", "bbr", "cubic")


def _tracking_stats(cc: str, seed: int) -> dict[str, float]:
    scenario = scenarios.fig13_scenario(cc, quick=QUICK, seed=seed)
    result = run_scenario(scenario)
    trace = LteTrace(seed=seed)
    times, matrix, active = result.throughput_matrix(1.0)
    goodput = matrix[0]
    capacity = np.array([trace.capacity_mbps(t) for t in times])
    live = active[0] & (times > 3.0)
    corr = float(np.corrcoef(goodput[live], capacity[live])[0, 1])
    return {
        "tracking_corr": corr,
        "utilization": float(np.mean(goodput[live] / capacity[live])),
        "rtt_ratio": result.mean_rtt_s() / scenario.link.rtt_s,
        "loss": result.mean_loss_rate(),
    }


def test_fig13_cellular_tracking(benchmark):
    def campaign():
        out = {}
        for cc in SCHEMES:
            rows = [_tracking_stats(cc, seed)
                    for seed in range(max(TRIALS // 2, 1))]
            out[cc] = {k: float(np.mean([r[k] for r in rows]))
                       for k in rows[0]}
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 13 — LTE-trace tracking (corr of goodput with capacity)",
        ["scheme", "tracking corr", "utilization", "RTT ratio", "loss"],
        [[cc, v["tracking_corr"], v["utilization"], v["rtt_ratio"],
          v["loss"]] for cc, v in data.items()],
    )
    save_results("fig13", data)

    # Astraea tracks capacity better than Vivace and with much lower
    # latency inflation (the paper's headline for this figure).
    assert data["astraea"]["tracking_corr"] > \
        data["vivace"]["tracking_corr"]
    assert data["astraea"]["rtt_ratio"] < data["vivace"]["rtt_ratio"]
    assert data["astraea"]["tracking_corr"] > 0.5
