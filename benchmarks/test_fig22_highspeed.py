"""Fig. 22 — high-speed WAN: 10 Gbps, 10 ms base RTT (App. B.4).

Paper: Astraea delivers higher throughput than Orca and Vivace thanks to
fast convergence to the link bandwidth, with low latency inflation.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_scenario
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "orca", "vivace", "bbr", "cubic")


def _run(cc: str, seed: int) -> dict[str, float]:
    scenario = scenarios.fig22_scenario(cc, quick=QUICK, seed=seed)
    result = run_scenario(scenario)
    return {
        "throughput_gbps": result.flow_mean_throughput(0, skip_s=3.0) / 1e3,
        "rtt_ms": result.mean_rtt_s(skip_s=3.0) * 1e3,
    }


def test_fig22_highspeed_wan(benchmark):
    def campaign():
        out = {}
        for cc in SCHEMES:
            rows = [_run(cc, seed) for seed in range(max(TRIALS // 2, 1))]
            out[cc] = {k: float(np.mean([r[k] for r in rows]))
                       for k in rows[0]}
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 22 — 10 Gbps WAN (10 ms base RTT)",
        ["scheme", "throughput (Gbps)", "RTT (ms)", "paper"],
        [[cc, v["throughput_gbps"], v["rtt_ms"],
          {"astraea": "> orca, > vivace"}.get(cc, "")]
         for cc, v in data.items()],
    )
    save_results("fig22", data)

    assert data["astraea"]["throughput_gbps"] > \
        data["vivace"]["throughput_gbps"]
    assert data["astraea"]["throughput_gbps"] > 5.0
    assert data["astraea"]["rtt_ms"] < 10.0 * 2.0
