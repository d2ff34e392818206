"""Fig. 15 — "real-world" WAN paths: throughput vs one-way delay (§5.3.2).

The genuine experiment runs residential-to-AWS Internet paths; offline we
substitute synthetic WAN paths (jittered capacity, bursty cross traffic,
light stochastic loss — DESIGN.md §2).  Paper headlines: Astraea defines
the throughput/latency frontier — e.g. 3.1x Orca's throughput
inter-continentally and lower latency inflation than BBR.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_scenario
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "bbr", "cubic", "vivace", "orca", "copa", "remy")


def _run(cc: str, kind: str, seed: int) -> dict[str, float]:
    scenario = scenarios.fig15_scenario(cc, kind=kind, quick=QUICK,
                                        seed=seed)
    result = run_scenario(scenario)
    return {
        "throughput_mbps": result.flow_mean_throughput(0, skip_s=5.0),
        "one_way_delay_ms": result.mean_rtt_s() * 1e3 / 2.0,
    }


def test_fig15_wan_paths(benchmark):
    def campaign():
        out = {}
        for kind in ("intra", "inter"):
            for cc in SCHEMES:
                rows = [_run(cc, kind, seed)
                        for seed in range(max(TRIALS // 2, 1))]
                out[(kind, cc)] = {
                    k: float(np.mean([r[k] for r in rows])) for k in rows[0]
                }
        return out

    data = run_once(benchmark, campaign)
    for kind in ("intra", "inter"):
        print_table(
            f"Fig. 15 — {kind}-continental path: throughput vs one-way delay",
            ["scheme", "throughput (Mbps)", "one-way delay (ms)"],
            [[cc, data[(kind, cc)]["throughput_mbps"],
              data[(kind, cc)]["one_way_delay_ms"]] for cc in SCHEMES],
        )
    save_results("fig15", {f"{kind}:{cc}": v
                           for (kind, cc), v in data.items()})

    inter = {cc: data[("inter", cc)] for cc in SCHEMES}
    # Astraea on the frontier: much more throughput than Orca, lower
    # latency inflation than BBR.
    assert inter["astraea"]["throughput_mbps"] > \
        1.5 * inter["orca"]["throughput_mbps"]
    assert inter["astraea"]["one_way_delay_ms"] < \
        inter["bbr"]["one_way_delay_ms"]
    # And it is competitive with the best throughput overall.
    best = max(v["throughput_mbps"] for v in inter.values())
    assert inter["astraea"]["throughput_mbps"] > 0.5 * best
