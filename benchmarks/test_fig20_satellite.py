"""Fig. 20 — satellite link: 42 Mbps, 800 ms RTT, 0.74% random loss (App. B.2).

Paper: loss-reactive schemes (CUBIC, Vegas, and cubic-coupled Orca)
collapse; loss-insensitive schemes (Vivace, Copa, Aurora) fill the pipe;
BBR utilises well but oscillates with the long RTT.  Astraea is trained
loss-resilient and lands at moderate throughput with low normalised delay.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_scenario
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "cubic", "vegas", "bbr", "copa", "vivace", "aurora",
           "orca")


def _run(cc: str, seed: int) -> dict[str, float]:
    scenario = scenarios.fig20_scenario(cc, quick=QUICK, seed=seed)
    result = run_scenario(scenario)
    return {
        "throughput_mbps": result.flow_mean_throughput(0, skip_s=15.0),
        "rtt_ratio": result.mean_rtt_s(skip_s=15.0) / scenario.link.rtt_s,
    }


def test_fig20_satellite(benchmark):
    def campaign():
        out = {}
        for cc in SCHEMES:
            rows = [_run(cc, seed) for seed in range(max(TRIALS // 2, 1))]
            out[cc] = {k: float(np.mean([r[k] for r in rows]))
                       for k in rows[0]}
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 20 — satellite link (42 Mbps, 800 ms, 0.74% loss)",
        ["scheme", "throughput (Mbps)", "RTT ratio", "paper"],
        [[cc, v["throughput_mbps"], v["rtt_ratio"],
          {"cubic": "collapses", "vegas": "collapses",
           "astraea": "moderate thr, low delay",
           "vivace": "high thr", "copa": "high thr"}.get(cc, "")]
         for cc, v in data.items()],
    )
    save_results("fig20", data)

    # Loss-reactive TCPs collapse under 0.74% random loss on a long pipe.
    assert data["cubic"]["throughput_mbps"] < 10.0
    # Astraea is loss-resilient: several times the loss-reactive TCPs.
    assert data["astraea"]["throughput_mbps"] > \
        2.0 * data["cubic"]["throughput_mbps"]
    # Loss-insensitive delay-based schemes fill the pipe (Copa, per paper).
    assert data["copa"]["throughput_mbps"] > 20.0
    # Astraea keeps the queue bounded (within the 1 BDP buffer; at 800 ms
    # — far beyond the 10-140 ms training range — our trained policy holds
    # more standing queue than the paper's, see EXPERIMENTS.md).
    assert data["astraea"]["rtt_ratio"] < 2.1
