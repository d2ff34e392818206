"""Fig. 19 — resilience to buffer size (App. B.1).

Paper: sweeping the buffer from 0.1 to 16 BDP on a 100 Mbps / 30 ms link:
(a) Astraea reaches near-full utilisation from 0.1 BDP up, like BBR and
Aurora, while Orca (cubic-coupled) needs ~0.8 BDP and delay-based schemes
sit lower; (b) Aurora and BBR inflate latency with deep buffers while
Astraea holds moderate delay; (c) Astraea delivers near-lossless transfer
for buffers >= 0.1 BDP.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_scenario
from benchmarks.conftest import TRIALS, QUICK, run_once

SCHEMES = ("astraea", "aurora", "bbr", "cubic", "orca", "vegas", "copa")
BUFFERS_BDP = (0.1, 0.5, 1.0, 4.0, 16.0)


def _run(cc: str, buf: float, seed: int) -> dict[str, float]:
    scenario = scenarios.fig19_scenario(cc, buf, quick=QUICK, seed=seed)
    result = run_scenario(scenario)
    return {
        "utilization": result.utilization(skip_s=5.0),
        "rtt_ratio": result.mean_rtt_s() / scenario.link.rtt_s,
        "loss": result.mean_loss_rate(skip_s=5.0),
    }


def test_fig19_buffer_sweep(benchmark):
    def campaign():
        out = {}
        for cc in SCHEMES:
            for buf in BUFFERS_BDP:
                rows = [_run(cc, buf, seed)
                        for seed in range(max(TRIALS // 2, 1))]
                out[(cc, buf)] = {k: float(np.mean([r[k] for r in rows]))
                                  for k in rows[0]}
        return out

    data = run_once(benchmark, campaign)
    for metric, title in (("utilization", "(a) utilisation"),
                          ("rtt_ratio", "(b) latency inflation"),
                          ("loss", "(c) loss rate")):
        print_table(
            f"Fig. 19{title} vs buffer size (BDP multiples)",
            ["scheme", *[f"{b}x" for b in BUFFERS_BDP]],
            [[cc, *[data[(cc, b)][metric] for b in BUFFERS_BDP]]
             for cc in SCHEMES],
        )
    save_results("fig19", {f"{cc}:{b}": v for (cc, b), v in data.items()})

    # (a) Astraea: high utilisation from 0.1 BDP on.
    for buf in BUFFERS_BDP:
        assert data[("astraea", buf)]["utilization"] > 0.85, buf
    # Orca under-utilises with very shallow buffers relative to its own
    # deep-buffer performance (cubic coupling).
    assert data[("orca", 0.1)]["utilization"] < \
        data[("orca", 4.0)]["utilization"]
    # (b) Deep buffers: Aurora/BBR inflate latency well beyond Astraea.
    assert data[("aurora", 16.0)]["rtt_ratio"] > \
        data[("astraea", 16.0)]["rtt_ratio"] * 1.3
    # (c) Astraea near-lossless from 0.1 BDP.
    for buf in BUFFERS_BDP:
        assert data[("astraea", buf)]["loss"] < 0.01, buf
