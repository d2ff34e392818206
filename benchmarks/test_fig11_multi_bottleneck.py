"""Fig. 11 — max-min fairness across two bottlenecks (§5.1.4).

Paper: in the parking-lot topology (Link 1 = 100 Mbps shared, Link 2 =
20 Mbps crossed only by the two FS-2 flows), the measured throughputs of
FS-1 and FS-2 closely follow the ideal max-min allocation as the FS-1
count sweeps across the crossover at 8 flows.
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.env import run_topology
from repro.netsim.topology import parking_lot_ideal_shares
from benchmarks.conftest import TRIALS, QUICK, run_once

FS1_COUNTS = (2, 4, 8, 12)


def test_fig11_multi_bottleneck(benchmark):
    def campaign():
        out = {}
        for k in FS1_COUNTS:
            fs1_vals, fs2_vals = [], []
            for seed in range(max(TRIALS // 2, 1)):
                topo = scenarios.fig11_topology("astraea", n_fs1=k,
                                                quick=QUICK, seed=seed)
                result = run_topology(topo)
                skip = topo.duration_s / 2.0
                fs1_vals.append(np.mean(
                    [result.flow_mean_throughput(i, skip_s=skip)
                     for i in range(k)]))
                fs2_vals.append(np.mean(
                    [result.flow_mean_throughput(i, skip_s=skip)
                     for i in range(k, k + 2)]))
            ideal_fs1, ideal_fs2 = parking_lot_ideal_shares(k)
            out[k] = {
                "fs1_mbps": float(np.mean(fs1_vals)),
                "fs2_mbps": float(np.mean(fs2_vals)),
                "ideal_fs1": ideal_fs1,
                "ideal_fs2": ideal_fs2,
            }
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Fig. 11 — parking-lot topology: measured vs ideal max-min shares",
        ["FS-1 flows", "FS-1 (Mbps)", "ideal", "FS-2 (Mbps)", "ideal"],
        [[k, v["fs1_mbps"], v["ideal_fs1"], v["fs2_mbps"], v["ideal_fs2"]]
         for k, v in data.items()],
    )
    save_results("fig11", {str(k): v for k, v in data.items()})

    for k, v in data.items():
        assert v["fs1_mbps"] == pytest_approx(v["ideal_fs1"], 0.35), k
        assert v["fs2_mbps"] == pytest_approx(v["ideal_fs2"], 0.35), k
    # The crossover: before it FS-1 flows get more than FS-2; at/after it
    # everyone converges to the common-bottleneck share.
    assert data[2]["fs1_mbps"] > data[2]["fs2_mbps"] * 2.0
    assert abs(data[12]["fs1_mbps"] - data[12]["fs2_mbps"]) < 4.0


def pytest_approx(value, rel):
    import pytest

    return pytest.approx(value, rel=rel)
