"""Fig. 1 — motivation: Aurora is unfair; Vivace converges slowly.

Paper (§2): on an 80 Mbps / 60 ms link with a deep (4.8 MB) buffer, an
incumbent Aurora flow leaves a later Aurora arrival essentially nothing
(Fig. 1a).  On a 100 Mbps / 120 ms link, three staggered Vivace flows can
hardly reach the fair point before they terminate (Fig. 1b).
"""

from __future__ import annotations

import numpy as np

from repro import scenarios
from repro.bench import print_table, save_results
from repro.bench.runners import run_scheme_trials
from benchmarks.conftest import TRIALS, QUICK, run_once


def test_fig01a_aurora_unfair(benchmark):
    def campaign():
        results = run_scheme_trials(scenarios.fig1a_scenario(quick=QUICK),
                                    TRIALS)
        shares = []
        for r in results:
            t, m, a = r.throughput_matrix(0.5)
            overlap = a.all(axis=0)
            shares.append(m[:, overlap].mean(axis=1))
        return np.mean(shares, axis=0)

    incumbent, newcomer = run_once(benchmark, campaign)
    print_table(
        "Fig. 1a — Aurora shares no bandwidth (80 Mbps, 60 ms, deep buffer)",
        ["flow", "mean throughput (Mbps)", "paper"],
        [["incumbent", float(incumbent), "~full link"],
         ["late arrival", float(newcomer), "~none"]],
    )
    save_results("fig01a", {"incumbent_mbps": float(incumbent),
                            "newcomer_mbps": float(newcomer)})
    # Shape: the incumbent keeps an order of magnitude more than the
    # newcomer, and most of the link.
    assert incumbent > 8 * newcomer
    assert incumbent > 0.6 * 80.0


def test_fig01b_vivace_converges_slowly(benchmark):
    def campaign():
        vivace = run_scheme_trials(
            scenarios.fig1b_scenario(rtt_ms=120.0, quick=QUICK), TRIALS)
        astraea = run_scheme_trials(
            scenarios.fig6_scenario("astraea", quick=QUICK), TRIALS)
        return (np.mean([r.mean_jain() for r in vivace]),
                np.mean([r.mean_jain() for r in astraea]))

    vivace_jain, astraea_jain = run_once(benchmark, campaign)
    print_table(
        "Fig. 1b — Vivace at 120 ms RTT can hardly reach fairness",
        ["scheme", "mean Jain while competing", "paper"],
        [["vivace @120ms", vivace_jain, "far from 1.0"],
         ["astraea @30ms (Fig. 6 ref)", astraea_jain, "~0.99"]],
    )
    save_results("fig01b", {"vivace_jain": vivace_jain,
                            "astraea_jain": astraea_jain})
    assert vivace_jain < astraea_jain - 0.1
