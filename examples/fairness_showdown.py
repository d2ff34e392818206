#!/usr/bin/env python3
"""Fairness showdown: every scheme on the paper's Fig. 6 scenario.

Reproduces the headline comparison interactively: three staggered flows on
a 100 Mbps / 30 ms / 1 BDP bottleneck, once per congestion-control scheme,
reporting utilisation, Jain index, RTT, loss, convergence time and
stability side by side.

Run with::

    python examples/fairness_showdown.py [--schemes astraea,cubic,bbr]
"""

from __future__ import annotations

import argparse

from repro import scenarios
from repro.bench import print_table
from repro.bench.runners import run_scheme_trials, summarize_trials

DEFAULT_SCHEMES = ("astraea", "astraea-ref", "cubic", "bbr", "vegas",
                   "copa", "vivace", "orca", "reno")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--schemes", type=str,
                        default=",".join(DEFAULT_SCHEMES))
    parser.add_argument("--trials", type=int, default=2)
    parser.add_argument("--full", action="store_true",
                        help="use the paper's full time axes (slower)")
    args = parser.parse_args()

    rows = []
    for cc in args.schemes.split(","):
        cc = cc.strip()
        results = run_scheme_trials(
            scenarios.fig6_scenario(cc, quick=not args.full), args.trials)
        s = summarize_trials(results, cc, penalty_s=40.0)
        rows.append([s.scheme, s.utilization, s.mean_jain, s.mean_rtt_ms,
                     s.mean_loss_rate, s.convergence_time_s,
                     s.stability_mbps])
        print(f"  ran {cc}")

    print_table(
        "Fig. 6 scenario — three staggered flows, 100 Mbps / 30 ms / 1 BDP",
        ["scheme", "util", "Jain", "RTT (ms)", "loss", "conv (s)",
         "stab (Mbps)"],
        rows,
    )


if __name__ == "__main__":
    main()
