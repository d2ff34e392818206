#!/usr/bin/env python3
"""Challenging paths: satellite, high-speed WAN, shallow buffers.

Runs Astraea and a few contrasting schemes over the appendix scenarios
(Fig. 19/20/22): a 42 Mbps / 800 ms satellite link with 0.74% random
loss, a 10 Gbps / 10 ms WAN, and a shallow-buffer (0.1 BDP) link —
the conditions that break loss-reactive and probe-based schemes.

Run with::

    python examples/challenging_paths.py
"""

from __future__ import annotations

from repro import scenarios
from repro.bench import print_table
from repro.env import run_scenario

SCHEMES = ("astraea", "cubic", "bbr", "vivace")


def main() -> None:
    rows = []
    for cc in SCHEMES:
        r = run_scenario(scenarios.fig20_scenario(cc, quick=True))
        rows.append(["satellite 42M/800ms/0.74% loss", cc,
                     round(r.flow_mean_throughput(0, skip_s=15.0), 2),
                     round(r.mean_rtt_s(15.0) * 1e3, 0)])
        print(f"  satellite: {cc}")
    for cc in SCHEMES:
        r = run_scenario(scenarios.fig22_scenario(cc, quick=True))
        rows.append(["high-speed 10G/10ms", cc,
                     round(r.flow_mean_throughput(0, skip_s=3.0), 0),
                     round(r.mean_rtt_s(3.0) * 1e3, 1)])
        print(f"  10G: {cc}")
    for cc in SCHEMES:
        r = run_scenario(scenarios.fig19_scenario(cc, 0.1, quick=True))
        rows.append(["shallow buffer 0.1 BDP", cc,
                     round(r.flow_mean_throughput(0, skip_s=5.0), 1),
                     round(r.mean_rtt_s(5.0) * 1e3, 1)])
        print(f"  shallow: {cc}")

    print_table(
        "Challenging paths — throughput (Mbps) and RTT (ms)",
        ["scenario", "scheme", "throughput", "RTT (ms)"],
        rows,
    )


if __name__ == "__main__":
    main()
