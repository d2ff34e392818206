"""Differential fault conformance: fluid vs packet engine.

The robustness sweep runs the same scenarios on both network engines, so
the two must agree on the *macro* semantics of every fault primitive: a
blackout zeroes delivery and throughput returns afterwards, a bandwidth
flap scales delivery by its factor, a loss burst raises the loss signal
only inside its window, a delay spike adds its extra delay to measured
RTT, a reorder window inflates the observed-loss signal.  These tests
drive a fixed-cwnd sender on each engine, bin both runs onto the same
grid through each engine's ``collect_stats``, and compare the binned
series inside / outside the fault window within documented tolerances.

Known modelled divergence (asserted as such below): the packet engine
approximates reordering as loss (goodput dips), while the fluid engine
keeps the goodput and only inflates the loss observation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LinkConfig
from repro.netsim import FluidNetwork, PacketNetwork
from repro.netsim.faults import (
    BandwidthFlap,
    Blackout,
    DelaySpike,
    FaultSchedule,
    LossBurst,
    ReorderWindow,
)

BIN_S = 0.25
TICK_S = 0.002
SECONDS = 12.0
FAULT = (4.0, 6.0)  # every fault occupies [4 s, 6 s)
MARGIN = 0.5        # settle margin around window edges when binning

# Small scenario grid: (link, cwnd that saturates it).  cwnd is ~1.6x the
# BDP so the pre-fault link runs at capacity with a standing queue.
GRID = [
    pytest.param(LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0,
                            buffer_bdp=2.0), 80.0, id="20mbps-30ms"),
    pytest.param(LinkConfig(bandwidth_mbps=48.0, rtt_ms=20.0,
                            buffer_bdp=2.0), 128.0, id="48mbps-20ms"),
]


def record(columns, k):
    """The binned observation of flow ``k`` of a collect."""
    return {"t": columns.time_s,
            "delivered_pps": columns.throughput_pps[k],
            "rtt_s": columns.avg_rtt_s[k],
            "lost": columns.lost_pkts[k],
            "sent": columns.sent_pkts[k]}


def fluid_series(link, cwnd, faults):
    return fluid_multi(link, [{"cwnd": cwnd}], faults=faults)[0]


def packet_series(link, cwnd, faults, seed=0):
    return packet_multi(link, [{"cwnd": cwnd}], seed=seed, faults=faults)[0]


def both(link, cwnd, *events):
    faults = FaultSchedule(tuple(events))
    return {"fluid": fluid_series(link, cwnd, faults),
            "packet": packet_series(link, cwnd, faults)}


def select(records, lo, hi):
    """Bins entirely inside (lo, hi] — ``t`` stamps the bin's end."""
    out = [r for r in records if r["t"] - BIN_S >= lo and r["t"] <= hi]
    assert out, f"no bins inside ({lo}, {hi}]"
    return out


def mean(records, key):
    return float(np.mean([r[key] for r in records]))


def loss_fraction(records):
    lost = sum(r["lost"] for r in records)
    sent = sum(r["sent"] for r in records)
    return lost / sent if sent else 0.0


def phases(records):
    """(pre, during, post) bins with settle margins at the edges."""
    return (select(records, 1.0, FAULT[0]),
            select(records, FAULT[0] + MARGIN, FAULT[1]),
            select(records, FAULT[1] + MARGIN, SECONDS))


@pytest.mark.parametrize("link,cwnd", GRID)
class TestBlackoutConformance:
    def test_zeroes_delivery_then_recovers(self, link, cwnd):
        runs = both(link, cwnd, Blackout(FAULT[0], FAULT[1] - FAULT[0]))
        for engine, records in runs.items():
            pre, during, post = phases(records)
            base = mean(pre, "delivered_pps")
            assert base > 0, engine
            assert mean(during, "delivered_pps") < 0.05 * base, engine
            assert mean(post, "delivered_pps") > 0.7 * base, engine

    def test_engines_agree_on_steady_state(self, link, cwnd):
        runs = both(link, cwnd, Blackout(FAULT[0], FAULT[1] - FAULT[0]))
        pre = {e: mean(phases(r)[0], "delivered_pps")
               for e, r in runs.items()}
        post = {e: mean(phases(r)[2], "delivered_pps")
                for e, r in runs.items()}
        assert pre["fluid"] == pytest.approx(pre["packet"], rel=0.15)
        assert post["fluid"] == pytest.approx(post["packet"], rel=0.20)


@pytest.mark.parametrize("link,cwnd", GRID)
class TestFlapConformance:
    FACTOR = 0.25

    def test_delivery_scales_by_factor(self, link, cwnd):
        runs = both(link, cwnd,
                    BandwidthFlap(FAULT[0], FAULT[1] - FAULT[0],
                                  factor=self.FACTOR))
        ratios = {}
        for engine, records in runs.items():
            pre, during, _ = phases(records)
            ratios[engine] = (mean(during, "delivered_pps")
                              / mean(pre, "delivered_pps"))
            assert ratios[engine] == pytest.approx(self.FACTOR, abs=0.15), \
                engine
        assert ratios["fluid"] == pytest.approx(ratios["packet"], abs=0.10)


@pytest.mark.parametrize("link,cwnd", GRID)
class TestLossBurstConformance:
    RATE = 0.2

    def test_loss_signal_confined_to_window(self, link, cwnd):
        runs = both(link, cwnd,
                    LossBurst(FAULT[0], FAULT[1] - FAULT[0],
                              loss_rate=self.RATE))
        for engine, records in runs.items():
            pre, during, post = phases(records)
            assert loss_fraction(during) == pytest.approx(self.RATE,
                                                          abs=0.08), engine
            assert loss_fraction(pre) < 0.02, engine
            assert loss_fraction(post) < 0.02, engine


@pytest.mark.parametrize("link,cwnd", GRID)
class TestDelaySpikeConformance:
    EXTRA_S = 0.040

    def test_rtt_raises_by_extra_delay(self, link, cwnd):
        runs = both(link, cwnd,
                    DelaySpike(FAULT[0], FAULT[1] - FAULT[0],
                               extra_ms=self.EXTRA_S * 1e3))
        bumps = {}
        for engine, records in runs.items():
            pre, during, _ = phases(records)
            bumps[engine] = mean(during, "rtt_s") - mean(pre, "rtt_s")
            assert bumps[engine] == pytest.approx(self.EXTRA_S,
                                                  abs=0.020), engine
        assert bumps["fluid"] == pytest.approx(bumps["packet"], abs=0.015)


@pytest.mark.parametrize("link,cwnd", GRID)
class TestReorderConformance:
    RATE = 0.2

    def test_spurious_loss_signal_in_both(self, link, cwnd):
        runs = both(link, cwnd,
                    ReorderWindow(FAULT[0], FAULT[1] - FAULT[0],
                                  rate=self.RATE))
        for engine, records in runs.items():
            pre, during, _ = phases(records)
            assert loss_fraction(during) > 0.1, engine
            assert loss_fraction(pre) < 0.02, engine

    def test_fluid_keeps_goodput_packet_drops_it(self, link, cwnd):
        # Documented divergence: the fluid engine models reordering as a
        # pure signal fault (goodput intact); the packet engine
        # approximates it as loss, so goodput dips during the window.
        runs = both(link, cwnd,
                    ReorderWindow(FAULT[0], FAULT[1] - FAULT[0],
                                  rate=self.RATE))
        pre_f, dur_f, _ = phases(runs["fluid"])
        assert mean(dur_f, "delivered_pps") == pytest.approx(
            mean(pre_f, "delivered_pps"), rel=0.10)
        pre_p, dur_p, _ = phases(runs["packet"])
        assert mean(dur_p, "delivered_pps") < \
            0.95 * mean(pre_p, "delivered_pps")


# ---------------------------------------------------------------------------
# Multi-flow workload-family conformance (incast, asymmetric-RTT,
# background-UDP).  Same method as above — fixed-cwnd senders, binned
# series on both engines — but with several flows, per-flow base RTTs,
# start/stop windows and pacing caps.  Flow specs are dicts:
# {cwnd, start, stop, extra_rtt_s, pacing_pps}; start/stop must land on
# bin edges so both engines see identical activity windows.
# ---------------------------------------------------------------------------

#: Shared bottleneck of the multi-flow tests (capacity ~1666.7 pkt/s).
MF_LINK = LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_bdp=2.0)
MF_CAPACITY_PPS = 20e6 / (1500 * 8)


def fluid_multi(link, specs, seconds=SECONDS, faults=None):
    """Bin ``specs`` on the fluid engine: one ``collect_stats`` over the
    running flows at every bin edge, flows added and removed on edges."""
    net = FluidNetwork(link, faults=faults)
    fids = [None] * len(specs)
    stopped = [False] * len(specs)
    records = [[] for _ in specs]
    per_bin = int(round(BIN_S / TICK_S))
    for b in range(int(round(seconds / BIN_S))):
        t0 = b * BIN_S
        for i, s in enumerate(specs):
            stop = s.get("stop", seconds)
            if fids[i] is not None and not stopped[i] and stop <= t0 + 1e-9:
                net.remove_flow(fids[i])
                stopped[i] = True
            if fids[i] is None and s.get("start", 0.0) <= t0 + 1e-9:
                fids[i] = net.add_flow(
                    base_rtt_s=link.rtt_ms / 1e3 + s.get("extra_rtt_s", 0.0),
                    cwnd_pkts=s["cwnd"], pacing_pps=s.get("pacing_pps"))
        for _ in range(per_bin):
            net.advance(TICK_S)
        running = [i for i in range(len(specs))
                   if fids[i] is not None and not stopped[i]]
        columns = net.collect_stats(net.slots([fids[i] for i in running]),
                                    net.now)
        for k, i in enumerate(running):
            records[i].append(record(columns, k))
    return records


def packet_multi(link, specs, seconds=SECONDS, seed=0, faults=None):
    """Bin ``specs`` on the packet engine (``mtp_s`` = one bin): one
    ``collect_stats`` over the flows stopped at each MTP event."""
    records = [[] for _ in specs]
    net = PacketNetwork(link, seed=seed, mtp_s=BIN_S, faults=faults)
    slots = net.slots(net.add_flows([
        {"base_rtt_s": link.rtt_ms / 1e3 + s.get("extra_rtt_s", 0.0),
         "cwnd_pkts": s["cwnd"], "pacing_pps": s.get("pacing_pps"),
         "start_s": s.get("start", 0.0), "stop_s": s.get("stop", np.inf)}
        for s in specs]))
    while net.now < seconds:
        net.advance_to(seconds)
        fired = np.flatnonzero(np.isfinite(net.instants(slots)))
        if len(fired):
            columns = net.collect_stats(slots[fired], net.now)
            for k, i in enumerate(fired):
                records[i].append(record(columns, k))
    return records


def both_multi(link, specs):
    return {"fluid": fluid_multi(link, specs),
            "packet": packet_multi(link, specs)}


def steady(records):
    """Bins after a 2 s warmup, for always-on flows."""
    return select(records, 2.0, SECONDS)


class TestIncastConformance:
    """One elephant vs a synchronized 4-flow burst in [4 s, 6 s).

    Combined demand during the burst (80 + 4 x 25 = 180 pkts) exceeds
    pipe + buffer (50 + 100), so the burst must fill the queue: the
    elephant's RTT inflates toward base + buffer/capacity (~+60 ms) and
    its delivery drops toward its cwnd share, on *both* engines.
    """

    SPECS = [{"cwnd": 80.0}] + [
        {"cwnd": 25.0, "start": FAULT[0], "stop": FAULT[1]}
        for _ in range(4)]

    def test_queue_buildup_and_recovery(self):
        runs = both_multi(MF_LINK, self.SPECS)
        bumps, shares = {}, {}
        for engine, records in runs.items():
            pre, during, post = phases(records[0])
            base = mean(pre, "delivered_pps")
            assert base > 0.8 * MF_CAPACITY_PPS, engine
            bumps[engine] = mean(during, "rtt_s") - mean(pre, "rtt_s")
            shares[engine] = mean(during, "delivered_pps") / base
            # Queue buildup: at least 20 ms of extra queueing delay.
            assert bumps[engine] > 0.020, engine
            # The elephant yields capacity to the burst, then recovers.
            assert shares[engine] < 0.8, engine
            assert mean(post, "delivered_pps") > 0.8 * base, engine
        assert bumps["fluid"] == pytest.approx(bumps["packet"], abs=0.025)
        assert shares["fluid"] == pytest.approx(shares["packet"], abs=0.15)

    def test_link_stays_saturated_through_burst(self):
        runs = both_multi(MF_LINK, self.SPECS)
        for engine, records in runs.items():
            total = sum(
                mean(select(r, FAULT[0] + MARGIN, FAULT[1]), "delivered_pps")
                for r in records)
            assert total == pytest.approx(MF_CAPACITY_PPS, rel=0.15), engine


class TestAsymmetricRttConformance:
    """Equal windows at base RTTs 30/90/150 ms on one bottleneck.

    Fixed-cwnd throughput is cwnd/RTT, so both engines must rank the
    flows by RTT — the raw-engine root of the RTT-unfairness the
    asymmetric-rtt family measures on full controllers.
    """

    SPECS = [{"cwnd": 40.0},
             {"cwnd": 40.0, "extra_rtt_s": 0.060},
             {"cwnd": 40.0, "extra_rtt_s": 0.120}]

    def test_throughput_ordering_matches(self):
        runs = both_multi(MF_LINK, self.SPECS)
        thr = {}
        for engine, records in runs.items():
            thr[engine] = [mean(steady(r), "delivered_pps") for r in records]
            # Strict ordering with a real gap, not a tie within noise.
            assert thr[engine][0] > 1.5 * thr[engine][1], engine
            assert thr[engine][1] > 1.2 * thr[engine][2], engine
        for i in range(len(self.SPECS)):
            assert thr["fluid"][i] == pytest.approx(thr["packet"][i],
                                                    rel=0.20), i

    def test_aggregate_saturates_link(self):
        runs = both_multi(MF_LINK, self.SPECS)
        for engine, records in runs.items():
            total = sum(mean(steady(r), "delivered_pps") for r in records)
            assert total == pytest.approx(MF_CAPACITY_PPS, rel=0.10), engine


class TestBackgroundUdpConformance:
    """A cwnd-limited flow vs an unresponsive 500 pkt/s paced blaster.

    The blaster never backs off (pacing cap, window never binding), so
    both engines must deliver it its full rate and leave the foreground
    flow exactly the residual capacity, with the link still saturated.
    """

    UDP_PPS = 500.0
    SPECS = [{"cwnd": 80.0},
             {"cwnd": 200.0, "pacing_pps": UDP_PPS}]

    def test_residual_capacity_split(self):
        runs = both_multi(MF_LINK, self.SPECS)
        fg = {}
        for engine, records in runs.items():
            fg[engine] = mean(steady(records[0]), "delivered_pps")
            udp = mean(steady(records[1]), "delivered_pps")
            # The blaster gets its configured rate...
            assert udp == pytest.approx(self.UDP_PPS, rel=0.10), engine
            # ...and the foreground flow the residual capacity.
            assert fg[engine] == pytest.approx(
                MF_CAPACITY_PPS - self.UDP_PPS, rel=0.10), engine
        assert fg["fluid"] == pytest.approx(fg["packet"], rel=0.10)
