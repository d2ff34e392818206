"""Per-flow monitors: observation delay, sRTT smoothing, MTP aggregation."""

from __future__ import annotations

import pytest

from repro.netsim.stats import FlowMonitor, IntervalWindow, MtpStats, \
    TickSample


def sample(time, avail_at, rtt=0.03, sent=10.0, delivered=9.0, lost=1.0,
           dt=0.002):
    return TickSample(time=time, avail_at=avail_at, dt=dt, rtt_s=rtt,
                      sent_pkts=sent, delivered_pkts=delivered,
                      lost_pkts=lost)


class TestFlowMonitor:
    def test_delayed_samples_invisible(self):
        mon = FlowMonitor(base_rtt_s=0.03)
        mon.push(sample(time=0.0, avail_at=1.0))
        stats = mon.collect(0.5, cwnd_pkts=10, pacing_pps=0,
                            pkts_in_flight=5)
        assert stats.sent_pkts == 0.0
        assert stats.throughput_pps == 0.0
        # Once time passes availability, the sample is aggregated.
        stats = mon.collect(1.5, cwnd_pkts=10, pacing_pps=0,
                            pkts_in_flight=5)
        assert stats.sent_pkts == 10.0
        assert stats.delivered_pkts == 9.0

    def test_throughput_is_rate_over_observed_window(self):
        mon = FlowMonitor(base_rtt_s=0.03)
        for i in range(10):
            mon.push(sample(time=i * 0.002, avail_at=0.0, delivered=2.0,
                            lost=0.0))
        stats = mon.collect(0.03, cwnd_pkts=10, pacing_pps=0,
                            pkts_in_flight=5)
        # 20 packets over 10 ticks of 2 ms = 1000 pkt/s.
        assert stats.throughput_pps == pytest.approx(1000.0)

    def test_srtt_converges_to_observed(self):
        mon = FlowMonitor(base_rtt_s=0.03)
        for _ in range(200):
            mon.observe_rtt(0.06)
        assert mon.srtt_s == pytest.approx(0.06, rel=0.01)

    def test_empty_collection_reuses_srtt(self):
        mon = FlowMonitor(base_rtt_s=0.05)
        stats = mon.collect(1.0, cwnd_pkts=10, pacing_pps=100,
                            pkts_in_flight=3)
        assert stats.avg_rtt_s == pytest.approx(0.05)
        assert stats.min_rtt_s == pytest.approx(0.05)


class TestIntervalWindow:
    """The packet / socket runners' interval counters."""

    RTTS = [0.031, 0.0875, 0.02, 0.0523, 0.04100000000000001, 0.3]

    def test_srtt_fold_is_flow_monitors_bit_for_bit(self):
        window = IntervalWindow(base_rtt_s=0.03)
        mon = FlowMonitor(base_rtt_s=0.03)
        for i, rtt in enumerate(self.RTTS):
            window.observe_rtt(rtt, weight=1.0 + i)
            mon.observe_rtt(rtt)
            assert window.srtt_s.hex() == mon.srtt_s.hex()
        stats = window.close(1.0, pkts_in_flight=0.0, cwnd_pkts=10.0,
                             pacing_pps=None)
        assert stats.srtt_s.hex() == mon.srtt_s.hex()

    def test_empty_interval_reuses_srtt_for_mean_and_min(self):
        window = IntervalWindow(base_rtt_s=0.03)
        window.observe_rtt(0.06)
        window.close(0.5, 0.0, 10.0, None)  # drain the sample
        window.add(sent=4.0, delivered=0.0, lost=4.0)
        stats = window.close(1.0, 0.0, 10.0, None)
        assert stats.avg_rtt_s == stats.min_rtt_s == window.srtt_s
        assert stats.srtt_s == window.srtt_s != 0.03
        assert stats.throughput_pps == 0.0 and stats.loss_rate == 1.0

    def test_mean_is_delivered_weighted_and_min_unweighted(self):
        window = IntervalWindow(base_rtt_s=0.03, start_s=2.0)
        window.add(sent=30.0, delivered=27.0, lost=3.0)
        window.observe_rtt(0.04, weight=20.0)
        window.observe_rtt(0.10, weight=7.0)
        stats = window.close(2.5, pkts_in_flight=6.0, cwnd_pkts=40.0,
                             pacing_pps=900.0)
        assert stats.avg_rtt_s == (0.04 * 20.0 + 0.10 * 7.0) / 27.0
        assert stats.min_rtt_s == 0.04
        assert stats.throughput_pps == 27.0 / 0.5
        assert (stats.sent_pkts, stats.delivered_pkts, stats.lost_pkts) \
            == (30.0, 27.0, 3.0)
        assert (stats.time_s, stats.pkts_in_flight, stats.cwnd_pkts,
                stats.pacing_pps) == (2.5, 6.0, 40.0, 900.0)

    def test_close_resets_counters_and_starts_the_next_interval(self):
        window = IntervalWindow(base_rtt_s=0.03, start_s=1.0)
        window.add(10.0, 9.0, 1.0)
        window.observe_rtt(0.05)
        first = window.close(1.3, 0.0, 10.0, None)
        assert first.duration_s == pytest.approx(0.3)
        assert first.pacing_pps == 0.0  # unpaced reads as 0
        srtt = window.srtt_s
        second = window.close(1.42, 0.0, 10.0, None)
        assert second.duration_s == pytest.approx(0.12)
        assert (second.sent_pkts, second.delivered_pkts,
                second.lost_pkts) == (0.0, 0.0, 0.0)
        # The srtt carries across intervals; the per-interval RTT
        # statistics do not.
        assert second.avg_rtt_s == second.min_rtt_s == srtt == \
            window.srtt_s
        # Two closes at one instant still yield a positive duration.
        assert window.close(1.42, 0.0, 10.0, None).duration_s == 1e-9


class TestMtpStats:
    def make(self, **kwargs):
        defaults = dict(time_s=1.0, duration_s=0.03, throughput_pps=1000.0,
                        avg_rtt_s=0.04, min_rtt_s=0.03, sent_pkts=40.0,
                        delivered_pkts=30.0, lost_pkts=10.0,
                        pkts_in_flight=20.0, cwnd_pkts=25.0,
                        pacing_pps=1200.0, srtt_s=0.04)
        defaults.update(kwargs)
        return MtpStats(**defaults)

    def test_loss_rate(self):
        assert self.make().loss_rate == pytest.approx(0.25)
        assert self.make(sent_pkts=0.0).loss_rate == 0.0

    def test_loss_rate_capped_at_one(self):
        assert self.make(lost_pkts=100.0, sent_pkts=40.0).loss_rate == 1.0

    def test_throughput_mbps(self):
        # 1000 pkt/s * 12000 bits = 12 Mbps.
        assert self.make().throughput_mbps == pytest.approx(12.0)

    def test_loss_pps(self):
        assert self.make().loss_pps == pytest.approx(10.0 / 0.03)
        assert self.make(duration_s=0.0).loss_pps == 0.0


class TestRingBuffer:
    """Growable-ring internals: growth, compaction and partial drains."""

    def collect(self, mon, now):
        return mon.collect(now, cwnd_pkts=10, pacing_pps=0, pkts_in_flight=0)

    def test_growth_past_initial_capacity(self):
        from repro.netsim.stats import _INITIAL_CAPACITY

        mon = FlowMonitor(base_rtt_s=0.03)
        n = _INITIAL_CAPACITY * 3 + 7
        for i in range(n):
            mon.push(sample(time=i * 0.002, avail_at=i * 0.002))
        assert len(mon) == n
        stats = self.collect(mon, now=n * 0.002)
        assert stats.sent_pkts == pytest.approx(10.0 * n)
        assert len(mon) == 0

    def test_partial_drain_then_refill_compacts(self):
        mon = FlowMonitor(base_rtt_s=0.03)
        # Fill, drain half, then push enough that the live region must be
        # shifted to the front rather than the buffer regrown.
        for i in range(60):
            mon.push(sample(time=i * 1.0, avail_at=i * 1.0))
        stats = self.collect(mon, now=29.5)
        assert stats.sent_pkts == pytest.approx(300.0)
        assert len(mon) == 30
        for i in range(60, 90):
            mon.push(sample(time=i * 1.0, avail_at=i * 1.0))
        assert len(mon) == 60
        stats = self.collect(mon, now=1000.0)
        assert stats.sent_pkts == pytest.approx(600.0)

    def test_partial_drain_stops_at_first_unobservable(self):
        # Availability is NOT monotone here: a later sample becomes
        # observable before an earlier one.  The drain must stop at the
        # first unobservable sample (prefix semantics), leaving the
        # already-observable later one queued.
        mon = FlowMonitor(base_rtt_s=0.03)
        mon.push(sample(time=0.0, avail_at=1.0, sent=1.0))
        mon.push(sample(time=0.1, avail_at=5.0, sent=2.0))
        mon.push(sample(time=0.2, avail_at=2.0, sent=4.0))
        stats = self.collect(mon, now=2.5)
        assert stats.sent_pkts == 1.0  # only the prefix
        assert len(mon) == 2
        stats = self.collect(mon, now=5.0)
        assert stats.sent_pkts == 6.0
        assert len(mon) == 0

    def test_pending_samples_mirror_the_ring(self):
        mon = FlowMonitor(base_rtt_s=0.03)
        mon.push(sample(time=0.5, avail_at=0.6))
        view = mon.pending_samples()
        assert len(view) == 1
        assert view[0].time == 0.5
        assert view[0].avail_at == 0.6

    def test_srtt_fold_is_sequential(self):
        # The EWMA is order-dependent: folding samples one at a time must
        # give the same srtt as a blockwise collect.
        rtts = [0.03, 0.08, 0.02, 0.05, 0.04]
        a = FlowMonitor(base_rtt_s=0.03)
        for i, r in enumerate(rtts):
            a.push(sample(time=i * 0.002, avail_at=0.0, rtt=r))
            self.collect(a, now=0.1 + i)  # drain one sample at a time
        b = FlowMonitor(base_rtt_s=0.03)
        for i, r in enumerate(rtts):
            b.push(sample(time=i * 0.002, avail_at=0.0, rtt=r))
        self.collect(b, now=10.0)
        assert a.srtt_s == b.srtt_s

    def test_full_drain_resets_to_sorted(self):
        mon = FlowMonitor(base_rtt_s=0.03)
        mon.push(sample(time=0.0, avail_at=2.0))
        mon.push(sample(time=0.1, avail_at=1.0))  # breaks monotonicity
        assert not mon._avail_sorted
        self.collect(mon, now=5.0)
        assert len(mon) == 0
        assert mon._avail_sorted
        mon.push(sample(time=0.2, avail_at=3.0))
        assert mon._avail_sorted

    def test_capacity_bounded_under_repeated_collect_cycles(self):
        from repro.netsim.stats import _INITIAL_CAPACITY

        mon = FlowMonitor(base_rtt_s=0.03)
        # A long run: many push-then-collect cycles of a steady 16
        # samples per MTP.  Peak capacity must stay proportional to the
        # per-cycle live size, never to the total sample history.
        peak = 0
        for cycle in range(200):
            base = cycle * 16
            for i in range(16):
                t = (base + i) * 0.002
                mon.push(sample(time=t, avail_at=t))
            peak = max(peak, mon.capacity)
            self.collect(mon, now=(base + 16) * 0.002)
            peak = max(peak, mon.capacity)
        assert peak <= _INITIAL_CAPACITY

    def test_capacity_shrinks_after_burst(self):
        from repro.netsim.stats import _INITIAL_CAPACITY

        mon = FlowMonitor(base_rtt_s=0.03)
        # A delay spike piles up far more undrained samples than steady
        # state ever holds...
        n = _INITIAL_CAPACITY * 16
        for i in range(n):
            mon.push(sample(time=i * 0.002, avail_at=i * 0.002))
        assert mon.capacity >= n
        stats = self.collect(mon, now=n * 0.002)
        assert stats.sent_pkts == pytest.approx(10.0 * n)
        # ...and once the burst drains, the buffer is released instead of
        # holding the high-water mark for the rest of the run.
        assert mon.capacity == _INITIAL_CAPACITY

    def test_partial_drain_compacts_consumed_prefix(self):
        mon = FlowMonitor(base_rtt_s=0.03)
        for i in range(40):
            mon.push(sample(time=i * 1.0, avail_at=i * 1.0))
        self.collect(mon, now=29.5)
        assert len(mon) == 10
        # The consumed prefix was compacted away immediately: the live
        # region sits at the front of the buffer.
        assert mon._start == 0
        assert mon._end == 10

    def test_compaction_preserves_stats(self):
        a = FlowMonitor(base_rtt_s=0.03)
        b = FlowMonitor(base_rtt_s=0.03)
        rtts = [0.03, 0.05, 0.02, 0.08, 0.04, 0.06]
        for i, r in enumerate(rtts):
            a.push(sample(time=i * 1.0, avail_at=i * 1.0, rtt=r))
            b.push(sample(time=i * 1.0, avail_at=i * 1.0, rtt=r))
        # a: two partial drains (compaction in between); b: one full one.
        s1 = self.collect(a, now=2.5)
        s2 = self.collect(a, now=100.0)
        sb = self.collect(b, now=100.0)
        assert a.srtt_s == b.srtt_s
        assert s1.sent_pkts + s2.sent_pkts == sb.sent_pkts
        assert s1.delivered_pkts + s2.delivered_pkts == sb.delivered_pkts
