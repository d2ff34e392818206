"""Fault-injection subsystem: primitives, schedules, and both engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import LinkConfig, ScenarioConfig
from repro.errors import ConfigError
from repro.netsim import FluidNetwork, PacketNetwork
from repro.netsim.faults import (
    MAX_FAULT_LOSS,
    BandwidthFlap,
    Blackout,
    DelaySpike,
    FaultSchedule,
    LossBurst,
    ReorderWindow,
)


class TestEvents:
    def test_window_semantics(self):
        e = Blackout(2.0, 1.0)
        assert not e.active(1.999)
        assert e.active(2.0)
        assert e.active(2.999)
        assert not e.active(3.0)
        assert e.end_s == 3.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Blackout(-1.0, 1.0)
        with pytest.raises(ConfigError):
            Blackout(0.0, 0.0)
        with pytest.raises(ConfigError):
            BandwidthFlap(0.0, 1.0, factor=0.0)
        with pytest.raises(ConfigError):
            LossBurst(0.0, 1.0, loss_rate=1.5)
        with pytest.raises(ConfigError):
            DelaySpike(0.0, 1.0, extra_ms=-5.0)
        with pytest.raises(ConfigError):
            ReorderWindow(0.0, 1.0, rate=0.0)

    def test_events_are_immutable(self):
        e = LossBurst(0.0, 1.0, loss_rate=0.1)
        with pytest.raises(Exception):
            e.loss_rate = 0.5


class TestSchedule:
    def test_empty_schedule_is_falsy_and_neutral(self):
        s = FaultSchedule()
        assert not s
        assert s.bandwidth_multiplier(1.0) == 1.0
        assert s.extra_loss(1.0) == 0.0
        assert s.spurious_loss(1.0) == 0.0
        assert s.extra_delay_s(1.0) == 0.0
        assert s.blackout_until(1.0) is None
        assert s.end_s == 0.0

    def test_rejects_non_events(self):
        with pytest.raises(ConfigError):
            FaultSchedule(events=("blackout",))

    def test_blackout_dominates_multiplier(self):
        s = FaultSchedule((Blackout(1.0, 1.0),
                           BandwidthFlap(0.5, 3.0, factor=0.5)))
        assert s.bandwidth_multiplier(0.7) == 0.5
        assert s.bandwidth_multiplier(1.5) == 0.0
        assert s.bandwidth_multiplier(2.5) == 0.5

    def test_overlapping_flaps_compose_multiplicatively(self):
        s = FaultSchedule((BandwidthFlap(0.0, 2.0, factor=0.5),
                           BandwidthFlap(1.0, 2.0, factor=0.4)))
        assert s.bandwidth_multiplier(1.5) == pytest.approx(0.2)

    def test_loss_and_delay_add_and_cap(self):
        s = FaultSchedule((LossBurst(0.0, 1.0, loss_rate=0.6),
                           LossBurst(0.0, 1.0, loss_rate=0.6),
                           DelaySpike(0.0, 1.0, extra_ms=30.0),
                           DelaySpike(0.0, 1.0, extra_ms=20.0)))
        assert s.extra_loss(0.5) == MAX_FAULT_LOSS
        assert s.extra_delay_s(0.5) == pytest.approx(0.050)

    def test_blackout_until_follows_chained_blackouts(self):
        s = FaultSchedule((Blackout(1.0, 1.0), Blackout(1.5, 2.0)))
        assert s.blackout_until(1.2) == pytest.approx(3.5)
        assert s.blackout_until(0.5) is None

    def test_sample_deterministic_per_seed(self):
        a = FaultSchedule.sample(60.0, seed=7)
        b = FaultSchedule.sample(60.0, seed=7)
        assert a.to_dicts() == b.to_dicts()
        assert 1 <= len(a.events) <= 3
        for e in a.events:
            assert 0.1 * 60.0 <= e.start_s <= 0.9 * 60.0
            assert 0.02 * 60.0 <= e.duration_s <= 0.15 * 60.0
        # Different seeds draw different schedules (overwhelmingly).
        others = [FaultSchedule.sample(60.0, seed=s).to_dicts()
                  for s in range(8, 16)]
        assert any(o != a.to_dicts() for o in others)

    def test_sample_kind_filter_and_validation(self):
        s = FaultSchedule.sample(60.0, seed=3, kinds=("blackout",),
                                 max_events=2)
        assert all(isinstance(e, Blackout) for e in s.events)
        with pytest.raises(ConfigError):
            FaultSchedule.sample(60.0, seed=0, kinds=("meteor-strike",))
        with pytest.raises(ConfigError):
            FaultSchedule.sample(0.0, seed=0)
        with pytest.raises(ConfigError):
            FaultSchedule.sample(60.0, seed=0, max_events=0)

    def test_round_trip_and_describe(self):
        s = FaultSchedule((Blackout(1.0, 0.5),
                           BandwidthFlap(2.0, 1.0, factor=0.3),
                           LossBurst(3.0, 1.0, loss_rate=0.1),
                           DelaySpike(4.0, 1.0, extra_ms=40.0),
                           ReorderWindow(5.0, 1.0, rate=0.05)))
        again = FaultSchedule.from_dicts(s.to_dicts())
        assert again == s
        text = s.describe()
        for kind in ("blackout", "flap", "loss-burst", "delay-spike",
                     "reorder"):
            assert kind in text
        assert FaultSchedule().describe() == "(no faults)"

    def test_from_dicts_rejects_garbage(self):
        with pytest.raises(ConfigError):
            FaultSchedule.from_dicts([{"kind": "nope", "start_s": 0,
                                       "duration_s": 1}])
        with pytest.raises(ConfigError):
            FaultSchedule.from_dicts([{"kind": "blackout", "start_s": 0,
                                       "duration_s": 1, "bogus": 2}])


LINK = LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_bdp=1.0)


def _run_fluid(faults, seconds=4.0, dt=0.002, cwnd=200.0):
    net = FluidNetwork(LINK, seed=0, faults=faults)
    fid = net.add_flow(base_rtt_s=0.030, cwnd_pkts=cwnd)
    samples = []
    for _ in range(int(seconds / dt)):
        net.advance(dt)
        samples.append((net.now, net.flow_goodput_pps(fid),
                        net.flow_rtt_s(fid), net.queue_pkts()))
    return net, fid, samples


class TestFluidEngine:
    def test_blackout_stalls_delivery_then_recovers(self):
        faults = FaultSchedule((Blackout(1.0, 0.5),))
        net, fid, samples = _run_fluid(faults)
        during = [g for t, g, _, _ in samples if 1.1 <= t < 1.5]
        after = [g for t, g, _, _ in samples if t >= 3.0]
        assert max(during) == pytest.approx(0.0, abs=1e-9)
        assert np.mean(after) > 100.0  # service resumed

    def test_blackout_keeps_rtt_finite(self):
        faults = FaultSchedule((Blackout(1.0, 0.5),))
        _, _, samples = _run_fluid(faults)
        rtts = [r for _, _, r, _ in samples]
        assert np.isfinite(rtts).all()

    def test_flap_shrinks_goodput_proportionally(self):
        faults = FaultSchedule((BandwidthFlap(1.0, 2.0, factor=0.25),))
        net, fid, samples = _run_fluid(faults, seconds=3.0)
        from repro.units import mbps_to_pps

        cap = net.link_capacity_pps()  # still inside the flap at t=3.0
        during = [g for t, g, _, _ in samples if 2.0 <= t < 3.0]
        baseline = [g for t, g, _, _ in samples if 0.7 <= t < 1.0]
        assert cap == pytest.approx(0.25 * mbps_to_pps(LINK.bandwidth_mbps),
                                    rel=1e-6)
        assert np.mean(during) == pytest.approx(0.25 * np.mean(baseline),
                                                rel=0.1)

    def test_loss_burst_inflates_observed_loss(self):
        faults = FaultSchedule((LossBurst(1.0, 1.0, loss_rate=0.2),))
        net, fid, _ = _run_fluid(faults, seconds=1.5, cwnd=40.0)
        assert net.flow_lost_pkts(fid) > 0

    def test_delay_spike_raises_rtt_by_extra(self):
        faults = FaultSchedule((DelaySpike(1.0, 1.0, extra_ms=50.0),))
        _, _, samples = _run_fluid(faults, seconds=2.0, cwnd=10.0)
        rtt_before = np.mean([r for t, _, r, _ in samples if 0.5 <= t < 1.0])
        rtt_during = np.mean([r for t, _, r, _ in samples if 1.2 <= t < 2.0])
        assert rtt_during - rtt_before == pytest.approx(0.050, abs=0.005)

    def test_reorder_signals_loss_without_goodput_hit(self):
        faults = FaultSchedule((ReorderWindow(1.0, 2.0, rate=0.1),))
        net, fid, samples = _run_fluid(faults, seconds=3.0, cwnd=40.0)
        clean_net, clean_fid, clean_samples = _run_fluid(None, seconds=3.0,
                                                         cwnd=40.0)
        during = np.mean([g for t, g, _, _ in samples if 1.5 <= t < 3.0])
        clean = np.mean([g for t, g, _, _ in clean_samples if 1.5 <= t < 3.0])
        assert during == pytest.approx(clean, rel=0.01)  # goodput kept
        assert net.flow_lost_pkts(fid) > \
            clean_net.flow_lost_pkts(clean_fid)

    def test_identical_seeds_are_bit_identical(self):
        faults = FaultSchedule.sample(4.0, seed=11)
        _, _, a = _run_fluid(faults)
        _, _, b = _run_fluid(faults)
        assert a == b


class TestPacketEngine:
    def test_blackout_reduces_delivery_and_is_deterministic(self):
        faults = FaultSchedule((Blackout(1.0, 1.0),))

        def run(faults):
            net = PacketNetwork(LINK, seed=0, faults=faults)
            fid = net.add_flow(base_rtt_s=0.030, cwnd=100.0)
            net.run(4.0)
            s = net.stats(fid)
            return s.sent, s.delivered, s.lost, s.avg_rtt_s

        faulted_a = run(faults)
        faulted_b = run(faults)
        clean = run(None)
        assert faulted_a == faulted_b  # deterministic per seed
        # A 1 s outage on a 4 s run removes roughly a quarter of service.
        assert faulted_a[1] < 0.85 * clean[1]

    def test_loss_burst_and_delay_spike(self):
        faults = FaultSchedule((LossBurst(0.5, 2.0, loss_rate=0.2),))
        net = PacketNetwork(LINK, seed=0, faults=faults)
        fid = net.add_flow(base_rtt_s=0.030, cwnd=20.0)
        net.run(3.0)
        assert net.stats(fid).lost > 0

        faults = FaultSchedule((DelaySpike(0.0, 3.0, extra_ms=60.0),))
        net = PacketNetwork(LINK, seed=0, faults=faults)
        fid = net.add_flow(base_rtt_s=0.030, cwnd=5.0)
        net.run(3.0)
        assert net.stats(fid).avg_rtt_s == pytest.approx(0.090, rel=0.1)


class TestScenarioIntegration:
    def test_scenario_config_validates_faults(self):
        link = LinkConfig(bandwidth_mbps=20.0, rtt_ms=30.0, buffer_bdp=1.0)
        from repro.config import FlowConfig

        flows = (FlowConfig(cc="cubic", start_s=0.0),)
        sc = ScenarioConfig(link=link, flows=flows, duration_s=5.0,
                            faults=FaultSchedule((Blackout(1.0, 0.5),)))
        assert sc.faults
        with pytest.raises(ConfigError):
            ScenarioConfig(link=link, flows=flows, duration_s=5.0,
                           faults="blackout at noon")

    def test_run_scenario_applies_faults(self):
        from repro.scenarios import robustness_scenario
        from repro.env import run_scenario

        scenario = robustness_scenario("cubic", kind="blackout", quick=True)
        result = run_scenario(scenario)
        assert len(result.flows) == 2
        # The blackout window (t in [12, 12.9)) shows up as a throughput
        # hole in the per-interval logs.
        log = result.flows[0]
        during = [thr for t, thr in zip(log.times, log.throughput_mbps)
                  if 12.3 <= t < 12.9]
        after = [thr for t, thr in zip(log.times, log.throughput_mbps)
                 if t >= 20.0]
        assert during and max(during) < 1.0
        assert np.mean(after) > 10.0

    def test_robustness_family_builders(self):
        from repro.scenarios import ROBUSTNESS_KINDS, robustness_scenario

        for kind in ROBUSTNESS_KINDS:
            sc = robustness_scenario("cubic", kind=kind, quick=True, seed=2)
            assert sc.faults is not None and sc.faults
            assert sc.faults.end_s <= sc.duration_s
        with pytest.raises(ConfigError):
            robustness_scenario("cubic", kind="earthquake")

    def test_scenario_json_round_trip(self):
        from repro.scenarios import robustness_scenario
        from repro.persist import scenario_from_dict, scenario_to_dict

        sc = robustness_scenario("cubic", kind="mixed", quick=True, seed=5)
        again = scenario_from_dict(scenario_to_dict(sc))
        assert again.faults == sc.faults


class TestEdgeWindows:
    """Faults at t=0, faults outliving the episode, sub-MTP windows.

    Every edge placement must yield well-defined, finite statistics on
    BOTH engines — and a well-defined recovery report downstream.
    """

    def _run_packet(self, faults, seconds=4.0, cwnd=100.0, seed=0):
        net = PacketNetwork(LINK, seed=seed, faults=faults)
        fid = net.add_flow(base_rtt_s=0.030, cwnd=cwnd)
        net.run(seconds)
        return net.stats(fid)

    # -- fault starting at t = 0 ------------------------------------

    def test_blackout_at_zero_fluid(self):
        faults = FaultSchedule((Blackout(0.0, 0.5),))
        net, fid, samples = _run_fluid(faults)
        during = [g for t, g, _, _ in samples if t < 0.5]
        after = [g for t, g, _, _ in samples if t >= 2.0]
        assert max(during) == pytest.approx(0.0, abs=1e-9)
        assert np.mean(after) > 100.0
        assert np.isfinite([r for _, _, r, _ in samples]).all()

    def test_blackout_at_zero_packet(self):
        stats = self._run_packet(FaultSchedule((Blackout(0.0, 0.5),)))
        assert stats.delivered > 0          # service resumed after t=0.5
        assert np.isfinite(stats.avg_rtt_s)
        assert stats.sent >= stats.delivered

    # -- fault extending past the episode end -----------------------

    def test_fault_outliving_run_fluid(self):
        faults = FaultSchedule((Blackout(3.0, 10.0),))
        net, fid, samples = _run_fluid(faults)  # 4 s run, fault to t=13
        tail = [g for t, g, _, _ in samples if t >= 3.2]
        head = [g for t, g, _, _ in samples if 1.0 <= t < 3.0]
        assert max(tail) == pytest.approx(0.0, abs=1e-9)
        assert np.mean(head) > 100.0
        assert np.isfinite([r for _, _, r, _ in samples]).all()

    def test_fault_outliving_run_packet(self):
        faulted = self._run_packet(FaultSchedule((Blackout(3.0, 10.0),)))
        clean = self._run_packet(None)
        # The last quarter of service is gone, nothing else breaks.
        assert 0 < faulted.delivered < 0.85 * clean.delivered
        assert np.isfinite(faulted.avg_rtt_s)

    # -- fault window shorter than one MTP --------------------------

    def test_sub_mtp_fault_fluid(self):
        # 10 ms burst < 30 ms MTP: still visible as loss, nothing NaN.
        faults = FaultSchedule((LossBurst(1.0, 0.010, loss_rate=0.5),))
        net, fid, samples = _run_fluid(faults, cwnd=40.0)
        assert net.flow_lost_pkts(fid) > 0
        assert np.isfinite([g for _, g, _, _ in samples]).all()

    def test_sub_mtp_fault_packet(self):
        faulted = self._run_packet(
            FaultSchedule((LossBurst(1.0, 0.010, loss_rate=0.5),)),
            cwnd=20.0)
        clean = self._run_packet(None, cwnd=20.0)
        assert faulted.lost >= clean.lost
        assert faulted.delivered > 0
        assert np.isfinite(faulted.avg_rtt_s)

    # -- downstream: recovery reports stay well-defined --------------

    @pytest.mark.parametrize("engine", ["fluid", "packet"])
    @pytest.mark.parametrize("faults", [
        FaultSchedule((Blackout(0.0, 0.9),)),
        FaultSchedule((Blackout(25.0, 30.0),)),
        FaultSchedule((LossBurst(12.0, 0.010, loss_rate=0.5),)),
    ], ids=["at-zero", "past-end", "sub-mtp"])
    def test_recovery_report_well_defined(self, engine, faults):
        from dataclasses import replace

        from repro.env import run_engine_scenario
        from repro.scenarios import robustness_scenario
        from repro.metrics.recovery import recovery_report

        sc = replace(robustness_scenario("cubic", kind="blackout",
                                         quick=True), faults=faults)
        rep = recovery_report(run_engine_scenario(sc, engine), faults)
        # Finite where promised; the sentinel (inf) only for recovery
        # times, never NaN leaking out of edge windows.
        assert np.isfinite(rep.baseline_mbps)
        assert np.isfinite(rep.peak_rtt_overshoot_ms)
        assert np.isfinite(rep.goodput_lost_mbit)
        assert rep.goodput_lost_mbit >= 0.0
        assert not np.isnan(rep.recovery_time_s)
        if faults.events[0].end_s >= sc.duration_s:
            assert not rep.recovered  # no post-fault window to recover in
        else:
            assert rep.recovered
