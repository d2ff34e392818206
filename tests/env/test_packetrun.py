"""Packet-engine scenario runner: flow windows and trace rejection."""

from __future__ import annotations

import pytest

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.env import run_scenario_packet
from repro.errors import SimulationError
from repro.scenarios import build_scenario


def link():
    return LinkConfig(bandwidth_mbps=50.0, rtt_ms=20.0, buffer_bdp=2.0)


class TestFlowWindows:
    def test_staggered_arrival_runs_and_logs_inside_window(self):
        scenario = ScenarioConfig(
            link=link(),
            flows=(FlowConfig(cc="cubic", start_s=0.0),
                   FlowConfig(cc="cubic", start_s=4.0, duration_s=4.0)),
            duration_s=10.0, seed=0)
        result = run_scenario_packet(scenario)
        late = result.flows[1]
        assert late.start_s == 4.0 and late.end_s == 8.0
        assert late.times, "late flow produced no records"
        assert min(late.times) >= 4.0
        # The final control window flushes on the first MTP tick at or
        # after the stop, so the last record may trail by one interval.
        assert max(late.times) <= 8.0 + scenario.mtp_s + 1e-9
        assert max(late.throughput_mbps) > 0

    def test_incumbent_yields_during_the_late_flow(self):
        import numpy as np

        scenario = ScenarioConfig(
            link=link(),
            flows=(FlowConfig(cc="cubic", start_s=0.0),
                   FlowConfig(cc="cubic", start_s=4.0, duration_s=4.0)),
            duration_s=10.0, seed=0)
        result = run_scenario_packet(scenario)
        first = result.flows[0]
        t = np.asarray(first.times)
        thr = np.asarray(first.throughput_mbps)
        alone = thr[(t > 2.0) & (t <= 4.0)].mean()
        shared = thr[(t > 5.0) & (t <= 8.0)].mean()
        # CUBIC converges slowly against a queue-owning incumbent, so
        # only a modest share moves in 4 s — but it must move.
        assert shared < 0.95 * alone

    def test_incast_family_runs_on_the_packet_engine(self):
        scenario = build_scenario("incast", cc="cubic", quick=True, seed=0,
                                  n_senders=3)
        result = run_scenario_packet(scenario)
        assert len(result.flows) == len(scenario.flows)
        assert all(f.times for f in result.flows)

    def test_traced_scenario_still_rejected(self):
        scenario = build_scenario("fig13", cc="cubic", quick=True)
        with pytest.raises(SimulationError, match="capacity traces"):
            run_scenario_packet(scenario)


class TestGolden:
    """Pinned per-flow outcomes of a seeded packet-engine run.

    Five classical schemes (no BLAS anywhere on the path, so the values
    are host-independent) with staggered starts and unequal RTTs, clean
    and under a blackout, a loss burst and a delay spike.  Any change to
    how the engine folds its counters into ``MtpStats``, when a flow
    decides, or how the driver decides and logs shows up here — the
    digests pin every logged value bit for bit; update the constants
    only when the semantics change on purpose.
    """

    #: (scheme, start_s, extra_rtt_ms) per flow.
    FLOWS = (("cubic", 0.0, 0.0), ("reno", 0.4, 15.0), ("vegas", 0.9, 0.0),
             ("bbr", 1.3, 30.0), ("vivace", 1.8, 5.0))

    #: Per flow: (mean throughput Mbps, mean RTT s, mean loss rate,
    #: final cwnd pkts).
    GOLDEN = {
        "clean": (
            (11.226130653266324, 0.06905940376543361,
             0.0024538891321808022, 42.909444072696786),
            (1.012903225806451, 0.0839812442481274,
             0.14269163050996667, 4.358872756577188),
            (1.0999999999999992, 0.07055289065772115, 0.0, 6.0),
            (17.730769230769223, 0.10217450113900171,
             0.1243567684688541, 191.9999999999984),
            (3.175886524822682, 0.07752064248551975,
             0.1625645083478619, 51.762252179941626),
        ),
        "faults": (
            (9.764824120603011, 0.07545324214047291,
             0.0058784049717129, 28.559388207413132),
            (1.154838709677417, 0.09260001356303588,
             0.09690310004401685, 4.115913315152987),
            (0.8419354838709671, 0.07076878572571856,
             0.081605222734255, 4.0),
            (18.897435897435855, 0.10750321218419899,
             0.1911324970689344, 255.99999999999787),
            (1.122814814814815, 0.08769033158887671,
             0.2640207257300181, 12.473506861261127),
        ),
    }

    #: Per flow: blake2b digest of every ``FlowLog`` field — the whole
    #: trajectory, bit for bit (see :meth:`digest`).
    DIGESTS = {
        "clean": ("2cbf940629dfb8ee", "ac3b24a92dbe8016", "7f4d542cdf9ceb48",
                  "0a75e8c63c358b53", "573f1089c794c8ae"),
        "faults": ("c187cb4001490659", "c745b97a458bf97e",
                   "f5b37741e50e90de", "0d91b630a2b6a361",
                   "19828f7132aaffe8"),
    }

    @classmethod
    def scenario(cls, case):
        from repro.netsim.faults import (
            Blackout,
            DelaySpike,
            FaultSchedule,
            LossBurst,
        )

        faults = FaultSchedule((
            Blackout(2.5, 0.4), LossBurst(3.5, 0.6, loss_rate=0.05),
            DelaySpike(4.5, 0.5, extra_ms=40.0))) if case == "faults" \
            else None
        return ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=30.0, rtt_ms=30.0,
                            buffer_bdp=1.5),
            flows=tuple(FlowConfig(cc=cc, start_s=start, extra_rtt_ms=extra)
                        for cc, start, extra in cls.FLOWS),
            duration_s=6.0, seed=3, faults=faults)

    @staticmethod
    def digest(log):
        from hashlib import blake2b

        h = blake2b(digest_size=8)
        h.update(repr((log.cc_name, log.start_s, log.end_s)).encode())
        for name, values in sorted(log.as_arrays().items()):
            h.update(name.encode())
            h.update(values.astype("<f8").tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_pinned_flows(self, case):
        import numpy as np

        result = run_scenario_packet(self.scenario(case))
        for i, (log, want) in enumerate(zip(result.flows,
                                            self.GOLDEN[case])):
            got = (result.flow_mean_throughput(i), float(np.mean(log.rtt_s)),
                   float(np.mean(log.loss_rate)), log.cwnd_pkts[-1])
            assert got == pytest.approx(want, rel=1e-9), log.cc_name

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_pinned_trajectories(self, case):
        result = run_scenario_packet(self.scenario(case))
        assert tuple(self.digest(log) for log in result.flows) \
            == self.DIGESTS[case]
