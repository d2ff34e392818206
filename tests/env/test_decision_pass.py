"""The driver's decision pass against a per-flow reference.

``ScenarioDriver._controller_pass`` collects every due flow's stats in
one columnar pass, stacks the policy forward of every due learned
controller into one row-exact call per bundle, and applies all windows
with one ``set_cwnds``.  The oracle here is the loop it replaced —
``on_interval`` then ``finish_flow`` (a scalar ``set_cwnd``) flow by
flow over ``step_collect`` — and the contract is ``==`` on every
``FlowLog``, not a tolerance: one ulp in one action diverges a chaotic
rollout (and the pinned fleet digests with it).  (The columnar collect
itself is pinned against per-flow monitors in
``tests/netsim/test_sample_store.py``.)
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.cc.base import CongestionController, Decision
from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.core.astraea import AstraeaController
from repro.core.policy import MODELS_DIR, PolicyBundle, load_default_policy
from repro.env import build_driver, run_scenario
from repro.env.multiflow import ScenarioDriver, run_topology
from repro.errors import SimulationError
from repro.netsim import FluidNetwork
from repro.netsim.faults import Blackout, DelaySpike, FaultSchedule
from repro.netsim.fluid import SLOWPATH_ENV
from repro.netsim.topology import parking_lot
from repro.scenarios import build_scenario


def drive_per_flow(driver, seen=None):
    """The reference: one ``on_interval`` call per due flow; ``seen``
    collects each decision's ``(now, flow index, stats)``."""
    while (due := driver.step_collect()) is not None:
        for rf, stats in due:
            if seen is not None:
                seen.append((driver.now, rf.index, stats))
            driver.finish_flow(rf, stats, rf.controller.on_interval(stats))
    return driver.result()


def run_per_flow(scenario, controllers=None, seen=None):
    return drive_per_flow(build_driver(scenario, controllers=controllers),
                          seen)


@pytest.fixture(scope="module")
def alt_bundle():
    return PolicyBundle.load(MODELS_DIR / "astraea_alt_homogeneous.npz")


#: (cc, start_s) per flow of the mixed scenario.  Starts are whole
#: multiples of the 30 ms MTP so every cohort decides in the same
#: passes; ``"alt"`` flows run the ``astraea_alt_homogeneous`` bundle.
#: The t = 0 cohort leaves slow start at 0.21 s and so begins its first
#: probe drain at 5.22 s; the t = 5.19 s cohort is then still in slow
#: start and the other two cohorts need a forward from two different
#: bundles.
MIXED_FLOWS = (("astraea", 0.0), ("astraea", 0.0), ("cubic", 0.0),
               ("alt", 0.6), ("alt", 0.6),
               ("astraea", 1.5), ("astraea", 1.5), ("cubic", 1.5),
               ("astraea", 5.19), ("alt", 5.19))


def mixed_scenario():
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0),
        flows=tuple(
            FlowConfig(cc="cubic" if cc == "cubic" else "astraea",
                       start_s=start)
            for cc, start in MIXED_FLOWS),
        duration_s=7.0)


def mixed_controllers(alt):
    return [AstraeaController(policy=alt) if cc == "alt" else None
            for cc, _ in MIXED_FLOWS]


def churn_scenario(faults=None):
    """Staggered starts, mid-run stops, unequal RTTs and cadences, and
    three flows that end on the same tick."""
    flows = [FlowConfig(cc="cubic"),
             FlowConfig(cc="astraea", start_s=0.31, duration_s=2.0),
             FlowConfig(cc="vegas", start_s=0.7, extra_rtt_ms=60.0),
             FlowConfig(cc="cubic", start_s=0.7, duration_s=1.1),
             FlowConfig(cc="astraea", start_s=1.2, extra_rtt_ms=15.0)]
    flows += [FlowConfig(cc="cubic", start_s=0.5, duration_s=2.5)] * 3
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=60.0, rtt_ms=40.0, buffer_bdp=1.0),
        flows=tuple(flows), duration_s=4.5, faults=faults)


class TestBatchedPassEqualsPerFlow:
    def check(self, scenario):
        batched = run_scenario(scenario)
        assert all(len(log.times) > 0 for log in batched.flows)
        assert batched.flows == run_per_flow(scenario).flows

    @pytest.mark.parametrize("family", ["incast", "asymmetric-rtt"])
    def test_registry_family(self, family):
        self.check(build_scenario(family, cc="astraea", quick=True))

    @pytest.mark.parametrize("family", ["incast", "asymmetric-rtt"])
    def test_registry_family_classical(self, family):
        self.check(build_scenario(family, cc="cubic", quick=True))

    def test_staggered_starts_and_mid_run_stops(self):
        self.check(churn_scenario())

    def test_fault_schedule(self):
        self.check(churn_scenario(FaultSchedule((
            Blackout(1.5, 0.3), DelaySpike(2.5, 0.5, extra_ms=40.0)))))

    def test_two_link_topology(self):
        """The multi-link kernel flushes into the same store."""
        topology = parking_lot(3, cc="cubic", duration_s=4.0)
        first = topology.links[0]
        reference = drive_per_flow(ScenarioDriver(
            FluidNetwork(list(topology.links), seed=topology.seed,
                         tick_s=topology.tick_s),
            topology.flows,
            lambda i: {"base_rtt_s": first.rtt_s
                       + topology.flows[i].extra_rtt_ms / 1e3,
                       "path": list(topology.paths[i])},
            topology.duration_s, None,
            bottleneck_mbps=first.bandwidth_mbps, base_rtt_s=first.rtt_s))
        batched = run_topology(topology)
        assert all(len(log.times) > 0 for log in batched.flows)
        assert batched.flows == reference.flows

    def test_simultaneous_departures_rebuild_the_engine_once(self):
        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0),
            flows=(FlowConfig(cc="cubic"),) * 5
            + (FlowConfig(cc="cubic", duration_s=0.5),) * 200,
            duration_s=1.0)
        driver = build_driver(scenario)
        rebuilds = []
        rebuild = driver.engine._rebuild_soa
        driver.engine._rebuild_soa = \
            lambda *args: (rebuilds.append(driver.now), rebuild(*args))
        while driver.step_block():
            pass
        assert rebuilds == [0.0, pytest.approx(0.5, abs=0.002)]
        assert len(driver.running_flows) == 5
        assert driver.result().flows == run_per_flow(scenario).flows

    def test_mixed_schemes_cohorts_and_bundles(self, alt_bundle):
        shipped = load_default_policy("astraea")
        assert shipped is not None and shipped is not alt_bundle
        #: pass time -> what each due flow did in that pass
        passes: dict[float, set[str]] = defaultdict(set)

        def observe(now, flows, _stats):
            for ctl in (rf.controller for rf in flows):
                if not isinstance(ctl, AstraeaController):
                    passes[now].add("classical")
                elif ctl._in_slow_start:
                    passes[now].add("slow-start")
                elif ctl._drain_left > 0:
                    passes[now].add("probe-drain")
                else:
                    passes[now].add("alt" if ctl.policy is alt_bundle
                                    else "shipped")

        scenario = mixed_scenario()
        batched = run_scenario(scenario, mixed_controllers(alt_bundle),
                               on_step=observe)
        reference = run_per_flow(scenario, mixed_controllers(alt_bundle))
        assert batched.flows == reference.flows
        # The scenario did put all five kinds of decision in one pass.
        everything = {"classical", "slow-start", "probe-drain", "alt",
                      "shipped"}
        assert any(kinds == everything for kinds in passes.values()), \
            sorted(passes.values(), key=len)[-1]

    def test_per_tick_stepping_takes_the_same_pass(self):
        scenario = build_scenario("asymmetric-rtt", cc="astraea",
                                  quick=True)
        driver = build_driver(scenario)
        while driver.step():
            pass
        assert driver.result().flows == run_scenario(scenario).flows

    def test_reference_engine_takes_the_same_pass(self, monkeypatch):
        monkeypatch.setenv(SLOWPATH_ENV, "1")
        scenario = churn_scenario()
        driver = build_driver(scenario)
        assert driver.engine._slowpath
        while driver.step():
            pass
        batched = run_scenario(scenario)
        assert batched.flows == driver.result().flows
        assert batched.flows == run_per_flow(scenario).flows

    def test_observer_sees_each_decision_in_running_order(self):
        scenario = churn_scenario()
        batched, reference = [], []
        result = run_scenario(
            scenario, on_step=lambda now, flows, stats: batched.extend(
                (now, rf.index, s) for rf, s in zip(flows, stats)))
        run_per_flow(scenario, seen=reference)
        assert batched == reference
        assert len(batched) == sum(len(f.times) for f in result.flows)
        # Flows start in (start time, index) order and `_running` keeps
        # it, so within a pass the callbacks come in that order.
        start_order = sorted(range(len(scenario.flows)),
                             key=lambda i: scenario.flows[i].start_s)
        rank = {flow: r for r, flow in enumerate(start_order)}
        passes = defaultdict(list)
        for now, i, _stats in batched:
            passes[now].append(rank[i])
        assert any(len(ranks) > 3 for ranks in passes.values())
        assert all(ranks == sorted(ranks) for ranks in passes.values())

    def test_step_hook_fires_on_every_engine_step_even_if_none_is_due(self):
        # A training observer drives the learner's update clock from this
        # hook.  Skipping a step at which no flow is due would move an
        # update burst that falls due there from before the next pass's
        # decisions to after them, and change every training trajectory.
        for advance in ("step_block", "step"):
            calls = []
            driver = build_driver(
                churn_scenario(), on_step=lambda now, flows, stats:
                calls.append((now, [rf.index for rf in flows], stats)))
            steps = 0
            while True:
                before = driver.now
                if not getattr(driver, advance)():
                    break
                steps += 1
                assert driver.now > before
                assert calls[-1][0] == driver.now
            assert len(calls) == steps, advance
            assert any(not due for _, due, _ in calls), advance
            assert all(len(due) == len(stats) and
                       all(s.time_s == now for s in stats)
                       for now, due, stats in calls)
            logged = sum(len(f.times) for f in driver.result().flows)
            assert sum(len(due) for _, due, _ in calls) == logged

    def test_non_finite_window_names_the_first_flow_in_running_order(self):
        class Broken(CongestionController):
            def on_interval(self, stats):
                return Decision(cwnd_pkts=float("nan"))

        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=50.0, rtt_ms=20.0),
            flows=(FlowConfig(cc="cubic"),) * 4, duration_s=1.0)
        driver = build_driver(
            scenario, controllers=[None, Broken(), None, Broken()])
        with pytest.raises(SimulationError,
                           match="non-finite cwnd for flow 1: nan"):
            while driver.step_block():
                pass
        # All-or-nothing: the failing pass applied and logged nothing.
        assert all(len(log.times) == 0 for log in driver.result().flows)


class TestOverridesKeepThePerObjectCall:
    def test_on_interval_override_fires_once_per_decision(self):
        """A subclass that overrides ``on_interval`` is never routed
        through ``begin_interval`` / ``finish_interval`` behind its back
        (the state-collecting teachers of ``core.distill`` rely on it)."""

        class Counting(AstraeaController):
            def __init__(self):
                super().__init__()
                self.fired = 0

            def on_interval(self, stats):
                self.fired += 1
                return super().on_interval(stats)

        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=50.0, rtt_ms=20.0),
            flows=(FlowConfig(cc="astraea"), FlowConfig(cc="astraea"),
                   FlowConfig(cc="astraea", start_s=0.5)),
            duration_s=3.0)
        controllers = [Counting(), None, Counting()]
        result = run_scenario(scenario, controllers=controllers)
        for i in (0, 2):
            assert controllers[i].fired == len(result.flows[i].times) > 0
        # ... and overriding changes nothing about the rollout itself.
        assert result.flows == run_scenario(scenario).flows

    def test_reference_backend_is_not_stacked(self, monkeypatch):
        import repro.core.astraea as astraea_module

        monkeypatch.setattr(astraea_module, "resolve_policy",
                            lambda policy, scheme: None)
        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=50.0, rtt_ms=20.0),
            flows=(FlowConfig(cc="astraea"), FlowConfig(cc="astraea")),
            duration_s=2.0)
        driver = build_driver(scenario)
        assert driver.step_block()
        assert all(rf.controller.backend == "reference"
                   and rf.policy is None for rf in driver.running_flows)
        while driver.step_block():
            pass
        assert driver.result().flows == run_per_flow(scenario).flows
