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

import pickle
from collections import defaultdict

import pytest

from repro.cc import Cubic, Reno, create
from repro.cc.base import CongestionController, Decision
from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.core.astraea import AstraeaController
from repro.core.distill import _RecordingController
from repro.core.policy import MODELS_DIR, PolicyBundle, load_default_policy
from repro.env import build_driver, run_scenario
from repro.env.multiflow import ScenarioDriver, _column_kind, run_topology
from repro.errors import SimulationError
from repro.netsim import FluidNetwork, PacketNetwork
from repro.netsim.faults import (
    Blackout,
    DelaySpike,
    FaultSchedule,
    LossBurst,
)
from repro.netsim.topology import parking_lot
from repro.scenarios import build_scenario
from tests.oracles.fluid_reference import ReferenceFluid


def drive_per_flow(driver, seen=None):
    """The reference: one ``on_interval`` call per due flow; ``seen``
    collects each decision's ``(now, flow index, stats)``."""
    while (due := driver.step_collect()) is not None:
        for rf, stats in due:
            if seen is not None:
                seen.append((driver.now, rf.index, stats))
            driver.finish_flow(rf, stats, rf.controller.on_interval(stats))
    return driver.result()


def hook_rows(columns):
    """The per-flow ``MtpStats`` of an ``on_step`` hook's columns."""
    return columns.rows() if columns is not None else []


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
        slow_row = AstraeaController.STATE.index("_in_slow_start")
        drain_row = AstraeaController.STATE.index("_drain_left")

        def observe(now, flows, _columns):
            # A column flow's object is stale until the driver writes its
            # state back, so classify from the driver's state columns.
            state = driver._state
            for rf in flows:
                ctl = rf.controller
                if not isinstance(ctl, AstraeaController):
                    passes[now].add("classical")
                elif state[slow_row, rf.pos]:
                    passes[now].add("slow-start")
                elif state[drain_row, rf.pos] > 0:
                    passes[now].add("probe-drain")
                else:
                    passes[now].add("alt" if ctl.policy is alt_bundle
                                    else "shipped")

        scenario = mixed_scenario()
        driver = build_driver(scenario, mixed_controllers(alt_bundle),
                              on_step=observe)
        batched = driver.run()
        reference = run_per_flow(scenario, mixed_controllers(alt_bundle))
        # Two bundles are two column kinds, each with its own forward.
        assert [(cls, policy) for cls, policy, _ in driver._column_kinds] \
            == [(AstraeaController, shipped), (Cubic, None),
                (AstraeaController, alt_bundle)]
        assert batched.flows == reference.flows
        # The scenario did put all five kinds of decision in one pass.
        everything = {"classical", "slow-start", "probe-drain", "alt",
                      "shipped"}
        assert any(kinds == everything for kinds in passes.values()), \
            sorted(passes.values(), key=len)[-1]

    def test_reference_engine_takes_the_same_pass(self):
        scenario = churn_scenario()
        reference = build_driver(
            scenario, engine=ReferenceFluid.for_scenario(scenario)).run()
        batched = run_scenario(scenario)
        assert batched.flows == reference.flows
        assert batched.flows == run_per_flow(scenario).flows

    def test_observer_sees_each_decision_in_running_order(self):
        scenario = churn_scenario()
        batched, reference = [], []
        result = run_scenario(
            scenario, on_step=lambda now, flows, columns: batched.extend(
                (now, rf.index, s)
                for rf, s in zip(flows, hook_rows(columns))))
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
        calls = []
        driver = build_driver(
            churn_scenario(), on_step=lambda now, flows, columns:
            calls.append((now, [rf.index for rf in flows],
                          hook_rows(columns))))
        steps = 0
        while True:
            before = driver.now
            if not driver.step_block():
                break
            steps += 1
            assert driver.now > before
            assert calls[-1][0] == driver.now
        assert len(calls) == steps
        assert any(not due for _, due, _ in calls)
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


class CountingCubic(Cubic):
    """A CUBIC test double that overrides ``on_interval``."""

    def __init__(self):
        super().__init__()
        self.fired = 0

    def on_interval(self, stats):
        self.fired += 1
        return super().on_interval(stats)


#: (scheme, start_s, duration_s, extra_rtt_ms) per flow of the column
#: scenario: the column kinds (CUBIC, Reno and Astraea, one kind of
#: which runs without pacing and guards) next to per-RTT, composed and
#: overriding controllers, Astraea's reference backend and a recording
#: Astraea, staggered starts off the MTP grid, and four column flows
#: that stop on the same tick.
COLUMN_FLOWS = (("cubic", 0.0, None, 0.0), ("cubic-ecn", 0.31, None, 10.0),
                ("reno", 0.5, None, 20.0), ("vegas", 0.7, None, 0.0),
                ("astraea", 0.2, 3.0, 0.0), ("counting", 1.0, 2.0, 0.0),
                ("orca", 0.9, None, 5.0), ("cubic", 0.55, 2.5, 0.0),
                ("reno", 0.55, 2.5, 15.0), ("cubic-ecn", 0.55, 2.5, 0.0),
                ("astraea-ref", 0.4, None, 5.0),
                ("astraea-recording", 0.8, 2.5, 0.0),
                ("astraea-bare", 0.55, 2.5, 10.0))


def reference_astraea():
    """An ``AstraeaController`` on the analytic reference backend."""
    import repro.core.astraea as astraea_module

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(astraea_module, "resolve_policy",
                      lambda policy, scheme: None)
        return AstraeaController()


def column_controller(kind, cfg):
    if kind == "counting":
        return CountingCubic()
    if kind == "astraea-ref":
        return reference_astraea()
    if kind == "astraea-recording":
        return _RecordingController()
    if kind == "astraea-bare":
        return AstraeaController(use_pacing=False, guards=False)
    return create(cfg.cc, **cfg.cc_kwargs)


def column_scenario():
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=80.0, rtt_ms=30.0, buffer_bdp=2.0,
                        qdisc="red",
                        qdisc_kwargs={"min_th_pkts": 20.0,
                                      "max_th_pkts": 150.0,
                                      "max_p": 0.2, "ecn": True}),
        flows=tuple(
            FlowConfig(cc=cc.partition("-")[0].replace("counting", "cubic"),
                       start_s=start, duration_s=duration,
                       extra_rtt_ms=extra,
                       cc_kwargs={"ecn": True} if cc == "cubic-ecn" else {})
            for cc, start, duration, extra in COLUMN_FLOWS),
        duration_s=4.5,
        faults=FaultSchedule((Blackout(1.5, 0.3),
                              LossBurst(2.2, 0.4, loss_rate=0.05),
                              DelaySpike(3.0, 0.5, extra_ms=40.0))))


def column_controllers(scenario):
    return [column_controller(kind, cfg)
            for (kind, *_), cfg in zip(COLUMN_FLOWS, scenario.flows)]


def pickled(controllers):
    """Every attribute of every controller, bit for bit (floats are
    pickled as their IEEE bytes, and a bool is not a float)."""
    return [pickle.dumps(c) for c in controllers]


class TestColumnPass:
    """CUBIC, Reno and Astraea flows decide through ``decide_columns``
    over the driver's state columns; everything they leave behind — logs
    and the controller objects — equals the per-object loop's."""

    def test_the_column_kinds_are_chosen_by_the_rule(self):
        scenario = column_scenario()
        controllers = column_controllers(scenario)
        kinds = [_column_kind(c) for c in controllers]
        assert kinds == [Cubic, Cubic, Reno, None, AstraeaController, None,
                         None, Cubic, Reno, Cubic, None, None,
                         AstraeaController]
        # Pacing is a state row, not a kind; the guard switch is part of
        # the kind, as it sizes the guard's RTT ring.
        assert controllers[4].column_key() == \
            AstraeaController(use_pacing=False).column_key()
        assert controllers[4].column_key() != controllers[12].column_key()
        assert controllers[4].column_key() != \
            AstraeaController(mtp_s=0.02).column_key()

    def test_logs_and_controllers_equal_the_per_object_loop(self):
        scenario = column_scenario()
        batched_ctl = column_controllers(scenario)
        reference_ctl = column_controllers(scenario)
        batched = run_scenario(scenario, batched_ctl)
        reference = drive_per_flow(
            build_driver(scenario, controllers=reference_ctl))
        assert all(len(log.times) > 0 for log in batched.flows)
        assert batched.flows == reference.flows
        assert pickled(batched_ctl) == pickled(reference_ctl)
        counting = batched_ctl[5]
        assert counting.fired == len(batched.flows[5].times)

    def test_a_driver_without_logs_keeps_none_on_either_path(self):
        """``log=False`` (a training episode's driver) keeps no log rows
        from the column pass or from the per-object reference step, and
        leaves the controllers as a logging run does."""
        scenario = column_scenario()
        column_ctl, reference_ctl, logged_ctl = (
            column_controllers(scenario) for _ in range(3))
        run_scenario(scenario, logged_ctl)
        column = build_driver(scenario, controllers=column_ctl,
                              log=False).run()
        reference = drive_per_flow(
            build_driver(scenario, controllers=reference_ctl, log=False))
        for result in (column, reference):
            assert not any(log.times for log in result.flows)
        assert pickled(column_ctl) == pickled(reference_ctl) \
            == pickled(logged_ctl)

    def test_a_hooked_pass_sees_the_same_decisions(self):
        """With an ``on_step`` hook every due flow's stats reach it,
        column flows included; the ECN flows did see marks."""
        scenario = column_scenario()
        marks = defaultdict(float)

        def hook(_now, flows, columns):
            for rf, s in zip(flows, hook_rows(columns)):
                marks[rf.index] = max(marks[rf.index], s.mark_rate)

        controllers = column_controllers(scenario)
        hooked = run_scenario(scenario, controllers, on_step=hook)
        plain_ctl = column_controllers(scenario)
        assert hooked.flows == run_scenario(scenario, plain_ctl).flows
        assert pickled(controllers) == pickled(plain_ctl)
        assert marks[1] > Cubic.ECN_MARK_THRESHOLD
        assert marks[9] > Cubic.ECN_MARK_THRESHOLD

    def test_result_mid_run_then_continuing_equals_one_run(self):
        scenario = column_scenario()
        controllers = column_controllers(scenario)
        driver = build_driver(scenario, controllers=controllers)
        midway = []
        while driver.step_block():
            if not midway and driver.now >= 2.0:
                mid = driver.result()
                midway = [len(log.times) for log in mid.flows]
                # Written back: the objects are current mid-run too.
                assert controllers[0].cwnd == mid.flows[0].cwnd_pkts[-1]
                assert controllers[4].cwnd == mid.flows[4].cwnd_pkts[-1]
                assert controllers[4]._rtt_samples
        final = driver.result()
        one_ctl = column_controllers(scenario)
        assert final.flows == run_scenario(scenario, one_ctl).flows
        assert pickled(controllers) == pickled(one_ctl)
        assert 0 < sum(midway) < sum(len(log.times) for log in final.flows)


def astraea_scenario():
    """Three astraea flows (one unpaced and unguarded), staggered off the
    MTP grid, one stopping mid-run, under a blackout and a delay spike."""
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=40.0, rtt_ms=30.0, buffer_bdp=1.5),
        flows=(FlowConfig(cc="astraea"),
               FlowConfig(cc="astraea", start_s=0.31, duration_s=2.0),
               FlowConfig(cc="astraea", start_s=0.5, extra_rtt_ms=10.0)),
        duration_s=4.0,
        faults=FaultSchedule((Blackout(1.5, 0.3),
                              DelaySpike(2.5, 0.5, extra_ms=40.0))))


class PerObjectAstraea(AstraeaController):
    """Overrides ``on_interval``, so the driver calls it flow by flow."""

    def on_interval(self, stats):
        return super().on_interval(stats)


def astraea_controllers(cls=AstraeaController):
    return [cls(), cls(), cls(use_pacing=False, guards=False)]


class TestAstraeaColumnsOnEveryEngine:
    def test_packet_engine_equals_the_per_object_loop(self):
        scenario = astraea_scenario()
        columns_ctl = astraea_controllers()
        reference_ctl = astraea_controllers(PerObjectAstraea)
        assert _column_kind(reference_ctl[0]) is None
        columns, reference = (
            build_driver(scenario, controllers, engine=PacketNetwork(
                scenario.link, seed=scenario.seed, mtp_s=scenario.mtp_s,
                faults=scenario.faults)).run()
            for controllers in (columns_ctl, reference_ctl))
        assert all(len(log.times) > 0 for log in columns.flows)
        assert columns.flows == reference.flows
        assert pickled(vars(c) for c in columns_ctl) \
            == pickled(vars(c) for c in reference_ctl)

    def test_socket_engine_equals_the_per_object_loop(self):
        """The socket engine runs on the wall clock, so its stats differ
        from run to run: a per-object shadow of every flow decides on the
        stats the column pass saw, and must end where it did."""
        from repro.netsim.socketpath import SocketNetwork, SocketTuning

        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0,
                            buffer_bdp=2.0),
            flows=(FlowConfig(cc="astraea"),) * 3, duration_s=1.5, seed=0)
        controllers = astraea_controllers()
        shadows = astraea_controllers()
        decided = [[] for _ in shadows]

        def shadow(_now, flows, columns):
            for rf, s in zip(flows, hook_rows(columns)):
                decided[rf.index].append(
                    shadows[rf.index].on_interval(s).cwnd_pkts)

        net = SocketNetwork(scenario.link, scenario.faults,
                            seed=scenario.seed, mtp_s=scenario.mtp_s,
                            tuning=SocketTuning(time_scale=4.0))
        try:
            result = build_driver(scenario, controllers, on_step=shadow,
                                  engine=net).run()
        finally:
            net.close()
        assert all(len(log.times) > 0 for log in result.flows)
        assert [log.cwnd_pkts for log in result.flows] == decided
        assert pickled(controllers) == pickled(shadows)


class TestOverridesKeepThePerObjectCall:
    def test_on_interval_override_fires_once_per_decision(self):
        """A subclass that overrides ``on_interval`` is never routed
        through ``decide_columns`` behind its back (the state-collecting
        teachers of ``core.distill`` rely on it)."""

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
                   for rf in driver.running_flows)
        # Per-object flows: no column kind, the plain on_interval call.
        assert len(driver._kind) == 2 and (driver._kind == -1).all()
        while driver.step_block():
            pass
        assert driver.result().flows == run_per_flow(scenario).flows
