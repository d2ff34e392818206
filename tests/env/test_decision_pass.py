"""The driver's two-phase decision pass against a per-flow reference.

``ScenarioDriver._controller_pass`` stacks the policy forward of every
due learned controller into one row-exact call per bundle.  The oracle
here is the loop it replaced — ``on_interval`` flow by flow over the
same ``step_collect`` / ``finish_flow`` halves — and the contract is
``==`` on every ``FlowLog``, not a tolerance: one ulp in one action
diverges a chaotic rollout (and the pinned fleet digests with it).
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.core.astraea import AstraeaController
from repro.core.policy import MODELS_DIR, PolicyBundle, load_default_policy
from repro.env import build_driver, run_scenario
from repro.scenarios import build_scenario


def run_per_flow(scenario, controllers=None):
    """The reference: one ``on_interval`` call per due flow."""
    driver = build_driver(scenario, controllers=controllers)
    while (due := driver.step_collect()) is not None:
        for rf, stats in due:
            driver.finish_flow(rf, stats, rf.controller.on_interval(stats))
    return driver.result()


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


class TestBatchedPassEqualsPerFlow:
    @pytest.mark.parametrize("family", ["incast", "asymmetric-rtt"])
    def test_registry_family(self, family):
        scenario = build_scenario(family, cc="astraea", quick=True)
        batched = run_scenario(scenario)
        reference = run_per_flow(scenario)
        assert all(len(log.times) > 0 for log in batched.flows)
        assert batched.flows == reference.flows

    def test_mixed_schemes_cohorts_and_bundles(self, alt_bundle):
        shipped = load_default_policy("astraea")
        assert shipped is not None and shipped is not alt_bundle
        #: pass time -> what each due flow did in that pass
        passes: dict[float, set[str]] = defaultdict(set)

        def observe(now, _index, _stats, ctl):
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
                               on_interval=observe)
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
