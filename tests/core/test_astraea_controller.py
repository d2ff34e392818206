"""The deployable Astraea controller."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.astraea import AstraeaController
from repro.core.policy import PolicyBundle, new_actor
from tests.cc.test_base import make_stats


def make_controller(**kwargs):
    """Controller with a freshly initialised (untrained) bundle."""
    bundle = PolicyBundle(actor=new_actor(seed=5))
    return AstraeaController(policy=bundle, **kwargs)


class TestController:
    def test_backend_reports_model(self):
        assert make_controller().backend == "model"

    def test_window_changes_bounded_by_alpha(self):
        ctl = make_controller(slow_start=False)
        prev = ctl.cwnd
        for i in range(20):
            d = ctl.on_interval(make_stats(time_s=(i + 1) * 0.03))
            assert d.cwnd_pkts <= prev * (1 + ctl.alpha) + 1e-9
            assert d.cwnd_pkts >= prev / (1 + ctl.alpha) - 1e-9
            prev = d.cwnd_pkts

    def test_pacing_follows_cwnd_over_srtt(self):
        ctl = make_controller(slow_start=False)
        d = ctl.on_interval(make_stats(srtt_s=0.05))
        assert d.pacing_pps == pytest.approx(d.cwnd_pkts / 0.05)

    def test_pacing_disabled(self):
        ctl = make_controller(slow_start=False, use_pacing=False)
        d = ctl.on_interval(make_stats())
        assert d.pacing_pps is None

    def test_slow_start_ramps_then_hands_over(self):
        ctl = make_controller(slow_start=True)
        # Empty queue: slow start grows multiplicatively.
        d1 = ctl.on_interval(make_stats(time_s=0.03, delivered_pkts=30.0))
        assert d1.cwnd_pkts == pytest.approx(15.0)
        # Deep queue: handover, window pulled back.
        d2 = ctl.on_interval(make_stats(time_s=0.06, avg_rtt_s=0.09,
                                        min_rtt_s=0.03,
                                        cwnd_pkts=d1.cwnd_pkts))
        assert not ctl._in_slow_start
        assert d2.cwnd_pkts < d1.cwnd_pkts * 1.5

    def test_reset_restores_slow_start(self):
        ctl = make_controller(slow_start=True)
        ctl.on_interval(make_stats(avg_rtt_s=0.2, min_rtt_s=0.03))
        ctl.reset()
        assert ctl._in_slow_start
        assert ctl.cwnd == pytest.approx(10.0)

    def test_policy_path_loading(self, tmp_path):
        bundle = PolicyBundle(actor=new_actor(seed=6))
        path = bundle.save(tmp_path / "p.npz")
        ctl = AstraeaController(policy=str(path))
        assert ctl.backend == "model"

    def test_deployment_uses_only_local_state(self):
        """No global information at inference time (§3.1): identical local
        observations yield identical decisions regardless of anything else."""
        a = make_controller(slow_start=False)
        b = make_controller(slow_start=False)
        for i in range(10):
            stats = make_stats(time_s=(i + 1) * 0.03)
            da = a.on_interval(stats)
            db = b.on_interval(stats)
            assert da.cwnd_pkts == pytest.approx(db.cwnd_pkts)

    def test_slow_start_and_probe_drain_need_no_policy(self):
        ctl = make_controller(slow_start=True)
        ctl.policy = counting = CountingPolicy(ctl.policy)
        ctl.on_interval(make_stats(time_s=0.03, delivered_pkts=30.0))
        assert counting.calls == 0               # slow-start ramp
        ctl = make_controller(slow_start=False)
        ctl.policy = counting = CountingPolicy(ctl.policy)
        calls = []
        for t in (0.03, 5.03, 5.06, 5.09, 5.12):
            ctl.on_interval(make_stats(time_s=t))
            calls.append(counting.calls)
        # The policy, three probe-drain intervals, the policy again.
        assert calls == [1, 1, 1, 1, 2]


class CountingPolicy:
    def __init__(self, policy):
        self.policy = policy
        self.calls = 0

    def act(self, state, slot):
        self.calls += 1
        return self.policy.act(state, slot)


class TestShippedBundle:
    def test_default_policy_drives_fairly(self):
        """The shipped pretrained bundle must beat the unfair baselines on
        the quick three-flow scenario (sanity gate on the artefact)."""
        from repro.config import LinkConfig, ScenarioConfig
        from repro.core.policy import load_default_policy
        from repro.env import run_scenario
        from repro.netsim import staggered_flows

        if load_default_policy("astraea") is None:
            pytest.skip("no shipped bundle in this checkout")
        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0,
                            buffer_bdp=1.0),
            flows=staggered_flows(3, cc="astraea", interval_s=10.0,
                                  duration_s=30.0),
            duration_s=50.0,
        )
        result = run_scenario(scenario)
        assert result.mean_jain() > 0.85
        assert result.utilization() > 0.8


class TestWindowedRttMin:
    """The guards' O(1) RTT floor against a scan of the whole window."""

    @settings(max_examples=200, deadline=None)
    @given(stream=st.lists(
        st.tuples(
            # Time step to the next sample: zero (several samples at one
            # instant), within the window, or long enough to expire
            # everything before it and leave the window one element.
            st.one_of(st.just(0.0), st.floats(0.0, 4.0),
                      st.floats(9.0, 25.0)),
            # Few distinct values, so equal samples (ties) are common.
            st.one_of(st.sampled_from([0.01, 0.02, 0.05]),
                      st.floats(1e-4, 2.0))),
        min_size=1, max_size=60))
    def test_equals_brute_force_window_minimum(self, stream):
        ctl = make_controller()
        window = ctl.RTT_WINDOW_S
        now, seen = 0.0, []
        for step, sample in stream:
            now += step
            seen.append((now, sample))
            want = min(r for t, r in seen if t >= now - window)
            assert ctl._windowed_rtt_min(now, sample) == want

    def test_window_that_empties_to_one_element(self):
        ctl = make_controller()
        assert ctl._windowed_rtt_min(0.0, 0.01) == 0.01
        assert ctl._windowed_rtt_min(5.0, 0.03) == 0.01
        # 10.0 s later the only survivor is the newest, larger sample.
        assert ctl._windowed_rtt_min(20.0, 0.08) == 0.08
        assert len(ctl._rtt_samples) == 1

    def test_reset_forgets_the_window(self):
        ctl = make_controller()
        ctl._windowed_rtt_min(0.0, 0.01)
        ctl.reset()
        assert ctl._windowed_rtt_min(0.1, 0.05) == 0.05


class TestDeploymentGuards:
    def test_idle_guard_forces_growth(self):
        """A zero-congestion-signal path never sees a decrease."""
        ctl = make_controller(slow_start=False)
        # Make the raw policy output strongly negative by saturating the
        # actor's input with a huge latency history first.
        actions = []
        for i in range(30):
            d = ctl.on_interval(make_stats(time_s=(i + 1) * 0.03,
                                           avg_rtt_s=0.03, min_rtt_s=0.03,
                                           lost_pkts=0.0))
            actions.append(d.cwnd_pkts)
        # Guard active: cwnd grows monotonically outside drain periods.
        grew = sum(b > a for a, b in zip(actions, actions[1:]))
        assert grew > len(actions) * 0.6

    def test_bloat_guard_forces_backoff(self):
        ctl = make_controller(slow_start=False, probe_rtt=False)
        ctl._windowed_rtt_min(0.0, 0.03)
        before = ctl.cwnd
        d = ctl.on_interval(make_stats(time_s=1.0, avg_rtt_s=0.15,
                                       min_rtt_s=0.15))
        assert d.cwnd_pkts < before

    def test_guards_inactive_in_normal_band(self):
        """Between idle and bloat the policy's action passes through."""
        guarded = make_controller(slow_start=False, probe_rtt=False)
        raw = make_controller(slow_start=False, probe_rtt=False,
                              guards=False)
        for i in range(10):
            stats = make_stats(time_s=(i + 1) * 0.03, avg_rtt_s=0.045,
                               min_rtt_s=0.03)
            dg = guarded.on_interval(stats)
            dr = raw.on_interval(stats)
            assert dg.cwnd_pkts == pytest.approx(dr.cwnd_pkts)

    def test_guards_disabled(self):
        ctl = make_controller(slow_start=False, guards=False,
                              probe_rtt=False)
        assert not ctl.guards_enabled

    def test_probe_rtt_drains_periodically(self):
        ctl = make_controller(slow_start=False, guards=False)
        cwnds = []
        for i in range(400):
            d = ctl.on_interval(make_stats(time_s=(i + 1) * 0.03,
                                           avg_rtt_s=0.045, min_rtt_s=0.03))
            cwnds.append(d.cwnd_pkts)
        drops = sum(b < a for a, b in zip(cwnds, cwnds[1:]))
        # At least PROBE_INTERVALS drains per probe interval happened.
        assert drops >= 2 * AstraeaController.PROBE_INTERVALS
