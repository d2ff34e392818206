"""Reward block: Eqs. 4-8 and the Fig. 4 sensitivity argument."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkConfig, RewardConfig
from repro.core.reward import (
    FlowSnapshot,
    RewardBlock,
    fairness_term,
    stability_term,
)
from repro.errors import ModelError
from repro.metrics.fairness import jain_index
from repro.units import mbps_to_pps

LINK = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)


def snap(thr_mbps=50.0, avg_mbps=None, std=0.0, rtt=0.030, loss_pps=0.0,
         pacing_mbps=None):
    thr = mbps_to_pps(thr_mbps)
    return FlowSnapshot(
        throughput_pps=thr,
        avg_thr_pps=mbps_to_pps(avg_mbps) if avg_mbps is not None else thr,
        thr_std_pps=std,
        avg_rtt_s=rtt,
        loss_pps=loss_pps,
        pacing_pps=mbps_to_pps(pacing_mbps) if pacing_mbps is not None
        else thr,
    )


class TestFairnessTerm:
    def test_zero_at_equality(self):
        assert fairness_term([100.0, 100.0, 100.0]) == 0.0

    def test_positive_when_unequal(self):
        assert fairness_term([150.0, 50.0]) > 0.0

    def test_zero_total_is_zero(self):
        assert fairness_term([0.0, 0.0]) == 0.0

    def test_more_sensitive_than_jain_near_equality(self):
        """Fig. 4: a 20 Mbps gap on 100 Mbps moves R_fair (0.1) much more
        than it moves the Jain index (0.038)."""
        equal = np.array([50.0, 50.0])
        gapped = np.array([60.0, 40.0])
        jain_drop = jain_index(equal) - jain_index(gapped)
        fair_rise = fairness_term(gapped) - fairness_term(equal)
        assert fair_rise == pytest.approx(0.1)
        assert jain_drop == pytest.approx(0.038, abs=0.002)
        assert fair_rise > 2.0 * jain_drop

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            fairness_term([])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e4),
                    min_size=1, max_size=8))
    def test_property_bounded_by_half(self, thr):
        # sqrt((1-1/n)/n) <= 0.5 for all n >= 1.
        assert 0.0 <= fairness_term(thr) <= 0.5 + 1e-9


class TestStabilityTerm:
    def test_zero_for_steady_flows(self):
        assert stability_term([100.0, 100.0], [0.0, 0.0]) == 0.0

    def test_scales_with_cv(self):
        low = stability_term([100.0], [5.0])
        high = stability_term([100.0], [30.0])
        assert high > low > 0.0

    def test_mismatched_shapes(self):
        with pytest.raises(ModelError):
            stability_term([1.0, 2.0], [0.0])


class TestRewardBlock:
    def test_full_fair_utilisation_is_max_reward(self):
        block = RewardBlock(LINK)
        terms = block.compute([snap(50.0), snap(50.0)])
        assert terms.throughput == pytest.approx(1.0)
        assert terms.fairness == 0.0
        assert terms.latency == 0.0
        assert terms.loss == 0.0
        assert terms.total == pytest.approx(0.1 * 1.0)

    def test_latency_tolerance_band(self):
        block = RewardBlock(LINK)
        # 20% inflation: inside the (1+beta) tolerance -> no penalty.
        terms = block.compute([snap(rtt=0.030 * 1.19)])
        assert terms.latency == 0.0
        terms = block.compute([snap(rtt=0.030 * 2.0)])
        assert terms.latency > 0.0

    def test_latency_penalty_scales_with_pacing(self):
        block = RewardBlock(LINK)
        slow = block.compute([snap(rtt=0.09, pacing_mbps=10.0)])
        fast = block.compute([snap(rtt=0.09, pacing_mbps=100.0)])
        assert fast.latency > slow.latency

    def test_loss_term(self):
        block = RewardBlock(LINK)
        terms = block.compute([snap(thr_mbps=50.0,
                                    loss_pps=mbps_to_pps(5.0))])
        assert terms.loss == pytest.approx(0.1)

    def test_unfairness_reduces_total(self):
        block = RewardBlock(LINK)
        fair = block.compute([snap(50.0), snap(50.0)])
        unfair = block.compute([snap(90.0, avg_mbps=90.0),
                                snap(10.0, avg_mbps=10.0)])
        assert unfair.total < fair.total

    def test_instability_reduces_total(self):
        block = RewardBlock(LINK)
        steady = block.compute([snap(50.0), snap(50.0)])
        shaky = block.compute([snap(50.0, std=mbps_to_pps(25.0)),
                               snap(50.0, std=mbps_to_pps(25.0))])
        assert shaky.total < steady.total

    def test_capacity_override(self):
        block = RewardBlock(LINK)
        terms = block.compute([snap(25.0)],
                              capacity_pps=mbps_to_pps(50.0))
        assert terms.throughput == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            RewardBlock(LINK).compute([])

    @settings(max_examples=50, deadline=None)
    @given(thr=st.lists(st.floats(min_value=0.0, max_value=300.0),
                        min_size=1, max_size=6),
           rtt=st.floats(min_value=0.005, max_value=1.0),
           loss=st.floats(min_value=0.0, max_value=100.0))
    def test_property_reward_bounded(self, thr, rtt, loss):
        """Eq. 8: the total reward always lies in [-0.1, 0.1]."""
        block = RewardBlock(LINK, RewardConfig())
        snaps = [snap(t, rtt=rtt, loss_pps=loss) for t in thr]
        terms = block.compute(snaps)
        assert -0.1 <= terms.total <= 0.1


def reference_terms(block: RewardBlock, thr, avg_thr, thr_std, lat, loss,
                    pacing) -> tuple[float, ...]:
    """Eqs. 4-8 written out with the floors as ``np.where`` over every
    flow, ``np.mean`` and ``np.clip``: the definition that
    ``terms_from_reductions`` computes with fewer NumPy calls."""
    cfg, c = block.config, mbps_to_pps(block.link.bandwidth_mbps)
    r_thr = min(float(thr.sum() / c), 1.5)
    ratio = np.where(thr > 1e-9, loss / np.maximum(thr, 1e-9),
                     np.where(loss > 0, 1.0, 0.0))
    r_loss = float(np.mean(np.minimum(ratio, 1.0)))
    base = block.link.rtt_s
    tolerance = (1.0 + cfg.beta) * base
    avg_lat = float(lat.mean())
    r_lat = 0.0
    if avg_lat > tolerance:
        r_lat = min(((avg_lat - tolerance) / base) * float(pacing.sum()) / c,
                    4.0)
    total = avg_thr.sum()
    r_fair = 0.0
    if total > 0 and np.isfinite(total):
        shares = avg_thr / total
        r_fair = float(np.sqrt(np.sum((shares - 1.0 / len(avg_thr)) ** 2)
                               / len(avg_thr)))
    cv = np.where(avg_thr > 1e-9, thr_std / np.maximum(avg_thr, 1e-9), 0.0)
    r_stab = float(np.mean(np.minimum(cv, 4.0)))
    total = (cfg.c_thr * r_thr - cfg.c_lat * r_lat - cfg.c_loss * r_loss
             - cfg.c_fair * r_fair - cfg.c_stab * r_stab)
    return (r_thr, r_lat, r_loss, r_fair, r_stab,
            float(np.clip(total, -cfg.bound, cfg.bound)))


def test_reductions_equal_the_written_out_definition():
    """``compute_columns`` (and through it the training observer, which
    calls ``terms_from_reductions`` on its own reductions) against the
    written-out Eqs. 4-8 on ``float.hex``, every term: 1 to 20 flows,
    with flows that delivered nothing, averages at zero and latency
    above the tolerance.  The plain quotient it takes when every
    denominator is above its floor must be what the floors give."""
    block = RewardBlock(LINK)
    rng = np.random.default_rng(38)
    scratch = np.full((3, 32), np.nan)
    for n in range(1, 21):
        for trial in range(40):
            thr = rng.uniform(0.0, 2e4, n)
            avg_thr = rng.uniform(0.0, 2e4, n)
            if trial % 4 == 1:
                thr[rng.random(n) < 0.5] = 0.0
                avg_thr[rng.random(n) < 0.5] = 0.0
            elif trial % 4 == 2:
                thr[:] = avg_thr[:] = 0.0
            columns = (thr, avg_thr, rng.uniform(0.0, 3e3, n),
                       rng.uniform(0.02, 0.09, n),
                       np.where(rng.random(n) < 0.5, 0.0,
                                rng.uniform(0.0, 50.0, n)),
                       rng.uniform(0.0, 2e4, n))
            want = [x.hex() for x in reference_terms(block, *columns)]
            got = block.compute_columns(*columns)
            assert [float(x).hex() for x in (
                got.throughput, got.latency, got.loss, got.fairness,
                got.stability, got.total)] == want, (n, trial)
            thr, avg_thr, thr_std, lat, loss, pacing = columns
            resident = block.terms_from_reductions(
                np.add.reduce(thr), np.minimum.reduce(thr),
                np.add.reduce(lat) / n, thr, avg_thr, thr_std, loss, pacing,
                scratch=scratch[:, :n])
            assert resident == got, (n, trial)
