"""Fairness metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.metrics import (
    FairnessAccumulator,
    astraea_fairness_metric,
    jain_index,
    max_min_fair_shares,
)


class TestJain:
    def test_equal_allocation(self):
        assert jain_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_winner_takes_all(self):
        assert jain_index([30.0, 0.0, 0.0]) == pytest.approx(1.0 / 3.0)

    def test_known_value(self):
        # (60+40)^2 / (2*(3600+1600)) = 10000/10400.
        assert jain_index([60.0, 40.0]) == pytest.approx(10000.0 / 10400.0)

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_rejects_empty_and_negative(self):
        with pytest.raises(ConfigError):
            jain_index([])
        with pytest.raises(ConfigError):
            jain_index([-1.0, 2.0])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6),
                    min_size=1, max_size=10))
    def test_property_range(self, xs):
        j = jain_index(xs)
        assert 1.0 / len(xs) - 1e-9 <= j <= 1.0 + 1e-9

    @settings(max_examples=50, deadline=None)
    @given(xs=st.lists(st.floats(min_value=0.1, max_value=1e4),
                       min_size=2, max_size=8),
           scale=st.floats(min_value=0.1, max_value=100.0))
    def test_property_scale_invariant(self, xs, scale):
        assert jain_index(xs) == pytest.approx(
            jain_index([x * scale for x in xs]))


def _partition(xs: list, cuts: list[int]) -> list[list]:
    """Split ``xs`` into contiguous non-empty-where-possible parts."""
    bounds = sorted({min(c % (len(xs) + 1), len(xs)) for c in cuts})
    parts, prev = [], 0
    for b in bounds + [len(xs)]:
        parts.append(xs[prev:b])
        prev = b
    return parts


class TestFairnessAccumulator:
    def test_matches_direct_jain(self):
        xs = [60.0, 40.0, 10.0]
        acc = FairnessAccumulator().add(xs, capacity=200.0)
        assert acc.jain() == pytest.approx(jain_index(xs), abs=1e-12)
        assert acc.utilization() == pytest.approx(sum(xs) / 200.0)

    def test_all_zero_is_fair(self):
        acc = FairnessAccumulator().add([0.0, 0.0], capacity=10.0)
        assert acc.jain() == 1.0
        assert acc.utilization() == 0.0

    def test_empty_jain_and_zero_capacity_are_typed(self):
        acc = FairnessAccumulator()
        with pytest.raises(ConfigError):
            acc.jain()
        with pytest.raises(ConfigError):
            acc.utilization()

    def test_rejects_bad_inputs(self):
        acc = FairnessAccumulator()
        with pytest.raises(ConfigError):
            acc.add([-1.0])
        with pytest.raises(ConfigError):
            acc.add([float("nan")])
        with pytest.raises(ConfigError):
            acc.add([1.0], capacity=float("inf"))

    def test_dict_round_trip(self):
        acc = FairnessAccumulator().add([3.0, 4.0], capacity=10.0)
        clone = FairnessAccumulator.from_dict(acc.as_dict())
        assert clone == acc
        with pytest.raises(ConfigError):
            FairnessAccumulator.from_dict({"count": 1})

    def test_merge_counts_batches(self):
        a = FairnessAccumulator().add([1.0], capacity=5.0)
        b = FairnessAccumulator().add([2.0], capacity=5.0)
        merged = a.merge(b)
        assert merged.batches == 2
        assert merged.count == 2
        assert merged.capacity == 10.0

    # The satellite property: merged per-shard statistics equal the
    # monolithic computation on the concatenated flows, at 1e-9.
    @settings(max_examples=200, deadline=None)
    @given(xs=st.lists(st.floats(min_value=0.0, max_value=1e6),
                       min_size=1, max_size=24),
           cuts=st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=0, max_size=5),
           cap=st.floats(min_value=1.0, max_value=1e6))
    # The falsifying example that kept tier-1 red (sum_sq underflows to
    # 0 while the peak does not), and the pair straddling a floor that
    # is peak-based on one side and sum_sq-based on the other.
    @example(xs=[0.0, 5e-324], cuts=[], cap=1.0)
    @example(xs=[0.9e-150, 0.0], cuts=[], cap=1.0)
    @example(xs=[1.1e-150, 0.0], cuts=[1], cap=1.0)
    def test_property_merge_equals_monolithic(self, xs, cuts, cap):
        parts = _partition(xs, cuts)
        per_flow_cap = cap / len(xs)
        merged = FairnessAccumulator()
        for part in parts:
            shard = FairnessAccumulator()
            shard.add(part, capacity=per_flow_cap * len(part))
            merged.merge(shard)
        mono = FairnessAccumulator().add(xs, capacity=cap)
        assert merged.count == mono.count == len(xs)
        assert merged.jain() == pytest.approx(jain_index(xs), abs=1e-9)
        assert merged.jain() == pytest.approx(mono.jain(), abs=1e-9)
        assert merged.utilization() == pytest.approx(mono.utilization(),
                                                     rel=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(xs=st.lists(st.floats(min_value=0.0, max_value=1e6),
                       min_size=2, max_size=16),
           cuts=st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=1, max_size=4))
    def test_property_partition_invariance(self, xs, cuts):
        """Any split of the same flows merges to the same statistics."""
        half = FairnessAccumulator()
        for part in _partition(xs, [len(xs) // 2]):
            half.merge(FairnessAccumulator().add(part, capacity=1.0))
        other = FairnessAccumulator()
        for part in _partition(xs, cuts):
            other.merge(FairnessAccumulator().add(part, capacity=1.0))
        assert half.count == other.count
        assert half.total == pytest.approx(other.total, rel=1e-12)
        assert half.sum_sq == pytest.approx(other.sum_sq, rel=1e-12)


class TestAstraeaMetric:
    def test_zero_at_equality(self):
        assert astraea_fairness_metric([5.0, 5.0]) == 0.0

    def test_saturation_contrast_with_jain(self):
        """Fig. 4: near equality, R_fair keeps moving while Jain flattens."""
        gaps = [0.0, 10.0, 20.0, 40.0]
        jains, fairs = [], []
        for g in gaps:
            alloc = [50.0 + g / 2, 50.0 - g / 2]
            jains.append(1.0 - jain_index(alloc))
            fairs.append(astraea_fairness_metric(alloc))
        # First 20 Mbps of gap: R_fair moves 0.1, Jain only ~0.038.
        assert fairs[2] - fairs[0] > 2.5 * (jains[2] - jains[0])

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            astraea_fairness_metric([])


class TestMaxMin:
    def test_elastic_flows_split_evenly(self):
        shares = max_min_fair_shares([np.inf, np.inf], 100.0)
        assert shares == pytest.approx([50.0, 50.0])

    def test_small_demand_capped(self):
        shares = max_min_fair_shares([10.0, np.inf, np.inf], 100.0)
        assert shares == pytest.approx([10.0, 45.0, 45.0])

    def test_all_demands_satisfiable(self):
        shares = max_min_fair_shares([10.0, 20.0], 100.0)
        assert shares == pytest.approx([10.0, 20.0])

    def test_rejects_negative(self):
        with pytest.raises(ConfigError):
            max_min_fair_shares([-1.0], 10.0)
        with pytest.raises(ConfigError):
            max_min_fair_shares([1.0], -10.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0),
                    min_size=1, max_size=6),
           st.floats(min_value=1.0, max_value=500.0))
    def test_property_feasible_and_capped(self, demands, capacity):
        shares = max_min_fair_shares(demands, capacity)
        assert np.all(shares <= np.asarray(demands) + 1e-9)
        assert shares.sum() <= capacity + 1e-6
