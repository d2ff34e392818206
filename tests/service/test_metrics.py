"""Streaming latency histogram and metrics text exposition."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.inference import ServiceAccounting
from repro.service.metrics import LatencyHistogram, render_metrics


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.mean_s == 0.0
        assert h.quantile(0.5) == 0.0
        assert h.summary()["p999_s"] == 0.0

    def test_single_sample_all_quantiles_near_it(self):
        h = LatencyHistogram()
        h.record(0.005)
        for q in (0.0, 0.5, 0.99, 0.999, 1.0):
            assert h.quantile(q) == pytest.approx(0.005, rel=0.15)
        assert h.max_s == 0.005
        assert h.mean_s == pytest.approx(0.005)

    def test_quantiles_ordered_and_bounded_by_max(self):
        rng = np.random.default_rng(3)
        h = LatencyHistogram()
        for v in rng.lognormal(mean=-5.0, sigma=1.0, size=2000):
            h.record(v)
        p50, p99, p999 = (h.quantile(0.5), h.quantile(0.99),
                          h.quantile(0.999))
        assert p50 <= p99 <= p999 <= h.max_s
        assert p50 > 0

    def test_quantile_accuracy_within_bucket_resolution(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.001, 0.010, size=5000)
        h = LatencyHistogram()
        for v in samples:
            h.record(v)
        # Log buckets at 20/decade resolve ~12 %; allow 2 buckets.
        assert h.quantile(0.5) == pytest.approx(
            float(np.percentile(samples, 50)), rel=0.25)
        assert h.quantile(0.99) == pytest.approx(
            float(np.percentile(samples, 99)), rel=0.25)

    def test_out_of_range_samples_survive(self):
        h = LatencyHistogram()
        h.record(1e-9)     # below the first bucket
        h.record(1e4)      # above the last bucket
        assert h.count == 2
        assert h.quantile(1.0) == 1e4

    def test_non_finite_and_negative_ignored(self):
        h = LatencyHistogram()
        h.record(float("nan"))
        h.record(float("inf"))
        h.record(-1.0)
        assert h.count == 0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)

    def test_memory_is_fixed(self):
        h = LatencyHistogram()
        size_before = h._counts.nbytes + h._edges.nbytes
        for i in range(10000):
            h.record(1e-5 * (1 + i % 997))
        assert h._counts.nbytes + h._edges.nbytes == size_before
        assert h.count == 10000

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=1e-7, max_value=50.0,
                              allow_nan=False), min_size=1, max_size=200))
    def test_quantile_monotone_in_q(self, values):
        h = LatencyHistogram()
        for v in values:
            h.record(v)
        qs = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert qs == sorted(qs)
        assert qs[-1] <= h.max_s

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.one_of(st.floats(min_value=0.0, max_value=1e3),
                  st.floats(allow_nan=True, allow_infinity=True)),
        max_size=120), st.integers(min_value=0, max_value=120))
    def test_record_many_equals_a_per_observation_loop(self, values,
                                                       split):
        """The per-window fold is the per-request fold it replaced: same
        buckets, same count and max, the same float sum (arrival order).
        The reference loop is spelled out here, one observation at a
        time."""
        folded = LatencyHistogram()
        folded.record_many(values[:split])
        folded.record_many(values[split:])
        counts = [0] * folded._counts.size
        count, sum_s, max_s = 0, 0.0, 0.0
        for v in values:
            if not math.isfinite(v) or v < 0.0:
                continue
            counts[int(np.searchsorted(folded._edges, v,
                                       side="right"))] += 1
            count += 1
            sum_s += v
            max_s = max(max_s, v)
        assert folded._counts.tolist() == counts
        assert (folded.count, folded.sum_s, folded.max_s) \
            == (count, sum_s, max_s)

        single = LatencyHistogram()
        for v in values:
            single.record(v)
        assert single._counts.tolist() == counts
        assert (single.count, single.sum_s, single.max_s) \
            == (count, sum_s, max_s)


class TestRenderMetrics:
    def test_counters_and_quantiles_exposed(self):
        acc = ServiceAccounting()
        acc.requests = 7
        acc.record_batch(7)
        h = LatencyHistogram()
        h.record(0.004)
        text = render_metrics(acc, h, extra={"daemon_inflight": 3})
        assert "repro_service_requests 7\n" in text
        assert "repro_service_mean_batch_size 7\n" in text
        assert "repro_service_daemon_inflight 3\n" in text
        assert 'repro_service_latency_seconds{quantile="0.999"}' in text
        assert "repro_service_latency_seconds_count 1\n" in text

    def test_without_histogram(self):
        text = render_metrics(ServiceAccounting())
        assert "latency" not in text
        assert "repro_service_requests 0\n" in text

    def test_every_line_is_name_value(self):
        acc = ServiceAccounting()
        acc.cpu_time_s = 0.125
        h = LatencyHistogram()
        h.record(0.002)
        for line in render_metrics(acc, h).strip().splitlines():
            name, value = line.rsplit(" ", 1)
            float(value)  # parses
            assert name.startswith("repro_service_")
