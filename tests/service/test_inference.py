"""Batched inference service vs per-flow servers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import PolicyBundle, new_actor
from repro.errors import (
    DeadlineExceededError,
    InvalidStateError,
    ServiceError,
)
from repro.service import (
    BatchedInferenceService,
    PerFlowServers,
    analytic_fallback_action,
    synthetic_request_trace,
)


@pytest.fixture(scope="module")
def bundle():
    return PolicyBundle(actor=new_actor(seed=11))


class TestBatchedService:
    def test_flush_serves_everything_queued(self, bundle):
        svc = BatchedInferenceService(bundle)
        for i in range(5):
            svc.submit(i, np.zeros(bundle.actor.in_dim))
        out = svc.flush()
        assert set(out) == set(range(5))
        assert svc.accounting.forward_passes == 1
        assert svc.accounting.batch_sizes == [5]

    def test_actions_match_direct_inference(self, bundle):
        svc = BatchedInferenceService(bundle)
        rng = np.random.default_rng(0)
        states = rng.normal(size=(4, bundle.actor.in_dim))
        for i, s in enumerate(states):
            svc.submit(i, s)
        out = svc.flush()
        for i, s in enumerate(states):
            assert out[i] == pytest.approx(bundle.act(s), abs=1e-9)

    def test_windows_group_requests(self, bundle):
        svc = BatchedInferenceService(bundle, batch_window_s=0.005)
        dim = bundle.actor.in_dim
        arrivals = [(0.000, 0, np.zeros(dim)),
                    (0.001, 1, np.zeros(dim)),
                    (0.010, 0, np.zeros(dim))]
        out = svc.serve_trace(arrivals)
        # Two windows: {0,1} then {0}.
        assert svc.accounting.forward_passes == 2
        assert sorted(svc.accounting.batch_sizes) == [1, 2]
        assert len(out[0]) == 2
        assert len(out[1]) == 1

    def test_rejects_bad_state(self, bundle):
        svc = BatchedInferenceService(bundle)
        with pytest.raises(ServiceError):
            svc.submit(0, np.zeros(3))

    def test_rejects_bad_window(self, bundle):
        with pytest.raises(ServiceError):
            BatchedInferenceService(bundle, batch_window_s=0.0)


class TestPerFlowServers:
    def test_one_pass_per_request(self, bundle):
        servers = PerFlowServers(bundle, n_flows=3)
        dim = bundle.actor.in_dim
        for fid in range(3):
            servers.serve(fid, np.zeros(dim))
        assert servers.accounting.forward_passes == 3
        assert servers.accounting.batch_sizes == [1, 1, 1]

    def test_actions_match_bundle(self, bundle):
        servers = PerFlowServers(bundle, n_flows=2)
        s = np.random.default_rng(1).normal(size=bundle.actor.in_dim)
        assert servers.serve(0, s) == pytest.approx(bundle.act(s), abs=1e-9)

    def test_rejects_unknown_flow(self, bundle):
        servers = PerFlowServers(bundle, n_flows=2)
        with pytest.raises(ServiceError):
            servers.serve(5, np.zeros(bundle.actor.in_dim))

    def test_rejects_zero_flows(self, bundle):
        with pytest.raises(ServiceError):
            PerFlowServers(bundle, n_flows=0)


class TestScalability:
    def test_batching_reduces_forward_passes(self, bundle):
        """The architectural claim of §5.4: with many concurrent flows the
        batched service does far fewer forward passes."""
        trace = synthetic_request_trace(n_flows=50, duration_s=0.5,
                                        state_dim=bundle.actor.in_dim)
        batched = BatchedInferenceService(bundle)
        batched.serve_trace(trace)
        per_flow = PerFlowServers(bundle, n_flows=50)
        per_flow.serve_trace(trace)
        assert batched.accounting.requests == per_flow.accounting.requests
        assert batched.accounting.forward_passes < \
            per_flow.accounting.forward_passes / 4
        assert batched.accounting.mean_batch_size > 4

    def test_trace_request_count(self):
        trace = synthetic_request_trace(n_flows=10, duration_s=0.2,
                                        mtp_s=0.020)
        assert len(trace) == 10 * 10

    def test_trace_validation(self):
        with pytest.raises(ServiceError):
            synthetic_request_trace(0, 1.0)


class TestAccounting:
    def test_mean_batch_size_empty(self, bundle):
        svc = BatchedInferenceService(bundle)
        assert svc.accounting.mean_batch_size == 0.0

    def test_flush_empty_queue_is_noop(self, bundle):
        svc = BatchedInferenceService(bundle)
        assert svc.flush() == {}
        assert svc.accounting.forward_passes == 0

    def test_serve_trace_empty(self, bundle):
        assert BatchedInferenceService(bundle).serve_trace([]) == {}

    def test_requests_counted(self, bundle):
        svc = BatchedInferenceService(bundle)
        for i in range(7):
            svc.submit(i, np.zeros(bundle.actor.in_dim))
        assert svc.accounting.requests == 7


class TestHardening:
    def test_wrong_shape_raises_typed_even_with_fallback(self, bundle):
        svc = BatchedInferenceService(bundle, fallback="analytic")
        with pytest.raises(InvalidStateError):
            svc.submit(0, np.zeros(3))
        with pytest.raises(InvalidStateError):
            svc.submit(0, np.zeros((2, bundle.actor.in_dim)))
        assert svc.accounting.rejected == 2
        assert not svc.accounting.degraded

    def test_nan_without_fallback_raises(self, bundle):
        svc = BatchedInferenceService(bundle)
        state = np.zeros(bundle.actor.in_dim)
        state[5] = np.nan
        with pytest.raises(InvalidStateError):
            svc.submit(0, state)
        assert svc.accounting.rejected == 1

    def test_nan_with_fallback_served_analytically(self, bundle):
        svc = BatchedInferenceService(bundle, fallback="analytic")
        bad = np.full(bundle.actor.in_dim, np.nan)
        good = np.zeros(bundle.actor.in_dim)
        svc.submit(0, bad)
        svc.submit(1, good)
        out = svc.flush()
        assert np.isfinite(out[0]) and -1.0 < out[0] < 1.0
        assert out[1] == pytest.approx(bundle.act(good), abs=1e-9)
        assert svc.accounting.fallbacks == 1
        assert svc.accounting.degraded
        assert svc.accounting.batch_sizes == [1]  # only the healthy one

    def test_deadline_miss_routes_to_fallback(self, bundle):
        svc = BatchedInferenceService(bundle, deadline_s=0.010,
                                      fallback="analytic")
        svc.submit(0, np.zeros(bundle.actor.in_dim), arrival_s=0.0)
        svc.submit(1, np.zeros(bundle.actor.in_dim), arrival_s=0.0995)
        out = svc.flush(now_s=0.100)
        assert np.isfinite(out[0])
        assert svc.accounting.deadline_misses == 1
        assert svc.accounting.fallbacks == 1
        assert svc.accounting.degraded

    def test_deadline_miss_without_fallback_raises(self, bundle):
        svc = BatchedInferenceService(bundle, deadline_s=0.010)
        svc.submit(0, np.zeros(bundle.actor.in_dim), arrival_s=0.0)
        with pytest.raises(DeadlineExceededError):
            svc.flush(now_s=1.0)
        assert svc.accounting.deadline_misses == 1
        assert svc.accounting.degraded

    def test_no_deadline_means_no_misses(self, bundle):
        svc = BatchedInferenceService(bundle)
        svc.submit(0, np.zeros(bundle.actor.in_dim), arrival_s=0.0)
        out = svc.flush(now_s=99.0)
        assert 0 in out
        assert svc.accounting.deadline_misses == 0

    def test_custom_callable_fallback(self, bundle):
        svc = BatchedInferenceService(bundle, fallback=lambda s: 0.123)
        bad = np.full(bundle.actor.in_dim, np.inf)
        svc.submit(7, bad)
        assert svc.flush() == {7: 0.123}

    def test_constructor_validation(self, bundle):
        with pytest.raises(ServiceError):
            BatchedInferenceService(bundle, deadline_s=0.0)
        with pytest.raises(ServiceError):
            BatchedInferenceService(bundle, fallback="magic")

    def test_per_flow_rejects_nonfinite_and_wrong_shape(self, bundle):
        servers = PerFlowServers(bundle, n_flows=1)
        state = np.zeros(bundle.actor.in_dim)
        state[0] = np.inf
        with pytest.raises(InvalidStateError):
            servers.serve(0, state)
        with pytest.raises(InvalidStateError):
            servers.serve(0, np.zeros(3))
        assert servers.accounting.rejected == 2

    def test_serve_trace_with_deadline_and_fallback_stays_healthy(
            self, bundle):
        # Requests are served at their window end, so a deadline longer
        # than the batching window never fires.
        svc = BatchedInferenceService(bundle, batch_window_s=0.005,
                                      deadline_s=0.050, fallback="analytic")
        trace = synthetic_request_trace(n_flows=5, duration_s=0.2,
                                        state_dim=bundle.actor.in_dim)
        svc.serve_trace(trace)
        assert svc.accounting.deadline_misses == 0
        assert not svc.accounting.degraded


FINITE_OR_NOT = st.floats(allow_nan=True, allow_infinity=True,
                          width=64)


class TestHardeningProperties:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(FINITE_OR_NOT, min_size=40, max_size=40))
    def test_submit_with_fallback_never_raises(self, bundle, values):
        svc = BatchedInferenceService(bundle, fallback="analytic")
        svc.submit(0, np.array(values))
        out = svc.flush()
        assert set(out) == {0}
        assert np.isfinite(out[0])
        assert -1.0 < out[0] < 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.lists(FINITE_OR_NOT, min_size=40, max_size=40))
    def test_analytic_fallback_always_bounded(self, values):
        a = analytic_fallback_action(np.array(values))
        assert np.isfinite(a)
        assert -1.0 < a < 1.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=200).filter(lambda n: n != 40))
    def test_wrong_dim_always_typed_error(self, bundle, dim):
        svc = BatchedInferenceService(bundle, fallback="analytic")
        with pytest.raises(InvalidStateError):
            svc.submit(0, np.zeros(dim))


class TestNonFiniteActorOutput:
    """A finite-but-huge state passes input validation yet overflows the
    actor's matmul into inf/NaN.  The service must degrade gracefully, not
    return a non-finite action (this was a real, randomly-surfacing
    failure in the fallback property test before the output guard)."""

    HUGE = 1e308

    def huge_state(self, bundle):
        return np.full(bundle.actor.in_dim, self.HUGE)

    def test_flush_routes_overflow_to_fallback(self, bundle):
        svc = BatchedInferenceService(bundle, fallback="analytic")
        svc.submit(0, self.huge_state(bundle))
        svc.submit(1, np.zeros(bundle.actor.in_dim))
        out = svc.flush()
        assert np.isfinite(out[0])
        assert out[1] == pytest.approx(
            bundle.act(np.zeros(bundle.actor.in_dim)), abs=1e-9)
        assert svc.accounting.fallbacks == 1
        assert svc.accounting.degraded

    def test_flush_without_fallback_returns_neutral(self, bundle):
        svc = BatchedInferenceService(bundle)
        svc.submit(0, self.huge_state(bundle))
        out = svc.flush()
        assert out[0] == 0.0
        assert svc.accounting.degraded

    @pytest.mark.parametrize("fallback", ["analytic", None])
    @pytest.mark.parametrize("overflow_row", [None, 3])
    def test_window_clip_equals_the_per_row_loop(self, bundle, fallback,
                                                 overflow_row):
        """``flush`` clips a finite window in one pass and goes row by
        row only when a row overflowed; either way the answers and the
        counters are those of the per-row loop, kept here as reference."""
        rng = np.random.default_rng(5)
        states = rng.normal(size=(9, bundle.actor.in_dim)) * 3.0
        if overflow_row is not None:
            states[overflow_row] = self.HUGE
        svc = BatchedInferenceService(bundle, fallback=fallback)
        for rid, state in enumerate(states):
            svc.submit(rid, state)
        out = svc.flush()

        with np.errstate(over="ignore", invalid="ignore"):
            raw = bundle.actor.infer(states)[:, 0]
        expected, degraded_rows = {}, 0
        for rid, a in enumerate(raw):
            if np.isfinite(a):
                expected[rid] = float(np.clip(a, -0.999, 0.999))
            else:
                degraded_rows += 1
                expected[rid] = 0.0 if fallback is None else \
                    analytic_fallback_action(states[rid])
        assert degraded_rows == (0 if overflow_row is None else 1)
        assert list(out) == list(expected)
        # Bit-identical, not approximately equal.
        assert [a.hex() for a in out.values()] == \
            [a.hex() for a in expected.values()]
        acc = svc.accounting
        assert acc.fallbacks == (degraded_rows if fallback else 0)
        assert acc.neutral_answers == (0 if fallback else degraded_rows)
        assert acc.degraded == bool(degraded_rows)
        assert (acc.forward_passes, acc.batch_max) == (1, 9)

    def test_per_flow_serve_returns_neutral_and_degrades(self, bundle):
        servers = PerFlowServers(bundle, n_flows=1)
        action = servers.serve(0, self.huge_state(bundle))
        assert action == 0.0
        assert servers.accounting.degraded


class TestDeadlineMissWindowIntegrity:
    """Regression: a deadline miss with no fallback used to abort the
    whole flush, silently discarding every other queued request.  The
    healthy requests of the window must be served first and the raised
    DeadlineExceededError must carry both halves of the ledger."""

    def test_healthy_requests_survive_a_miss(self, bundle):
        svc = BatchedInferenceService(bundle, deadline_s=0.010)
        dim = bundle.actor.in_dim
        rng = np.random.default_rng(2)
        states = {1: rng.normal(size=dim), 2: rng.normal(size=dim)}
        svc.submit(0, np.zeros(dim), arrival_s=0.0)        # overdue
        svc.submit(1, states[1], arrival_s=0.0995)
        svc.submit(2, states[2], arrival_s=0.0998)
        with pytest.raises(DeadlineExceededError) as exc_info:
            svc.flush(now_s=0.100)
        exc = exc_info.value
        assert exc.missed == [0]
        assert set(exc.served) == {1, 2}
        for rid, state in states.items():
            assert exc.served[rid] == pytest.approx(bundle.act(state),
                                                    abs=1e-9)
        assert svc.accounting.deadline_misses == 1
        assert svc.accounting.forward_passes == 1
        assert svc.accounting.degraded

    def test_all_misses_listed_and_counted(self, bundle):
        svc = BatchedInferenceService(bundle, deadline_s=0.010)
        dim = bundle.actor.in_dim
        svc.submit(0, np.zeros(dim), arrival_s=0.0)
        svc.submit(1, np.zeros(dim), arrival_s=0.010)
        svc.submit(2, np.zeros(dim), arrival_s=0.0995)
        with pytest.raises(DeadlineExceededError) as exc_info:
            svc.flush(now_s=0.100)
        assert exc_info.value.missed == [0, 1]
        assert set(exc_info.value.served) == {2}
        assert svc.accounting.deadline_misses == 2

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    def test_no_request_ever_vanishes(self, bundle, overdue_flags):
        """Every submitted id lands in exactly one of served/missed."""
        svc = BatchedInferenceService(bundle, deadline_s=0.010)
        dim = bundle.actor.in_dim
        for rid, overdue in enumerate(overdue_flags):
            svc.submit(rid, np.zeros(dim),
                       arrival_s=0.0 if overdue else 0.0995)
        if any(overdue_flags):
            with pytest.raises(DeadlineExceededError) as exc_info:
                svc.flush(now_s=0.100)
            served = set(exc_info.value.served)
            missed = set(exc_info.value.missed)
        else:
            served, missed = set(svc.flush(now_s=0.100)), set()
        assert served | missed == set(range(len(overdue_flags)))
        assert served & missed == set()


class TestNeutralAnswerParity:
    """Both backends answer actor overflow (finite state, non-finite
    action, no fallback) with 0.0 — and both must account for it the
    same way: neutral_answers bumped, degraded set, no fallback
    counted."""

    HUGE = 1e308

    def test_backends_account_identically(self, bundle):
        state = np.full(bundle.actor.in_dim, self.HUGE)
        batched = BatchedInferenceService(bundle)
        batched.submit(0, state)
        out = batched.flush()
        per_flow = PerFlowServers(bundle, n_flows=1)
        action = per_flow.serve(0, state)

        assert out[0] == 0.0 and action == 0.0
        for acc in (batched.accounting, per_flow.accounting):
            assert acc.neutral_answers == 1
            assert acc.fallbacks == 0
            assert acc.degraded
        keys = ("requests", "neutral_answers", "fallbacks", "rejected",
                "deadline_misses", "degraded")
        b, p = batched.accounting.counters(), per_flow.accounting.counters()
        assert {k: b[k] for k in keys} == {k: p[k] for k in keys}

    def test_healthy_rows_of_the_same_batch_unaffected(self, bundle):
        svc = BatchedInferenceService(bundle)
        good = np.zeros(bundle.actor.in_dim)
        svc.submit(0, np.full(bundle.actor.in_dim, self.HUGE))
        svc.submit(1, good)
        out = svc.flush()
        assert out[0] == 0.0
        assert out[1] == pytest.approx(bundle.act(good), abs=1e-9)
        assert svc.accounting.neutral_answers == 1


class TestBoundedBatchAccounting:
    """Regression: batch_sizes was an unbounded Python list — a
    long-lived daemon leaked memory linearly in forward passes.  The
    aggregates are now streaming and the materialised view is a
    fixed-size ring."""

    def test_view_bounded_aggregates_complete(self):
        from repro.service.inference import RECENT_BATCHES, ServiceAccounting

        acc = ServiceAccounting()
        n = RECENT_BATCHES + 137
        for i in range(1, n + 1):
            acc.record_batch(i)
        assert len(acc.batch_sizes) == RECENT_BATCHES
        # The view holds the most recent entries, oldest first.
        assert acc.batch_sizes == list(range(n - RECENT_BATCHES + 1, n + 1))
        # Aggregates still cover the *full* history.
        assert acc.batch_count == n
        assert acc.batch_sum == n * (n + 1) // 2
        assert acc.batch_max == n
        assert acc.mean_batch_size == pytest.approx((n + 1) / 2)

    def test_ring_memory_is_fixed(self):
        from repro.service.inference import ServiceAccounting

        acc = ServiceAccounting()
        nbytes = acc._recent.nbytes
        for _ in range(3000):
            acc.record_batch(4)
        assert acc._recent.nbytes == nbytes

    def test_partial_fill_matches_history(self):
        from repro.service.inference import ServiceAccounting

        acc = ServiceAccounting()
        sizes = [5, 1, 2, 9]
        for s in sizes:
            acc.record_batch(s)
        assert acc.batch_sizes == sizes
        assert acc.mean_batch_size == pytest.approx(np.mean(sizes))
        assert acc.batch_max == 9


class TestServeTraceWindowBoundaries:
    """Window semantics of serve_trace: a request arriving exactly at
    window_end opens the next window, and late arrivals re-anchor the
    window to their own arrival time."""

    def test_arrival_exactly_at_window_end_opens_new_window(self, bundle):
        svc = BatchedInferenceService(bundle, batch_window_s=0.005)
        dim = bundle.actor.in_dim
        out = svc.serve_trace([(0.000, 0, np.zeros(dim)),
                               (0.005, 1, np.zeros(dim))])
        assert svc.accounting.forward_passes == 2
        assert svc.accounting.batch_sizes == [1, 1]
        assert len(out[0]) == len(out[1]) == 1

    def test_late_arrival_reanchors_window(self, bundle):
        svc = BatchedInferenceService(bundle, batch_window_s=0.005)
        dim = bundle.actor.in_dim
        # Window 1 = [0.0, 0.005).  The arrival at 0.0121 flushes it and
        # re-anchors window 2 to [0.0121, 0.0171), which the arrival at
        # 0.016 still falls inside — no empty intermediate windows.
        svc.serve_trace([(0.0000, 0, np.zeros(dim)),
                         (0.0121, 1, np.zeros(dim)),
                         (0.0160, 2, np.zeros(dim))])
        assert svc.accounting.forward_passes == 2
        assert sorted(svc.accounting.batch_sizes) == [1, 2]

    def test_age_equal_to_deadline_is_not_a_miss(self, bundle):
        # Requests are flushed at window_end, so the oldest request of a
        # window has age exactly batch_window_s; a deadline equal to the
        # window must not fire (strict > comparison).
        svc = BatchedInferenceService(bundle, batch_window_s=0.005,
                                      deadline_s=0.005)
        dim = bundle.actor.in_dim
        out = svc.serve_trace([(0.0, 0, np.zeros(dim))])
        assert len(out[0]) == 1
        assert svc.accounting.deadline_misses == 0
        assert not svc.accounting.degraded

    def test_deadline_shorter_than_window_fires_each_window(self, bundle):
        svc = BatchedInferenceService(bundle, batch_window_s=0.005,
                                      deadline_s=0.004, fallback="analytic")
        dim = bundle.actor.in_dim
        # Each request is alone in its window and waits the full 5 ms
        # before its flush, so every one ages past the 4 ms deadline.
        out = svc.serve_trace([(0.000, 0, np.zeros(dim)),
                               (0.006, 1, np.zeros(dim))])
        assert svc.accounting.deadline_misses == 2
        assert svc.accounting.fallbacks == 2
        assert all(np.isfinite(v) for acts in out.values() for v in acts)
