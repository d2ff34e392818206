"""Astraea inference service (§4) and the scalability study of §5.4.

The paper serves many concurrent senders from one shared inference service
that batches requests over a 5 ms window, versus Orca's architecture of
one inference-server instance per flow.  This module implements both
architectures over the NumPy actor and measures their CPU cost, which is
what Fig. 16 compares:

* :class:`BatchedInferenceService` — a single shared actor; requests that
  arrive within one batching window are served by one batched forward pass.
* :class:`PerFlowServers` — one actor instance per flow, one forward pass
  per request (the resource-inefficient baseline).

Both keep accounting (requests, batches, process-CPU-seconds) so the
benchmark can report overhead as a function of the number of flows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.policy import PolicyBundle
from ..core.state import LOCAL_FEATURES
from ..errors import DeadlineExceededError, InvalidStateError, ServiceError


def analytic_fallback_action(state: np.ndarray) -> float:
    """Conservative closed-form action from the newest feature frame.

    The degraded-mode path when the learned actor cannot (or must not)
    serve a request: non-finite state entries, or a request that aged
    past the service deadline.  It rebuilds the reference policy's raw
    signals from the normalised §3.3 features of the most recent history
    frame — the latency ratio (feature 2) plays rtt/rtt_min directly,
    the loss ratio (feature 5) approximates the loss rate, and the
    queued-packet estimate ``diff = cwnd * (1 - rtt_min/rtt)`` is
    reconstructed from the relative cwnd (feature 4) scaled by a nominal
    BDP of ten reference target-queue lengths.  Non-finite entries are
    zeroed first, so the result is always finite and in (-1, 1).
    """
    from ..core.reference import AstraeaReference

    frame = np.asarray(state, dtype=float).ravel()[-LOCAL_FEATURES:]
    frame = np.clip(np.nan_to_num(frame, nan=0.0, posinf=6.0, neginf=0.0),
                    0.0, 6.0)
    ref = AstraeaReference()
    rtt = max(float(frame[2]), 1.0)
    loss = float(frame[5])
    cwnd_pkts = float(frame[4]) * 10.0 * ref.target_pkts
    diff = cwnd_pkts * (1.0 - 1.0 / rtt)
    action = ref.policy_action(rtt_min=1.0, rtt=rtt, diff=diff,
                               loss_rate=loss)
    return float(np.clip(action, -0.999, 0.999))


def default_service_policy(scheme: str = "astraea") -> PolicyBundle:
    """The shipped bundle for ``scheme``, as a hard service dependency.

    Controllers can degrade to their analytic fallbacks, but an inference
    *service* exists to execute a trained actor — if the fallback chain
    resolves to nothing usable this raises
    :class:`~repro.errors.ServiceError` with the repair command instead
    of silently serving garbage.
    """
    from ..core.policy import load_default_policy

    bundle = load_default_policy(scheme)
    if bundle is None:
        raise ServiceError(
            f"no usable {scheme} policy bundle for the inference service; "
            f"run 'python -m repro models regenerate' to rebuild the "
            f"shipped artifacts")
    return bundle


#: Batch sizes retained for inspection (most recent first to fall out).
#: Aggregates (count/sum/max) are streaming and cover the full history;
#: only the materialised ``batch_sizes`` view is bounded — a long-lived
#: daemon must not grow a Python list forever (the ring-buffer idiom of
#: ``repro.netsim.stats``).
RECENT_BATCHES = 512


@dataclass
class ServiceAccounting:
    """Work and health counters of an inference backend.

    Batch-size accounting is streaming: ``batch_count`` / ``batch_sum``
    / ``batch_max`` cover every forward pass ever made, while the
    ``batch_sizes`` view materialises only the most recent
    :data:`RECENT_BATCHES` entries from a fixed-size ring buffer, so the
    accounting stays O(1) in memory over an unbounded daemon lifetime.
    """

    requests: int = 0
    forward_passes: int = 0
    cpu_time_s: float = 0.0
    #: Streaming batch-size aggregates over the full service lifetime.
    batch_count: int = 0
    batch_sum: int = 0
    batch_max: int = 0
    #: Requests refused outright with a typed error (malformed input).
    rejected: int = 0
    #: Requests answered by the analytic fallback instead of the actor.
    fallbacks: int = 0
    #: Requests that aged past the service deadline before being served.
    deadline_misses: int = 0
    #: Requests answered with the neutral action 0.0 because the actor
    #: emitted a non-finite value and no fallback was configured.
    neutral_answers: int = 0
    #: Health flag: True once any request was served degraded (fallback,
    #: neutral answer, or deadline miss).  Monitoring reads this; the
    #: service never clears it by itself.
    degraded: bool = False
    #: Fixed-capacity ring of recent batch sizes (see class docstring).
    _recent: np.ndarray = field(default_factory=lambda: np.zeros(
        RECENT_BATCHES, dtype=np.int64), repr=False, compare=False)

    @property
    def batch_sizes(self) -> list[int]:
        """The most recent (up to :data:`RECENT_BATCHES`) batch sizes,
        oldest first — a bounded view, not the full history."""
        n = min(self.batch_count, RECENT_BATCHES)
        if n == 0:
            return []
        cursor = self.batch_count % RECENT_BATCHES
        ring = np.concatenate([self._recent[cursor:], self._recent[:cursor]])
        return [int(v) for v in ring[-n:]]

    @property
    def mean_batch_size(self) -> float:
        """Mean batch size over the *full* history (streaming)."""
        if self.batch_count == 0:
            return 0.0
        return self.batch_sum / self.batch_count

    def record_batch(self, size: int) -> None:
        """Account one forward pass covering ``size`` requests."""
        self._recent[self.batch_count % RECENT_BATCHES] = size
        self.batch_count += 1
        self.batch_sum += int(size)
        self.batch_max = max(self.batch_max, int(size))

    def mark_degraded(self) -> None:
        self.degraded = True

    def counters(self) -> dict[str, float]:
        """The scalar counters as a plain dict (metrics export)."""
        return {
            "requests": self.requests,
            "forward_passes": self.forward_passes,
            "cpu_time_s": self.cpu_time_s,
            "batch_count": self.batch_count,
            "batch_sum": self.batch_sum,
            "batch_max": self.batch_max,
            "mean_batch_size": self.mean_batch_size,
            "rejected": self.rejected,
            "fallbacks": self.fallbacks,
            "deadline_misses": self.deadline_misses,
            "neutral_answers": self.neutral_answers,
            "degraded": int(self.degraded),
        }


class BatchedInferenceService:
    """Shared-actor service with a fixed batching window.

    ``submit`` enqueues a request stamped with its (simulated) arrival
    time; ``flush`` runs one batched forward per elapsed batching window
    and returns ``{request_id: action}``.  ``serve_trace`` drives a whole
    request timeline through the service, which is what the overhead
    benchmark uses.

    Hardening (the service is long-lived; one bad client must not take
    it down):

    * Submitted states are validated for shape and finiteness.  A wrong
      shape always raises :class:`~repro.errors.InvalidStateError`; a
      right-shaped state with NaN/inf entries raises too — unless a
      ``fallback`` is configured, in which case the request is answered
      by the analytic policy instead of the actor.
    * ``deadline_s`` bounds how long a request may sit in the queue
      (simulated arrival time vs. flush time).  Overdue requests go to
      the fallback when one is configured, else raise
      :class:`~repro.errors.DeadlineExceededError`.
    * A finite state can still overflow the actor into a non-finite
      action; such rows are answered by the fallback (or neutrally, with
      no fallback configured) instead of leaking NaN to the sender.
    * Every degraded answer sets ``accounting.degraded`` and bumps the
      ``fallbacks`` / ``deadline_misses`` counters.
    """

    def __init__(self, policy: PolicyBundle, batch_window_s: float = 0.005,
                 deadline_s: float | None = None,
                 fallback: str | Callable[[np.ndarray], float] | None = None):
        if batch_window_s <= 0:
            raise ServiceError("batch window must be positive")
        if deadline_s is not None and deadline_s <= 0:
            raise ServiceError("deadline must be positive")
        if fallback is None or callable(fallback):
            self._fallback = fallback
        elif fallback == "analytic":
            self._fallback = analytic_fallback_action
        else:
            raise ServiceError(
                f"unknown fallback {fallback!r}; use 'analytic', a "
                f"callable, or None")
        self.policy = policy
        self.batch_window_s = batch_window_s
        self.deadline_s = deadline_s
        self.accounting = ServiceAccounting()
        # (request_id, state, arrival_s, use_fallback)
        self._queue: list[tuple[int, np.ndarray, float | None, bool]] = []

    @classmethod
    def from_default(cls, scheme: str = "astraea",
                     batch_window_s: float = 0.005,
                     deadline_s: float | None = None,
                     fallback: str | Callable[[np.ndarray], float] | None
                     = None) -> "BatchedInferenceService":
        """A service over the shipped bundle (see
        :func:`default_service_policy`)."""
        return cls(default_service_policy(scheme),
                   batch_window_s=batch_window_s, deadline_s=deadline_s,
                   fallback=fallback)

    def submit(self, request_id: int, state: np.ndarray,
               arrival_s: float | None = None) -> None:
        """Enqueue one request; validates the state before it is accepted.

        ``arrival_s`` is the request's (simulated) arrival time; it only
        matters when the service has a ``deadline_s``.
        """
        state = np.asarray(state, dtype=float)
        if state.ndim != 1 or state.shape[0] != self.policy.actor.in_dim:
            self.accounting.rejected += 1
            raise InvalidStateError(
                f"state must be a vector of dim {self.policy.actor.in_dim}, "
                f"got shape {state.shape}")
        use_fallback = False
        if not np.isfinite(state).all():
            if self._fallback is None:
                self.accounting.rejected += 1
                raise InvalidStateError(
                    f"state for request {request_id} contains non-finite "
                    f"entries and the service has no fallback")
            use_fallback = True
        self._queue.append((request_id, state, arrival_s, use_fallback))
        self.accounting.requests += 1

    def _deadline_missed(self, arrival_s: float | None,
                         now_s: float | None) -> bool:
        return (self.deadline_s is not None and arrival_s is not None
                and now_s is not None
                and now_s - arrival_s > self.deadline_s)

    def flush(self, now_s: float | None = None) -> dict[int, float]:
        """Serve everything queued in the current window.

        One batched forward pass covers the healthy requests; requests
        flagged for fallback — non-finite state at submit, or older than
        ``deadline_s`` relative to ``now_s`` — are answered analytically.

        With no fallback configured an overdue request cannot be
        answered, but it must not take the rest of the window down with
        it: the remaining requests are served first, and only then does
        the flush raise :class:`~repro.errors.DeadlineExceededError`
        carrying the ``served`` answers and the ``missed`` request ids —
        no request ever silently vanishes.
        """
        if not self._queue:
            return {}
        queue, self._queue = self._queue, []
        out: dict[int, float] = {}
        healthy_ids: list[int] = []
        healthy: list[np.ndarray] = []
        unservable: list[tuple[int, float]] = []
        for rid, state, arrival_s, use_fallback in queue:
            missed = self._deadline_missed(arrival_s, now_s)
            if missed:
                self.accounting.deadline_misses += 1
                if self._fallback is None:
                    self.accounting.mark_degraded()
                    unservable.append((rid, now_s - arrival_s))
                    continue
            if use_fallback or missed:
                out[rid] = float(self._fallback(state))
                self.accounting.fallbacks += 1
                self.accounting.mark_degraded()
            else:
                healthy_ids.append(rid)
                healthy.append(state)
        if healthy:
            states = np.array(healthy)
            t0 = time.process_time()
            with np.errstate(over="ignore", invalid="ignore"):
                actions = self.policy.actor.infer(states)[:, 0]
            self.accounting.cpu_time_s += time.process_time() - t0
            self.accounting.forward_passes += 1
            self.accounting.record_batch(len(healthy))
            if np.isfinite(actions).all():
                out.update(zip(healthy_ids,
                               np.clip(actions, -0.999, 0.999).tolist()))
            else:
                # A finite but extreme state can still overflow the
                # actor's matmuls into inf/NaN, which np.clip would pass
                # through — so degrade those rows individually.
                for rid, state, a in zip(healthy_ids, healthy, actions):
                    if np.isfinite(a):
                        out[rid] = float(np.clip(a, -0.999, 0.999))
                        continue
                    self.accounting.mark_degraded()
                    if self._fallback is not None:
                        self.accounting.fallbacks += 1
                        out[rid] = float(self._fallback(state))
                    else:
                        self.accounting.neutral_answers += 1
                        out[rid] = 0.0
        if unservable:
            ages = ", ".join(f"{rid} ({age:.4f}s)"
                             for rid, age in unservable)
            raise DeadlineExceededError(
                f"{len(unservable)} request(s) aged past the "
                f"{self.deadline_s}s deadline with no fallback "
                f"configured: {ages}; the other {len(out)} request(s) "
                f"of the window were served (see .served)",
                missed=[rid for rid, _ in unservable], served=out)
        return out

    def serve_trace(self, arrivals: list[tuple[float, int, np.ndarray]],
                    ) -> dict[int, list[float]]:
        """Serve a timeline of (arrival_time, flow_id, state) requests.

        Requests are grouped into consecutive batching windows by arrival
        time.  Returns per-flow action lists, in arrival order.
        """
        out: dict[int, list[float]] = {}
        if not arrivals:
            return out
        arrivals = sorted(arrivals, key=lambda r: r[0])
        window_end = arrivals[0][0] + self.batch_window_s
        for t, fid, state in arrivals:
            if t >= window_end:
                for rid, action in self.flush(now_s=window_end).items():
                    out.setdefault(rid, []).append(action)
                window_end = t + self.batch_window_s
            self.submit(fid, state, arrival_s=t)
        for rid, action in self.flush(now_s=window_end).items():
            out.setdefault(rid, []).append(action)
        return out


class PerFlowServers:
    """One actor instance per flow — the Orca-style baseline.

    Every flow owns a full copy of the network (the memory overhead the
    paper calls resource-inefficient) and every request costs one
    single-row forward pass.
    """

    def __init__(self, policy: PolicyBundle, n_flows: int):
        if n_flows <= 0:
            raise ServiceError("need at least one flow")
        self._actors = [policy.actor.clone() for _ in range(n_flows)]
        self.accounting = ServiceAccounting()

    @classmethod
    def from_default(cls, n_flows: int,
                     scheme: str = "astraea") -> "PerFlowServers":
        """Per-flow servers over the shipped bundle (see
        :func:`default_service_policy`)."""
        return cls(default_service_policy(scheme), n_flows)

    @property
    def n_flows(self) -> int:
        return len(self._actors)

    def serve(self, flow_id: int, state: np.ndarray) -> float:
        if not 0 <= flow_id < len(self._actors):
            raise ServiceError(f"unknown flow {flow_id}")
        state = np.asarray(state, dtype=float)
        if state.ndim != 1 or state.shape[0] != self._actors[flow_id].in_dim:
            self.accounting.rejected += 1
            raise InvalidStateError(
                f"state must be a vector of dim "
                f"{self._actors[flow_id].in_dim}, got shape {state.shape}")
        if not np.isfinite(state).all():
            self.accounting.rejected += 1
            raise InvalidStateError(
                f"state for flow {flow_id} contains non-finite entries")
        self.accounting.requests += 1
        t0 = time.process_time()
        with np.errstate(over="ignore", invalid="ignore"):
            action = self._actors[flow_id].infer(state)[0, 0]
        self.accounting.cpu_time_s += time.process_time() - t0
        self.accounting.forward_passes += 1
        self.accounting.record_batch(1)
        if not np.isfinite(action):
            # Actor overflowed on a finite but extreme state: answer
            # neutrally rather than emitting NaN to the sender — and
            # account for it, exactly as the batched backend does.
            self.accounting.mark_degraded()
            self.accounting.neutral_answers += 1
            return 0.0
        return float(np.clip(action, -0.999, 0.999))

    def serve_trace(self, arrivals: list[tuple[float, int, np.ndarray]],
                    ) -> dict[int, list[float]]:
        """Serve a timeline of requests, one forward pass each."""
        out: dict[int, list[float]] = {}
        for _, fid, state in sorted(arrivals, key=lambda r: r[0]):
            out.setdefault(fid, []).append(self.serve(fid, state))
        return out


def synthetic_request_trace(n_flows: int, duration_s: float,
                            mtp_s: float = 0.020, state_dim: int = 40,
                            seed: int = 0,
                            ) -> list[tuple[float, int, np.ndarray]]:
    """Per-flow MTP-cadenced inference requests with desynchronised phases."""
    if n_flows <= 0 or duration_s <= 0 or mtp_s <= 0:
        raise ServiceError("trace parameters must be positive")
    rng = np.random.default_rng(seed)
    phases = rng.uniform(0.0, mtp_s, size=n_flows)
    arrivals = []
    for fid in range(n_flows):
        t = phases[fid]
        while t < duration_s:
            arrivals.append((float(t), fid,
                             rng.normal(size=state_dim)))
            t += mtp_s
    return arrivals
