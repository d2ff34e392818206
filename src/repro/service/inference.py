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


def state_vector(state, in_dim: int) -> np.ndarray:
    """One request's state as a float vector of ``in_dim`` entries.

    A wrong shape, or an integer too large for a float, raises
    :class:`~repro.errors.InvalidStateError`; an entry that is not a
    number raises the conversion's own ``ValueError`` / ``TypeError``.
    """
    try:
        vector = np.asarray(state, dtype=float)
    except OverflowError as exc:
        raise InvalidStateError(
            f"state entry too large for a float ({exc})") from None
    if vector.shape != (in_dim,):
        raise InvalidStateError(
            f"state must be a vector of dim {in_dim}, "
            f"got shape {vector.shape}")
    return vector


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

    The open batching window is :attr:`window`, one row per request in
    arrival order; ``flush`` serves the whole window with one batched
    forward and returns ``{request_id: action}``.  ``submit`` is the
    in-process way in: it validates a state and appends its row.  The
    serving daemon appends its rows itself and leaves every check to
    ``flush``, which stacks, validates and serves the window in array
    operations and goes row by row only for the rows that need it.
    ``serve_trace`` drives a whole request timeline through the service,
    which is what the overhead benchmark uses.

    Hardening (the service is long-lived; one bad client must not take
    it down):

    * States are validated for shape, convertibility and finiteness by
      one routine, :meth:`check_states`.  A wrong shape, or an entry too
      large for a float, always refuses the request with
      :class:`~repro.errors.InvalidStateError`; a right-shaped state
      with NaN/inf entries is refused too — unless a ``fallback`` is
      configured, in which case the request is answered by the analytic
      policy instead of the actor.  ``submit`` raises the refusal; in a
      window it becomes that row's answer.
    * ``deadline_s`` bounds how long a request may sit in the window
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
        #: The open window: ``(request_id, arrival_s, state, ...)`` rows in
        #: arrival order, each counted in ``accounting.requests`` when it
        #: is appended.  ``state`` is anything ``np.asarray(state,
        #: dtype=float)`` reads — the daemon's are a JSON ``act``'s list
        #: or a binary one's float64 view of its frame; ``arrival_s`` may
        #: be ``None`` (no deadline applies).  Fields past the third ride
        #: along untouched — the daemon keeps the reply's connection and
        #: id there.
        self.window: list[tuple] = []

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

    def check_states(self, states, request_ids,
                     ) -> tuple[np.ndarray, dict[int, Exception],
                                np.ndarray]:
        """Validate and stack states: the service's one validation routine.

        Returns ``(X, refused, finite)``.  ``X`` is the states — lists,
        float64 arrays, or both — as an ``(n, in_dim)`` float array: one
        ``np.array`` over them all, and a conversion row by row only when
        that raises or has the wrong shape; a refused row reads zeros.
        ``refused`` maps a row's position to the error that answers it:
        ``InvalidStateError`` for a wrong shape, an integer too large for
        a float, or (with no fallback configured) a non-finite entry —
        each counted in ``accounting.rejected`` — and the conversion's
        own ``ValueError`` / ``TypeError`` for an entry that is not a
        number.  ``finite`` marks the rows without NaN/inf entries; the
        fallback answers the others.  ``request_ids[i]`` names row ``i``
        in messages.
        """
        in_dim = self.policy.actor.in_dim
        n = len(states)
        try:
            X = np.array(states, dtype=float)
        except (ValueError, TypeError, OverflowError):
            X = None
        refused: dict[int, Exception] = {}
        if X is None or X.shape != (n, in_dim):
            X = np.zeros((n, in_dim))
            for i, state in enumerate(states):
                try:
                    X[i] = state_vector(state, in_dim)
                except (InvalidStateError, ValueError, TypeError) as exc:
                    refused[i] = exc
        finite = np.logical_and.reduce(np.isfinite(X), axis=1)
        if self._fallback is None and np.count_nonzero(finite) < n:
            for i in np.flatnonzero(~finite).tolist():
                refused[i] = InvalidStateError(
                    f"state for request {request_ids[i]} contains "
                    f"non-finite entries and the service has no fallback")
        if refused:
            self.accounting.rejected += sum(
                isinstance(exc, InvalidStateError)
                for exc in refused.values())
        return X, refused, finite

    def submit(self, request_id: int, state: np.ndarray,
               arrival_s: float | None = None) -> None:
        """Validate one request and append it to the window; a refused
        state raises its error (see :meth:`check_states`).

        ``arrival_s`` is the request's (simulated) arrival time; it only
        matters when the service has a ``deadline_s``.
        """
        X, refused, _ = self.check_states((state,), (request_id,))
        if refused:
            raise refused[0]
        self.window.append((request_id, arrival_s, X[0]))
        self.accounting.requests += 1

    def flush(self, now_s: float | None = None) -> dict:
        """Serve the window: ``{request_id: answer}`` in arrival order.

        The window's states are stacked and checked at once
        (:meth:`check_states`), one mask finds the rows older than
        ``deadline_s`` relative to ``now_s``, and one batched forward, in
        arrival order, covers the healthy rows.  Rows flagged for the
        fallback — non-finite state, overdue, or a non-finite actor
        output — are answered analytically, one by one.  A refused row is
        answered with its error instance and leaves
        ``accounting.requests``; ``submit`` refuses before a row gets
        here, so only rows appended directly can be.

        With no fallback configured an overdue request cannot be
        answered, but it must not take the rest of the window down with
        it: the remaining requests are served first, and only then does
        the flush raise :class:`~repro.errors.DeadlineExceededError`
        carrying the ``served`` answers and the ``missed`` request ids —
        no request ever silently vanishes.
        """
        rows = self.window
        if not rows:
            return {}
        self.window = []
        columns = zip(*rows)
        request_ids, arrivals, states = next(columns), next(columns), \
            next(columns)
        n = len(rows)
        acc = self.accounting
        X, refused, finite = self.check_states(states, request_ids)
        usable = np.ones(n, dtype=bool)
        if refused:
            usable[list(refused)] = False
            acc.requests -= len(refused)
        late = np.zeros(n, dtype=bool)
        if self.deadline_s is not None and now_s is not None:
            # ``None`` reads NaN, which is never overdue.
            late = usable & (now_s - np.array(arrivals, dtype=float)
                             > self.deadline_s)
        n_late = int(np.count_nonzero(late))
        if n_late:
            acc.deadline_misses += n_late
            acc.mark_degraded()
        healthy = usable & finite & ~late
        to_fallback = usable & ~healthy if self._fallback is not None \
            else np.zeros(n, dtype=bool)
        answers = np.zeros(n)
        n_healthy = int(np.count_nonzero(healthy))
        if n_healthy:
            at = None if n_healthy == n else np.flatnonzero(healthy)
            t0 = time.process_time()
            with np.errstate(over="ignore", invalid="ignore"):
                actions = self.policy.actor.infer(
                    X if at is None else X[at])[:, 0]
            acc.cpu_time_s += time.process_time() - t0
            acc.forward_passes += 1
            acc.record_batch(n_healthy)
            answers[healthy] = np.clip(actions, -0.999, 0.999)
            overflow = ~np.isfinite(actions)
            if overflow.any():
                # A finite but extreme state can still overflow the
                # actor's matmuls into inf/NaN, which np.clip passes
                # through — so degrade those rows individually.
                overflowed = np.flatnonzero(overflow) if at is None \
                    else at[overflow]
                acc.mark_degraded()
                answers[overflowed] = 0.0
                if self._fallback is None:
                    acc.neutral_answers += len(overflowed)
                else:
                    to_fallback[overflowed] = True
        if to_fallback.any():
            acc.mark_degraded()
            for i in np.flatnonzero(to_fallback).tolist():
                answers[i] = float(self._fallback(X[i]))
                acc.fallbacks += 1
        values = answers.tolist()
        for i, exc in refused.items():
            values[i] = exc
        if not n_late or self._fallback is not None:
            return dict(zip(request_ids, values))
        missed = np.flatnonzero(late).tolist()
        out = {rid: v for rid, v, m in zip(request_ids, values, late)
               if not m}
        ages = ", ".join(f"{request_ids[i]} ({now_s - arrivals[i]:.4f}s)"
                         for i in missed)
        raise DeadlineExceededError(
            f"{n_late} request(s) aged past the "
            f"{self.deadline_s}s deadline with no fallback "
            f"configured: {ages}; the other {len(out)} request(s) "
            f"of the window were served (see .served)",
            missed=[request_ids[i] for i in missed], served=out)

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
        try:
            state = state_vector(state, self._actors[flow_id].in_dim)
        except InvalidStateError:
            self.accounting.rejected += 1
            raise
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
