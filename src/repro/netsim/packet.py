"""Packet-level discrete-event simulator (single bottleneck).

The fluid engine is fast enough for training and large parameter sweeps,
but it is an approximation.  This module provides a reference packet-level
simulator — a drop-tail FIFO bottleneck with per-packet service, explicit
propagation delay and per-packet random loss — used by the fidelity tests
to check that the fluid model's per-MTP statistics (throughput shares,
RTT inflation, loss under overload) agree with real FIFO queueing, and as
the second engine under :class:`~repro.env.multiflow.ScenarioDriver`,
which drives full CC controllers on it per-ACK-clocked.

Event model
-----------
All propagation delay is folded into the ACK return path, so a packet's
measured RTT is ``queue_wait + service_time + base_rtt`` — identical in
expectation to the fluid model's ``base_rtt + queue/capacity``.  Senders
are cwnd-limited and optionally paced; drops are tail drops plus Bernoulli
random loss, and the sender learns of a drop one base RTT after it happens
(a duplicate-ACK-like notification), which also releases the in-flight slot.
Every ``mtp_s`` from its start each flow has an MTP event, which folds the
period's counters into the flow's
:class:`~repro.netsim.stats.IntervalWindow`; MTP events are the engine's
decision instants.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..config import LinkConfig
from ..errors import SimulationError
from ..units import mbps_to_pps
from .faults import FaultSchedule
from .fluid import check_decisions
from .stats import IntervalWindow, MtpColumns

_SEND = 0
_SERVICE_DONE = 1
_ACK = 2
_LOSS_NOTE = 3
_MTP = 4


@dataclass
class PacketFlowStats:
    """Cumulative per-flow counters exposed after a run."""

    sent: int = 0
    delivered: int = 0
    lost: int = 0
    rtt_sum: float = 0.0

    @property
    def avg_rtt_s(self) -> float:
        return self.rtt_sum / self.delivered if self.delivered else 0.0


@dataclass
class _Flow:
    fid: int
    cwnd: float
    base_rtt_s: float
    window: IntervalWindow
    max_cwnd: float = float("inf")
    pacing_pps: float | None = None
    start_s: float = 0.0
    stop_s: float = float("inf")
    inflight: int = 0
    next_send_ok: float = 0.0
    send_event_at: float = -1.0
    #: Time of the MTP event the flow is stopped at, else ``-inf``.
    fired_at: float = -math.inf
    stats: PacketFlowStats = field(default_factory=PacketFlowStats)
    # Per-MTP accumulators.
    mtp_delivered: int = 0
    mtp_lost: int = 0
    mtp_sent: int = 0
    mtp_rtt_sum: float = 0.0


class PacketNetwork:
    """Single-bottleneck packet-level simulator with the fluid engine's
    batch surface (see :class:`~repro.env.multiflow.ScenarioDriver`);
    runs resume exactly (:meth:`advance_to`, :meth:`run`)."""

    #: Flows send inside their own ``[start_s, stop_s)`` windows.
    windowed = True

    def __init__(self, link: LinkConfig, seed: int = 0, mtp_s: float = 0.030,
                 faults: FaultSchedule | None = None):
        self._link = link
        self._faults = faults if faults else None
        self._capacity_pps = mbps_to_pps(link.bandwidth_mbps)
        self._buffer_pkts = int(round(link.buffer_size_packets))
        self._queue: deque[tuple[int, float]] = deque()
        self._busy = False
        self._events: list[tuple[float, int, int, int, float]] = []
        self._counter = itertools.count()
        #: Every flow ever added, by id (which is also its slot).
        self._flows: list[_Flow] = []
        #: Flows stopped at an MTP event, released by the next advance.
        self._fired: list[_Flow] = []
        self._rng = np.random.default_rng(seed)
        #: The decision granularity: one MTP.
        self.tick_s = mtp_s
        self.now = 0.0

    # ------------------------------------------------------------------

    def add_flow(self, base_rtt_s: float, cwnd: float = 10.0,
                 pacing_pps: float | None = None, start_s: float = 0.0,
                 stop_s: float = float("inf")) -> int:
        """Register one flow; returns its id (see :meth:`add_flows`)."""
        return self.add_flows([{
            "base_rtt_s": base_rtt_s, "cwnd_pkts": cwnd,
            "pacing_pps": pacing_pps, "start_s": start_s,
            "stop_s": stop_s}])[0]

    def add_flows(self, specs) -> list[int]:
        """Register flows; returns their ids.  A spec has ``base_rtt_s``
        and optionally ``cwnd_pkts`` (10), ``pacing_pps``, ``start_s`` and
        ``stop_s``: the flow sends only inside ``[start_s, stop_s)``, and
        packets launched before ``stop_s`` still drain."""
        specs = [{"start_s": 0.0, "stop_s": math.inf, **spec}
                 for spec in specs]
        for spec in specs:
            if spec["base_rtt_s"] <= 0:
                raise SimulationError("base rtt must be positive")
            if spec["start_s"] < 0:
                raise SimulationError("flow start must be >= 0")
            if spec["stop_s"] <= spec["start_s"]:
                raise SimulationError("flow stop must be after its start")
        fids = []
        for spec in specs:
            fid = len(self._flows)
            base_rtt_s = spec["base_rtt_s"]
            # Cap the acceptable window at the pipe limit (buffer plus a
            # few bandwidth-delay products).  Every packet beyond it is
            # an immediate, guaranteed tail drop: simulating each one
            # costs an event while telling the sender nothing it does not
            # already see at the cap, and rate-based schemes (BBR,
            # Vivace, Astraea) can otherwise push cwnd so high during a
            # blackout that the event queue grows without bound.
            max_cwnd = self._buffer_pkts \
                + 4.0 * self._capacity_pps * base_rtt_s
            flow = _Flow(
                fid=fid, cwnd=min(spec.get("cwnd_pkts", 10.0), max_cwnd),
                base_rtt_s=base_rtt_s,
                window=IntervalWindow(base_rtt_s, spec["start_s"]),
                max_cwnd=max_cwnd, pacing_pps=spec.get("pacing_pps"),
                start_s=spec["start_s"], stop_s=spec["stop_s"])
            self._flows.append(flow)
            start = max(self.now, flow.start_s)
            self._push(start, _SEND, fid)
            self._push(start + self.tick_s, _MTP, fid)
            fids.append(fid)
        return fids

    def remove_flows(self, fids) -> None:
        """Close the flows' windows now: they stop sending, and the
        packets they launched still drain."""
        for fid in fids:
            flow = self._flows[fid]
            flow.stop_s = min(flow.stop_s, self.now)

    def slots(self, fids) -> np.ndarray:
        """What the batch calls take: a flow's slot is its id."""
        return np.array(list(fids), dtype=np.intp)

    def set_cwnds(self, slots: np.ndarray, cwnd_pkts,
                  pacing_pps=None) -> None:
        """All-or-nothing, as the fluid engine's."""
        check_decisions(cwnd_pkts, pacing_pps, lambda k: slots[k])
        pacing_pps = [math.inf] * len(slots) if pacing_pps is None \
            else np.asarray(pacing_pps, dtype=float).tolist()
        for slot, cwnd, pacing in zip(
                slots.tolist(), np.asarray(cwnd_pkts, dtype=float).tolist(),
                pacing_pps):
            flow = self._flows[slot]
            flow.cwnd = min(max(cwnd, 1.0), flow.max_cwnd)
            flow.pacing_pps = None if pacing == math.inf else pacing

    def collect_stats(self, slots: np.ndarray, now: float) -> MtpColumns:
        """Close the flows' interval windows at ``now``."""
        return MtpColumns.of(now, [
            flow.window.close(now, float(flow.inflight), flow.cwnd,
                              flow.pacing_pps)
            for flow in (self._flows[slot] for slot in slots.tolist())])

    def instants(self, slots: np.ndarray) -> np.ndarray:
        """Per flow: the time of the MTP event it is stopped at (a
        decision instant, see :meth:`advance_to`), else ``-inf``."""
        return np.array([self._flows[slot].fired_at
                         for slot in slots.tolist()])

    def stats(self, fid: int) -> PacketFlowStats:
        return self._flows[fid].stats

    # ------------------------------------------------------------------

    def _push(self, t: float, kind: int, fid: int, payload: float = 0.0) -> None:
        heapq.heappush(self._events, (t, next(self._counter), kind, fid, payload))

    def _try_send(self, flow: _Flow) -> None:
        """Send as permitted by cwnd and pacing; schedules follow-ups."""
        if (self.now < flow.start_s - 1e-12
                or self.now >= flow.stop_s - 1e-12):
            return
        while flow.inflight < int(flow.cwnd):
            if flow.pacing_pps is not None and self.now < flow.next_send_ok:
                # One pending wake-up per flow: every ACK retries the send,
                # and re-pushing an identical event per attempt floods the
                # heap at high ACK rates.
                if flow.send_event_at < flow.next_send_ok:
                    self._push(flow.next_send_ok, _SEND, flow.fid)
                    flow.send_event_at = flow.next_send_ok
                return
            flow.inflight += 1
            flow.stats.sent += 1
            flow.mtp_sent += 1
            if flow.pacing_pps:
                flow.next_send_ok = max(flow.next_send_ok, self.now) + 1.0 / flow.pacing_pps
            self._enqueue(flow)

    def _enqueue(self, flow: _Flow) -> None:
        if len(self._queue) >= self._buffer_pkts and (self._busy or self._queue):
            # Tail drop; the sender learns one base RTT later.
            flow.stats.lost += 1
            flow.mtp_lost += 1
            self._push(self.now + flow.base_rtt_s, _LOSS_NOTE, flow.fid)
            return
        self._queue.append((flow.fid, self.now))
        if not self._busy:
            self._start_service()

    def _service_done_at(self) -> float:
        """When the packet now entering service finishes.

        Faults slow the server (bandwidth flap) or park it until the end
        of a blackout — the queue keeps filling and tail-drops meanwhile,
        exactly as a dead link behaves.
        """
        base = 1.0 / self._capacity_pps
        if self._faults is None:
            return self.now + base
        until = self._faults.blackout_until(self.now)
        if until is not None:
            return until + base
        mult = self._faults.bandwidth_multiplier(self.now)
        return self.now + base / mult

    def _start_service(self) -> None:
        self._busy = True
        self._push(self._service_done_at(), _SERVICE_DONE, -1)

    def _loss_probability(self) -> float:
        """Configured random loss plus any fault-injected loss.

        Reorder windows contribute here too: at packet level the spurious
        duplicate-ACK signal is approximated as loss (the fluid engine
        keeps the goodput and only inflates the observation).
        """
        p = self._link.random_loss
        if self._faults is not None:
            p += self._faults.extra_loss(self.now)
            p += self._faults.spurious_loss(self.now)
        return min(p, 0.99)

    def _finish_service(self) -> None:
        if not self._queue:
            self._busy = False
            return
        fid, enq_time = self._queue.popleft()
        flow = self._flows[fid]
        delay = flow.base_rtt_s
        if self._faults is not None:
            delay += self._faults.extra_delay_s(self.now)
        p_loss = self._loss_probability()
        if p_loss > 0 and self._rng.random() < p_loss:
            flow.stats.lost += 1
            flow.mtp_lost += 1
            self._push(self.now + delay, _LOSS_NOTE, fid)
        else:
            rtt = (self.now - enq_time) + delay
            self._push(self.now + delay, _ACK, fid, rtt)
        if self._queue:
            self._push(self._service_done_at(), _SERVICE_DONE, -1)
        else:
            self._busy = False

    def _fire_mtp(self, flow: _Flow) -> None:
        """Fold the MTP's counters into the flow's interval window and
        stop the flow at this decision instant."""
        # The period's delivery rate times its length, not the count: the
        # pinned trajectories fold exactly this float.
        delivered = flow.mtp_delivered / self.tick_s * self.tick_s
        flow.window.add(float(flow.mtp_sent), delivered,
                        float(flow.mtp_lost))
        if delivered > 0:
            flow.window.observe_rtt(flow.mtp_rtt_sum / flow.mtp_delivered,
                                    delivered)
        flow.mtp_delivered = flow.mtp_lost = flow.mtp_sent = 0
        flow.mtp_rtt_sum = 0.0
        flow.fired_at = self.now
        self._fired.append(flow)

    def _release(self) -> None:
        """Let the flows stopped at an MTP event go on: schedule their
        next MTP event and send under the windows now in force."""
        for flow in self._fired:
            flow.fired_at = -math.inf
            if self.now < flow.stop_s - 1e-12:
                self._push(self.now + self.tick_s, _MTP, flow.fid)
            self._try_send(flow)
        self._fired.clear()

    # ------------------------------------------------------------------

    def advance_to(self, t: float) -> None:
        """Run the event loop up to ``t``, stopping early at an MTP event.

        The stop comes right after the next MTP event and any queued
        directly behind it at the same instant: those flows stand at a
        decision instant and send again only on the next call, after a
        caller's :meth:`collect_stats` / :meth:`set_cwnds`.  Events past
        ``t`` stay queued: advancing to ``a`` then ``b`` is advancing to
        ``b``.
        """
        self._release()
        events = self._events
        while events and events[0][0] <= t:
            now, _, kind, fid, payload = heapq.heappop(events)
            self.now = now
            if kind == _SERVICE_DONE:
                self._finish_service()
            elif kind == _ACK:
                flow = self._flows[fid]
                flow.inflight = max(flow.inflight - 1, 0)
                flow.stats.delivered += 1
                flow.stats.rtt_sum += payload
                flow.mtp_delivered += 1
                flow.mtp_rtt_sum += payload
                self._try_send(flow)
            elif kind == _LOSS_NOTE:
                flow = self._flows[fid]
                flow.inflight = max(flow.inflight - 1, 0)
                self._try_send(flow)
            elif kind == _SEND:
                flow = self._flows[fid]
                flow.send_event_at = -1.0
                self._try_send(flow)
            else:
                self._fire_mtp(self._flows[fid])
                while events and events[0][0] == now \
                        and events[0][2] == _MTP:
                    self._fire_mtp(self._flows[heapq.heappop(events)[3]])
                return
        self.now = max(self.now, t)

    def run(self, duration_s: float) -> None:
        """Run ``duration_s`` more simulated seconds, folding every MTP."""
        if duration_s <= 0:
            raise SimulationError("duration must be positive")
        end = self.now + duration_s
        while self.now < end:
            self.advance_to(end)
