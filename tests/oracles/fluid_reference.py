"""The fluid engine's per-tick reference physics, as a test double.

:class:`ReferenceFluid` is a :class:`~repro.netsim.fluid.FluidNetwork`
whose :meth:`~ReferenceFluid.advance_block` runs the original per-tick
implementation ``n`` times instead of a block kernel.  It is the
executable specification the kernels are pinned against
(``tests/netsim/test_engine_fastpath.py``): it shares only the
per-flow state vectors, the sample store and flow management with the
production engine, and since ``advance`` and ``advance_to`` go through
``advance_block`` it can stand in for it anywhere, e.g.
``build_driver(scenario, engine=ReferenceFluid.for_scenario(scenario))``.
"""

from __future__ import annotations

import numpy as np

from repro.netsim.fluid import FluidNetwork
from repro.netsim.stats import (
    COL_AVAIL,
    COL_DLV,
    COL_DT,
    COL_LOST,
    COL_MARK,
    COL_RTT,
    COL_SENT,
    COL_TIME,
)


class ReferenceFluid(FluidNetwork):
    """A fluid network stepped one reference tick at a time."""

    @classmethod
    def for_scenario(cls, scenario) -> "ReferenceFluid":
        """The engine :func:`repro.env.build_driver` builds for an
        untraced ``scenario``."""
        assert scenario.trace is None, "capacity traces are not wired up"
        return cls(scenario.link, seed=scenario.seed,
                   faults=scenario.faults, tick_s=scenario.tick_s)

    def advance_block(self, dt: float, n_ticks: int) -> None:
        """``n_ticks`` reference ticks of ``dt`` seconds each."""
        for _ in range(int(n_ticks)):
            self._advance_reference(dt)

    def _advance_reference(self, dt: float) -> None:
        """One tick of the original per-tick implementation."""
        paths = list(self._flows.values())
        t = self.now
        n_links = len(self._links)
        # Fault impairments are uniform across links (single-bottleneck
        # scenarios dominate; a multi-link path degrades end to end).
        fault_mult, fault_loss = 1.0, 0.0
        fault_spurious, fault_delay = 0.0, 0.0
        if self._faults is not None:
            fault_mult = self._faults.bandwidth_multiplier(t)
            fault_loss = self._faults.extra_loss(t)
            fault_spurious = self._faults.spurious_loss(t)
            fault_delay = self._faults.extra_delay_s(t)
        qdelay = np.empty(n_links)
        capacity = np.empty(n_links)
        for li, link in enumerate(self._links):
            capacity[li] = link.capacity_pps(t) * fault_mult
            if capacity[li] > 0:
                qdelay[li] = link.queue_pkts / capacity[li]
            else:
                # Blackout: estimate drain time at the unimpaired rate so
                # RTTs stay finite (service resumes at that rate).
                nominal = link.capacity_pps(t)
                qdelay[li] = link.queue_pkts / nominal if nominal > 0 else 0.0

        if not paths:
            # Queues still drain when idle.
            for li, link in enumerate(self._links):
                drained = min(link.queue_pkts, capacity[li] * dt)
                link.queue_pkts -= drained
                link.total_delivered_pkts += drained
            self.now = t + dt
            return

        n = len(paths)
        base_rtt, cwnd, pacing = self._base_rtt, self._cwnd, self._pacing
        # Path delay through the precomputed membership matrix — the same
        # product the block kernel uses, so the two paths agree bitwise.
        path_delay = self._member_t @ qdelay
        rtt = base_rtt + path_delay + fault_delay

        # Window-limited sending rate, optionally pacing-capped.
        rate = np.minimum(cwnd / rtt, pacing)
        sent = rate * dt
        lost = np.zeros(n)
        marked = np.zeros(n)

        # Push the fluid through each link in network order.  A flow's rate
        # entering a link is its departure rate from the previous hop.
        current = rate.copy()
        for li, link in enumerate(self._links):
            on_link = [i for i, path in enumerate(paths) if li in path]
            if not on_link:
                drained = min(link.queue_pkts, capacity[li] * dt)
                link.queue_pkts -= drained
                link.total_delivered_pkts += drained
                continue
            idx = np.array(on_link)
            arrival = current[idx]
            # Active queue management: early-drop a fraction of arrivals.
            early = link.qdisc.drop_fraction(
                link.queue_pkts, qdelay[li], t, dt)
            if early > 0:
                early_drop = arrival * early
                lost[idx] += early_drop * dt
                link.total_dropped_pkts += float(early_drop.sum()) * dt
                arrival = arrival - early_drop
            total_arrival = float(arrival.sum())
            link.total_arrived_pkts += total_arrival * dt
            q_tentative = link.queue_pkts + (total_arrival - capacity[li]) * dt
            dropped_pkts = 0.0
            if q_tentative > link.buffer_pkts:
                dropped_pkts = q_tentative - link.buffer_pkts
                q_new = link.buffer_pkts
            else:
                q_new = max(q_tentative, 0.0)
            delivered_pkts = (
                link.queue_pkts + total_arrival * dt - dropped_pkts - q_new
            )
            departure = delivered_pkts / dt
            link.queue_pkts = q_new
            link.total_delivered_pkts += delivered_pkts
            link.total_dropped_pkts += dropped_pkts
            if total_arrival > 0:
                share = arrival / total_arrival
                link.last_share = share
            elif link.last_share is not None and \
                    link.last_share.size == idx.size:
                # Zero arrivals over a queued backlog: the drain serves
                # the flows whose fluid is queued, in the proportions of
                # the last tick that actually sent (goodput-attribution
                # fix; previously the drained packets went to no flow).
                share = link.last_share
            else:
                share = np.zeros_like(arrival)
            out = share * departure
            drop_rate = share * (dropped_pkts / dt)
            # ECN marking: a fraction of what passes through is marked.
            mark = link.qdisc.mark_fraction(link.queue_pkts, qdelay[li],
                                            t, dt)
            if mark > 0:
                marked[idx] += out * (mark * dt)
            # Stochastic (non-congestion) loss happens on the wire after the
            # queue; it removes goodput but does not occupy the buffer.
            # Fault-injected loss bursts add to the configured rate.
            p = min(link.config.random_loss + fault_loss, 0.99)
            if p > 0:
                rand_loss = out * p
                out = out - rand_loss
                drop_rate = drop_rate + rand_loss
            # Reordering: a fraction of deliveries is *signalled* lost
            # (duplicate-ACK spurious retransmits) but still arrives, so
            # it inflates the loss observation without touching goodput.
            if fault_spurious > 0:
                drop_rate = drop_rate + out * fault_spurious
            lost[idx] += drop_rate * dt
            current[idx] = out

        delivered = current * dt

        # Record per-flow samples; they become observable one ACK-return
        # delay (~rtt/2 from the bottleneck's perspective) later.
        self._last_rtt, self._last_rate, self._last_goodput = \
            rtt, rate, current
        self._total_sent += sent
        self._total_delivered += delivered
        self._total_lost += lost
        row = self._samples.reserve(1)[0]
        row[COL_TIME] = t
        row[COL_AVAIL] = t + dt + rtt / 2.0
        row[COL_DT] = dt
        row[COL_RTT] = rtt
        row[COL_SENT] = sent
        row[COL_DLV] = delivered
        row[COL_LOST] = lost
        row[COL_MARK] = marked
        self._samples.commit(1)

        self.now = t + dt
