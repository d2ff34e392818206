"""Fluid-model network engine.

This is the workhorse simulator that replaces the paper's Mahimahi +
Pantheon-tunnel emulation.  It advances in small ticks (default 2 ms) and
models each flow as a fluid whose instantaneous arrival rate at its first
bottleneck is the classic window-limited rate ``cwnd / rtt`` (optionally
capped by a pacing rate).  Every link keeps a drop-tail FIFO queue; queueing
delay feeds back into each flow's RTT, which closes the congestion loop:

    queue grows -> RTT grows -> window-limited rate drops.

Multiple links are supported so the multi-bottleneck topology of Fig. 11
runs on the same engine: a flow follows a *path* (a sequence of links) and
its departure rate from one hop is its arrival rate at the next.  FIFO
sharing is approximated by serving each flow in proportion to its share of
the aggregate arrival rate, which is the standard fluid approximation and
matches packet-level FIFO on MTP timescales (validated by the fidelity
tests against :mod:`repro.netsim.packet`).

Observation delay: the conditions a tick records become visible to the
sender one ACK-return delay later (about half the current RTT after the
bottleneck experienced them — a full RTT after the send decision): every
sample carries that availability time in the network's
:class:`~repro.netsim.stats.SampleStore`, and a collect drains only the
samples observable by then.

Fast path (docs/architecture.md §7): controllers only intervene once per
MTP (~15 ticks), so the engine keeps its per-flow state in persistent
structure-of-arrays vectors — ``base_rtt``/``cwnd``/``pacing``, the
last-tick and cumulative counters, plus a link x flow path-membership
matrix, all maintained by :meth:`FluidNetwork.add_flows` /
:meth:`~FluidNetwork.remove_flows` / :meth:`~FluidNetwork.set_cwnds` —
and :meth:`FluidNetwork.advance_block` advances whole tick batches with
zero per-tick Python object churn, writing its samples straight into
the network's one columnar :class:`~repro.netsim.stats.SampleStore`,
which :meth:`FluidNetwork.collect_stats` drains for many flows at once.
There is one kernel per topology: a single-link specialisation and a
general multi-link kernel, which also drains the queues of an idle
network.  The original per-tick physics is the test oracle
(``tests/oracles/fluid_reference.py``); the differential suite pins the
kernels to it bit for bit (ECN-marked counts to the last ulp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import LinkConfig
from ..errors import SimulationError
from .faults import FaultSchedule
from .qdisc import QueueDiscipline, create_qdisc
from .stats import (
    COL_AVAIL,
    COL_DLV,
    COL_DT,
    COL_LOST,
    COL_MARK,
    COL_RTT,
    COL_SENT,
    COL_TIME,
    MtpColumns,
    SampleStore,
    TickSample,
    contiguous_run,
)
from .traces import CapacityTrace, ConstantTrace

INITIAL_CWND_PKTS = 10.0
MIN_CWND_PKTS = 2.0

def check_decisions(cwnd_pkts, pacing_pps, flow_id) -> None:
    """Every engine's ``set_cwnds`` rule: a non-finite window, or a NaN
    or negative pacing rate, raises naming the first such flow (entry
    ``k`` is flow ``flow_id(k)``).  ``inf`` pacing, or a ``None``
    column, is unpaced."""
    finite = np.isfinite(cwnd_pkts)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise SimulationError(
            f"non-finite cwnd for flow {flow_id(bad)}: {cwnd_pkts[bad]}")
    if pacing_pps is None:
        return
    valid = np.greater_equal(pacing_pps, 0.0)  # False for NaN too
    if not valid.all():
        bad = int(np.argmin(valid))
        raise SimulationError(
            f"invalid pacing rate for flow {flow_id(bad)}: {pacing_pps[bad]}")


@dataclass
class _LinkState:
    """Runtime state of one link."""

    config: LinkConfig
    trace: CapacityTrace
    qdisc: QueueDiscipline = None  # type: ignore[assignment]
    queue_pkts: float = 0.0
    # Cumulative counters for diagnostics.
    total_arrived_pkts: float = 0.0
    total_delivered_pkts: float = 0.0
    total_dropped_pkts: float = 0.0
    # Last per-flow arrival-share vector seen with nonzero arrivals,
    # aligned with the link's current on-link flow set; used to attribute
    # backlog drained on ticks with zero arrivals (otherwise that goodput
    # would be delivered to no flow).  Invalidated on flow churn.
    last_share: np.ndarray | None = None

    def capacity_pps(self, t: float) -> float:
        from ..units import mbps_to_pps

        return mbps_to_pps(self.trace.capacity_mbps(t))

    @property
    def buffer_pkts(self) -> float:
        return self.config.buffer_size_packets


class FluidNetwork:
    """Multi-flow, multi-link fluid simulator.

    Parameters
    ----------
    links:
        The links of the network in the order flows traverse them (a path
        refers to links by name).  A single-bottleneck scenario passes one
        link.
    traces:
        Optional per-link capacity traces, keyed by link name.  Links
        without a trace run at their configured constant bandwidth.
    seed:
        Seeds the engine RNG (currently only used by stochastic-loss
        smoothing; the loss process itself is fluid and deterministic).
    faults:
        Optional :class:`~repro.netsim.faults.FaultSchedule` of link
        impairments (blackouts, flaps, loss bursts, delay spikes, reorder
        windows) applied to every link on each tick.
    tick_s:
        The tick of :meth:`advance_to`: the decision granularity.
    """

    #: Flows send from :meth:`add_flows` to :meth:`remove_flows`.
    windowed = False

    def __init__(self, links: list[LinkConfig] | LinkConfig,
                 traces: dict[str, CapacityTrace] | None = None,
                 seed: int = 0, faults: FaultSchedule | None = None,
                 tick_s: float = 0.002):
        if isinstance(links, LinkConfig):
            links = [links]
        if not links:
            raise SimulationError("a network needs at least one link")
        names = [l.name for l in links]
        if len(set(names)) != len(names):
            raise SimulationError(f"duplicate link names: {names}")
        traces = traces or {}
        self._links = [
            _LinkState(
                config=l,
                trace=traces.get(l.name, ConstantTrace(l.bandwidth_mbps)),
                qdisc=create_qdisc(l.qdisc, **l.qdisc_kwargs),
            )
            for l in links
        ]
        self._link_index = {l.name: i for i, l in enumerate(links)}
        #: flow id -> path (link indices), in slot order.
        self._flows: dict[int, tuple[int, ...]] = {}
        self._slot: dict[int, int] = {}
        self._next_flow_id = 0
        self._rng = np.random.default_rng(seed)
        self._faults = faults if faults else None
        self.now = 0.0
        self.tick_s = tick_s
        # Constant-rate links resolve their capacity once; traced links
        # are re-evaluated per tick.
        self._static_cap = np.array([
            link.capacity_pps(0.0)
            if isinstance(link.trace, ConstantTrace) else np.nan
            for link in self._links
        ])
        self._traced_idx = [
            li for li, link in enumerate(self._links)
            if not isinstance(link.trace, ConstantTrace)
        ]
        self._samples = SampleStore()
        self._base_rtt = self._cwnd = self._pacing = np.zeros(0)
        self._last_rtt = self._last_rate = self._last_goodput = np.zeros(0)
        self._total_sent = self._total_delivered = self._total_lost = \
            np.zeros(0)
        self._rebuild_soa(np.zeros(0, dtype=np.intp))

    # ------------------------------------------------------------------
    # Structure-of-arrays state (fast path)
    # ------------------------------------------------------------------

    def _rebuild_soa(self, keep: np.ndarray, base_rtt_s=(), cwnd_pkts=(),
                     pacing_pps=()) -> None:
        """Rebuild the per-flow state after flow churn.

        ``self._flows`` already holds the new flow set: the survivors,
        whose old slots are ``keep`` and whose vector entries and
        undrained samples carry over, followed by one new flow per entry
        of the three spec columns.  Slot order matches dict insertion
        order, i.e. the exact order the per-tick reference iterates.  Flow
        churn also invalidates every link's drain-attribution share
        vector, whose positions are aligned with the on-link flow sets.
        """
        paths = list(self._flows.values())
        n = len(paths)
        n_links = len(self._links)
        self._slot = {fid: i for i, fid in enumerate(self._flows)}
        idle = np.zeros(len(base_rtt_s))
        for name, fresh in (
                ("_base_rtt", base_rtt_s), ("_cwnd", cwnd_pkts),
                ("_pacing", pacing_pps), ("_last_rtt", base_rtt_s),
                ("_last_rate", idle), ("_last_goodput", idle),
                ("_total_sent", idle), ("_total_delivered", idle),
                ("_total_lost", idle)):
            setattr(self, name,
                    np.concatenate([getattr(self, name)[keep], fresh]))
        self._samples.reindex(keep, base_rtt_s)
        member = np.zeros((n_links, n))
        for i, path in enumerate(paths):
            for li in path:
                member[li, i] += 1.0
        # (n, L) layout: path delay is one matrix-vector product.
        self._member_t = np.ascontiguousarray(member.T)
        self._on_link = [np.flatnonzero(member[li] > 0)
                         for li in range(n_links)]
        # The specialised single-link kernel assumes every flow crosses
        # the one link exactly once (always true for default paths).  An
        # idle network takes the general kernel, whose drain branch
        # leaves the qdiscs alone.
        self._single_simple = n_links == 1 and n > 0 and all(
            len(path) == 1 for path in paths)
        for link in self._links:
            link.last_share = None

    # ------------------------------------------------------------------
    # Flow management
    # ------------------------------------------------------------------

    def _resolve_path(self, base_rtt_s: float,
                      path: list[str] | None) -> tuple[int, ...]:
        """Validate one flow spec and resolve its path to link indices."""
        if base_rtt_s <= 0:
            raise SimulationError(f"base rtt must be positive, got {base_rtt_s}")
        if path is None:
            return tuple(range(len(self._links)))
        try:
            link_ids = tuple(self._link_index[name] for name in path)
        except KeyError as exc:
            raise SimulationError(f"unknown link in path: {exc}") from None
        if not link_ids:
            raise SimulationError("a flow path needs at least one link")
        return link_ids

    def add_flow(self, base_rtt_s: float, path: list[str] | None = None,
                 cwnd_pkts: float = INITIAL_CWND_PKTS,
                 pacing_pps: float | None = None) -> int:
        """Register a flow and return its engine id.

        ``path`` lists link names in traversal order; ``None`` means "all
        links in network order", which is the single-bottleneck default.
        """
        return self.add_flows([{
            "base_rtt_s": base_rtt_s, "path": path,
            "cwnd_pkts": cwnd_pkts, "pacing_pps": pacing_pps}])[0]

    def add_flows(self, specs) -> list[int]:
        """Register a batch of flows with one SoA rebuild for the batch.

        ``specs`` is an iterable of dicts accepting the same keys as
        :meth:`add_flow` (``base_rtt_s`` required; ``path``,
        ``cwnd_pkts``, ``pacing_pps`` optional).  Every spec is validated
        before any flow is registered, so a bad spec leaves the network
        unchanged.  Registering n flows one by one rebuilds the
        structure-of-arrays state n times (O(n^2) total work when
        building a large shard); this path rebuilds once.
        """
        specs = list(specs)
        known = {"base_rtt_s", "path", "cwnd_pkts", "pacing_pps"}
        resolved = []
        for spec in specs:
            if not isinstance(spec, dict):
                raise SimulationError(
                    f"flow spec must be a dict, got {type(spec).__name__}")
            unknown = set(spec) - known
            if unknown:
                raise SimulationError(
                    f"unknown flow-spec keys {sorted(unknown)}; "
                    f"known: {sorted(known)}")
            if "base_rtt_s" not in spec:
                raise SimulationError("flow spec needs base_rtt_s")
            resolved.append(
                self._resolve_path(spec["base_rtt_s"], spec.get("path")))
        if not specs:
            return []
        keep = np.arange(len(self._flows))
        fids = list(range(self._next_flow_id,
                          self._next_flow_id + len(specs)))
        self._next_flow_id += len(specs)
        self._flows.update(zip(fids, resolved))
        self._rebuild_soa(
            keep,
            [spec["base_rtt_s"] for spec in specs],
            [max(spec.get("cwnd_pkts", INITIAL_CWND_PKTS), MIN_CWND_PKTS)
             for spec in specs],
            [np.inf if spec.get("pacing_pps") is None else spec["pacing_pps"]
             for spec in specs])
        return fids

    def remove_flow(self, fid: int) -> None:
        """Deregister a flow (its remaining queued fluid is discarded)."""
        self.remove_flows([fid])

    def remove_flows(self, fids) -> None:
        """Deregister a batch of flows with one SoA rebuild for the batch.

        Unknown ids are ignored, as by :meth:`remove_flow`; surviving
        flows keep their undrained samples and consumed offsets.
        """
        gone = [fid for fid in fids if self._flows.pop(fid, None) is not None]
        if gone:
            self._rebuild_soa(np.array(
                [self._slot[fid] for fid in self._flows], dtype=np.intp))

    def slots(self, fids) -> np.ndarray:
        """The flows' current positions in the per-flow state vectors —
        what the batch entry points take.  Valid until the next
        :meth:`add_flows` / :meth:`remove_flows`."""
        return np.array([self._slot_of(fid) for fid in fids], dtype=np.intp)

    def set_cwnd(self, fid: int, cwnd_pkts: float,
                 pacing_pps: float | None = None) -> None:
        """Apply a controller decision to a flow (the rule of
        :meth:`set_cwnds`)."""
        i = self._slot_of(fid)
        check_decisions([cwnd_pkts],
                        None if pacing_pps is None else [pacing_pps],
                        lambda k: fid)
        self._cwnd[i] = min(max(cwnd_pkts, MIN_CWND_PKTS), 1e9)
        self._pacing[i] = np.inf if pacing_pps is None else pacing_pps

    def set_cwnds(self, slots: np.ndarray, cwnd_pkts,
                  pacing_pps=None) -> None:
        """Apply one decision per flow of ``slots`` (see :meth:`slots`).

        ``pacing_pps`` is a column with ``inf`` for unpaced flows, or
        ``None`` when none is paced.  All-or-nothing: a non-finite window
        or a NaN or negative pacing rate raises naming the first
        offending flow and applies nothing.
        """
        check_decisions(cwnd_pkts, pacing_pps,
                        lambda k: self.flow_ids[slots[k]])
        at = contiguous_run(slots)
        self._cwnd[at] = np.clip(cwnd_pkts, MIN_CWND_PKTS, 1e9)
        self._pacing[at] = np.inf if pacing_pps is None else pacing_pps

    def _slot_of(self, fid: int) -> int:
        try:
            return self._slot[fid]
        except KeyError:
            raise SimulationError(f"unknown flow id {fid}") from None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def flow_ids(self) -> list[int]:
        """Ids of all currently registered flows."""
        return list(self._flows)

    def pending_samples(self, fid: int) -> list[TickSample]:
        """A flow's undrained tick samples, oldest first (diagnostics)."""
        rows = self._samples.pending(self._slot_of(fid))
        return [TickSample(*r) for r in rows.tolist()]

    def collect_stats(self, slots: np.ndarray, now: float) -> MtpColumns:
        """Drain every sample observable at ``now`` for the flows at
        ``slots`` into one :class:`MtpStats` column block — cwnd, pacing
        (the last sending rate) and packets in flight as the per-flow
        accessors report them.  The columns are copies, never views of
        the engine's vectors."""
        at = contiguous_run(slots)
        cwnd = self._cwnd[at].copy()
        rate = self._last_rate[at].copy()
        return self._samples.collect(
            at, now, cwnd, rate,
            np.minimum(rate * self._last_rtt[at], cwnd))

    def cwnd(self, fid: int) -> float:
        """Current congestion window of a flow in packets."""
        return self._cwnd.item(self._slot_of(fid))

    def flow_rtt_s(self, fid: int) -> float:
        """Instantaneous RTT of a flow (base plus path queueing delay)."""
        return self._last_rtt.item(self._slot_of(fid))

    def flow_rate_pps(self, fid: int) -> float:
        """Instantaneous sending rate of a flow (pkts/s)."""
        return self._last_rate.item(self._slot_of(fid))

    def flow_goodput_pps(self, fid: int) -> float:
        """Instantaneous delivery rate of a flow (pkts/s)."""
        return self._last_goodput.item(self._slot_of(fid))

    def flow_sent_pkts(self, fid: int) -> float:
        """Cumulative packets a flow has sent since registration."""
        return self._total_sent.item(self._slot_of(fid))

    def flow_delivered_pkts(self, fid: int) -> float:
        """Cumulative packets delivered to a flow since registration."""
        return self._total_delivered.item(self._slot_of(fid))

    def flow_lost_pkts(self, fid: int) -> float:
        """Cumulative packets a flow has lost since registration."""
        return self._total_lost.item(self._slot_of(fid))

    def pkts_in_flight(self, fid: int) -> float:
        """Approximate packets in flight (rate times RTT, capped by cwnd)."""
        i = self._slot_of(fid)
        return min(self._last_rate.item(i) * self._last_rtt.item(i),
                   self._cwnd.item(i))

    def queue_pkts(self, link_name: str | None = None) -> float:
        """Current backlog of a link (first link by default), in packets."""
        idx = 0 if link_name is None else self._link_index[link_name]
        return self._links[idx].queue_pkts

    def queue_delay_s(self, link_name: str | None = None) -> float:
        """Current queueing delay of a link in seconds.

        During a blackout the drain-time estimate uses the unimpaired
        capacity (the backlog clears at that rate once service resumes).
        """
        idx = 0 if link_name is None else self._link_index[link_name]
        link = self._links[idx]
        cap = self.link_capacity_pps(link_name)
        if cap <= 0:
            cap = link.capacity_pps(self.now)
        return link.queue_pkts / cap if cap > 0 else 0.0

    def link_capacity_pps(self, link_name: str | None = None) -> float:
        """Instantaneous capacity of a link (pkts/s), faults applied."""
        idx = 0 if link_name is None else self._link_index[link_name]
        cap = self._links[idx].capacity_pps(self.now)
        if self._faults is not None:
            cap *= self._faults.bandwidth_multiplier(self.now)
        return cap

    def link_drops_pkts(self, link_name: str | None = None) -> float:
        """Cumulative packets dropped at a link."""
        idx = 0 if link_name is None else self._link_index[link_name]
        return self._links[idx].total_dropped_pkts

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------

    def advance(self, dt: float) -> None:
        """Advance the network by one tick of ``dt`` seconds."""
        self.advance_block(dt, 1)

    def advance_block(self, dt: float, n_ticks: int) -> None:
        """Advance the network by ``n_ticks`` ticks of ``dt`` seconds each.

        The block kernel produces the exact same trajectory as ``n_ticks``
        one-tick blocks — same tick boundaries, same fault/qdisc
        queries, same samples — but runs the whole batch through
        persistent state vectors with no per-tick Python object churn.
        Callers use it to cover the controller-free stretches between MTP
        decisions.
        """
        if dt <= 0:
            raise SimulationError(f"tick must be positive, got {dt}")
        n_ticks = int(n_ticks)
        if n_ticks <= 0:
            raise SimulationError(
                f"block must cover at least one tick, got {n_ticks}")
        if self._single_simple:
            self._advance_single(dt, n_ticks)
        else:
            self._advance_multi(dt, n_ticks)

    def advance_to(self, t: float) -> None:
        """Advance whole ticks (at least one) towards ``t``: the *floor*
        of the distance, so the boundaries are the ones per-tick stepping
        visits.  Rounding lands one tick short of a third of all targets;
        do not round up instead — it moves both pinned fleet digests."""
        self.advance_block(self.tick_s,
                           max(1, int((t - self.now) / self.tick_s)))

    def instants(self, slots: np.ndarray) -> float:
        """Every flow stands at a decision instant at every tick."""
        return self.now

    # -- block kernels -------------------------------------------------

    def _fault_terms(self, t: float) -> tuple[float, float, float, float]:
        faults = self._faults
        if faults is None:
            return 1.0, 0.0, 0.0, 0.0
        return (faults.bandwidth_multiplier(t), faults.extra_loss(t),
                faults.spurious_loss(t), faults.extra_delay_s(t))

    def _nominal_cap(self, li: int, t: float) -> float:
        cap = self._static_cap[li]
        if cap == cap:  # not NaN: constant-rate link
            return float(cap)
        return self._links[li].capacity_pps(t)

    def _new_sample_block(self, n_ticks: int) -> np.ndarray:
        """The store's next ``(n_ticks, 8, n)`` rows, for the kernel to fill.

        The kernel writes each tick's per-flow results straight into
        ``blk[k, COL_*]`` (contiguous length-``n`` rows of the ring) and
        :meth:`_flush_block` publishes them.  Loss and mark columns
        start zeroed — the kernel only writes them when nonzero.
        """
        blk = self._samples.reserve(n_ticks)
        blk[:, COL_LOST:, :] = 0.0
        return blk

    def _flush_block(self, dt: float, times: np.ndarray, blk: np.ndarray,
                     last_rate: np.ndarray,
                     last_goodput: np.ndarray) -> None:
        """Finish one block in place and publish it to the store."""
        blk[:, COL_TIME, :] = times[:, None]
        # avail = (t + dt) + rtt/2, folded in the reference order (float
        # addition is commutative, so adding the rtt/2 term first is
        # bitwise identical).
        avail = blk[:, COL_AVAIL, :]
        np.multiply(blk[:, COL_RTT, :], 0.5, out=avail)
        avail += (times + dt)[:, None]
        blk[:, COL_DT, :] = dt
        self._last_rtt = blk[-1, COL_RTT].copy()
        self._last_rate = last_rate
        self._last_goodput = last_goodput
        self._total_sent += blk[:, COL_SENT, :].sum(axis=0)
        self._total_delivered += blk[:, COL_DLV, :].sum(axis=0)
        self._total_lost += blk[:, COL_LOST, :].sum(axis=0)
        self._samples.commit(len(times))

    def _advance_single(self, dt: float, n_ticks: int) -> None:
        """Block kernel specialised for the dominant single-link case.

        Two phases (docs/architecture.md §7).  The tick loop runs only
        the queue recursion — per tick the rtt row, the rate row, one
        sum and the scalar queue update, with the fault and qdisc
        queries in their per-tick order — and records each tick's
        scalars.  :meth:`_single_columns` then writes the block's
        per-flow columns as ``(ticks, n)`` array operations.
        """
        link = self._links[0]
        qdisc = link.qdisc
        base_rtt = self._base_rtt
        cwnd = self._cwnd
        pacing = self._pacing
        have_faults = self._faults is not None
        traced = bool(self._traced_idx)
        static0 = float(self._static_cap[0]) if not traced else 0.0
        rloss = link.config.random_loss
        buffer_pkts = link.buffer_pkts

        blk = self._new_sample_block(n_ticks)
        rtts = blk[:, COL_RTT]
        rates = np.empty((n_ticks, len(self._flows)))
        # Per tick: (start time, total arrival, departure, overflow drop,
        # mark fraction); with faults, the wire-loss probability and the
        # spurious-loss fraction; the ticks with an early drop.
        ticks = []
        wire, spurious, early_at, early_frac = [], [], [], []
        # ``ndarray.sum`` without its Python wrapper: the same reduction.
        add_reduce = np.add.reduce

        q = link.queue_pkts
        arr_acc = dlv_acc = drop_acc = 0.0
        t = self.now
        for k in range(n_ticks):
            if have_faults:
                fm, fl, fs, fd = self._fault_terms(t)
                wire.append(min(rloss + fl, 0.99))
                spurious.append(fs)
            else:
                fm = 1.0
                fd = 0.0
            nominal = link.capacity_pps(t) if traced else static0
            cap = nominal * fm
            if cap > 0:
                qd = q / cap
            else:
                qd = q / nominal if nominal > 0 else 0.0

            rtt_row = rtts[k]
            np.add(base_rtt, qd, out=rtt_row)
            if fd:
                rtt_row += fd
            rate = rates[k]
            np.divide(cwnd, rtt_row, out=rate)
            np.minimum(rate, pacing, out=rate)

            early = qdisc.drop_fraction(q, qd, t, dt)
            if early > 0:
                early_drop = rate * early
                drop_acc += float(add_reduce(early_drop)) * dt
                total_arrival = float(add_reduce(rate - early_drop))
                early_at.append(k)
                early_frac.append(early)
            else:
                total_arrival = float(add_reduce(rate))
            arr_acc += total_arrival * dt
            q_tentative = q + (total_arrival - cap) * dt
            if q_tentative > buffer_pkts:
                dropped = q_tentative - buffer_pkts
                q_new = buffer_pkts
            else:
                dropped = 0.0
                q_new = q_tentative if q_tentative > 0.0 else 0.0
            delivered_pkts = q + total_arrival * dt - dropped - q_new
            q = q_new
            dlv_acc += delivered_pkts
            drop_acc += dropped
            ticks.append((t, total_arrival, delivered_pkts / dt, dropped,
                          qdisc.mark_fraction(q, qd, t, dt)))
            t = t + dt

        self.now = t
        link.queue_pkts = q
        link.total_arrived_pkts += arr_acc
        link.total_delivered_pkts += dlv_acc
        link.total_dropped_pkts += drop_acc
        if not have_faults:
            wire = [min(rloss, 0.99)] * n_ticks if rloss > 0 else None
            spurious = None
        times, *scalars = np.array(ticks).T
        goodput = self._single_columns(dt, blk, rates, *scalars, wire,
                                       spurious, early_at, early_frac)
        self._flush_block(dt, times, blk, rates[-1], goodput[-1])

    def _single_columns(self, dt: float, blk: np.ndarray, rates: np.ndarray,
                        total: np.ndarray, departure: np.ndarray,
                        overflow: np.ndarray, mark: np.ndarray, wire,
                        spurious, early_at, early_frac) -> np.ndarray:
        """The per-flow phase of :meth:`_advance_single`: from the rate
        rows and the per-tick scalars (``wire`` / ``spurious`` are
        ``None`` when zero on every tick), write the sent, lost, marked
        and delivered columns into ``blk`` and the link's carried share,
        and return the goodput rows.

        Per element these are the ufuncs a per-tick loop applies to the
        same operands — a broadcast ``(ticks, 1)`` column in place of a
        tick's scalar, a subset of rows in place of the ticks a branch
        takes — so every sample is bit for bit what ticking gives.  The
        only reductions, the arrival sums, stayed in the tick loop.

        Row ``k + 1`` of ``shares`` is tick ``k``'s arrival share.  A
        tick with no arrivals carries the share of the latest tick that
        had some, or (row 0) the link's share from an earlier block.
        Before any share exists row 0 is zeros, the per-tick physics'
        zero share: those ticks have no arrivals, so their departure is
        a drain (``>= 0``), and every flow gets exactly ``0.0`` of it.
        """
        link = self._links[0]
        m, n = rates.shape
        lost = blk[:, COL_LOST]
        np.multiply(rates, dt, out=blk[:, COL_SENT])
        arrival = rates
        if early_at:
            at = np.array(early_at)
            early_drop = rates[at] * np.array(early_frac)[:, None]
            lost[at] += early_drop * dt
            arrival = rates.copy()
            arrival[at] = rates[at] - early_drop

        shares = np.empty((m + 1, n))
        have_share = link.last_share is not None and \
            link.last_share.size == n
        shares[0] = link.last_share if have_share else 0.0
        sending = total > 0
        if sending.all():
            np.divide(arrival, total[:, None], out=shares[1:])
            have_share = True
        else:
            np.divide(arrival, total[:, None], out=shares[1:],
                      where=sending[:, None])
            src = np.where(sending, np.arange(1, m + 1), 0)
            np.maximum.accumulate(src, out=src)
            shares[1:] = shares[src]
            have_share = have_share or bool(src[-1])
        link.last_share = shares[-1].copy() if have_share else None
        goodput = shares[1:] * departure[:, None]

        if mark.any():      # (fractions in [0, 1])
            at = np.flatnonzero(mark > 0)
            blk[at, COL_MARK] += goodput[at] * (mark[at] * dt)[:, None]

        # Overflow drops, wire loss (which comes out of the goodput) and
        # spurious loss.
        lossy = overflow > 0
        if wire is not None:
            wire = np.array(wire)
            lossy |= wire > 0
        if spurious is not None:
            spurious = np.array(spurious)
            lossy |= spurious > 0
        rows = np.flatnonzero(lossy) if lossy.any() else ()
        if len(rows):
            drop_rate = shares[rows + 1] * (overflow[rows] / dt)[:, None]
            if wire is not None:
                hit = wire[rows] > 0
                at = rows[hit]
                rand_loss = goodput[at] * wire[at][:, None]
                goodput[at] -= rand_loss
                drop_rate[hit] += rand_loss
            if spurious is not None:
                hit = spurious[rows] > 0
                drop_rate[hit] += goodput[rows[hit]] * \
                    spurious[rows[hit]][:, None]
            lost[rows] += drop_rate * dt
        np.multiply(goodput, dt, out=blk[:, COL_DLV])
        return goodput

    def _advance_multi(self, dt: float, n_ticks: int) -> None:
        """Block kernel for multi-link topologies and idle networks.

        A vectorized transcription of the per-tick reference: path delay
        is one matrix-vector product over the precomputed membership
        matrix, and per-link flow sets come from the cached index
        vectors.  A link no flow crosses (every link, with no flows)
        only drains its queue.
        """
        links = self._links
        n_links = len(links)
        n = len(self._flows)
        base_rtt = self._base_rtt
        cwnd = self._cwnd
        pacing = self._pacing
        member_t = self._member_t
        on_link = self._on_link

        times = np.empty(n_ticks)
        blk = self._new_sample_block(n_ticks)
        rate = np.empty(n)
        current = np.empty(n)
        path_delay = np.empty(n)
        qdelay = np.empty(n_links)
        capacity = np.empty(n_links)
        nominal = np.empty(n_links)

        queue = [link.queue_pkts for link in links]
        arr_acc = [0.0] * n_links
        dlv_acc = [0.0] * n_links
        drop_acc = [0.0] * n_links
        last_share: list[np.ndarray | None] = [
            link.last_share
            if link.last_share is not None and
            link.last_share.size == on_link[li].size else None
            for li, link in enumerate(links)
        ]

        t = self.now
        for k in range(n_ticks):
            fm, fl, fs, fd = self._fault_terms(t)
            for li in range(n_links):
                nominal[li] = self._nominal_cap(li, t)
            np.multiply(nominal, fm, out=capacity)
            for li in range(n_links):
                if capacity[li] > 0:
                    qdelay[li] = queue[li] / capacity[li]
                else:
                    qdelay[li] = queue[li] / nominal[li] \
                        if nominal[li] > 0 else 0.0

            np.matmul(member_t, qdelay, out=path_delay)
            row = blk[k]
            rtt_row = row[COL_RTT]
            np.add(base_rtt, path_delay, out=rtt_row)
            if fd:
                rtt_row += fd
            np.divide(cwnd, rtt_row, out=rate)
            np.minimum(rate, pacing, out=rate)
            np.multiply(rate, dt, out=row[COL_SENT])
            lost_row = row[COL_LOST]
            marked_row = row[COL_MARK]
            np.copyto(current, rate)

            for li in range(n_links):
                link = links[li]
                idx = on_link[li]
                if idx.size == 0:
                    drained = min(queue[li], capacity[li] * dt)
                    queue[li] -= drained
                    dlv_acc[li] += drained
                    continue
                q_li = queue[li]
                arrival = current[idx]
                early = link.qdisc.drop_fraction(q_li, qdelay[li], t, dt)
                if early > 0:
                    early_drop = arrival * early
                    lost_row[idx] += early_drop * dt
                    drop_acc[li] += float(early_drop.sum()) * dt
                    arrival = arrival - early_drop
                total_arrival = float(arrival.sum())
                arr_acc[li] += total_arrival * dt
                q_tentative = q_li + (total_arrival - capacity[li]) * dt
                dropped_pkts = 0.0
                if q_tentative > link.buffer_pkts:
                    dropped_pkts = q_tentative - link.buffer_pkts
                    q_new = link.buffer_pkts
                else:
                    q_new = max(q_tentative, 0.0)
                delivered_pkts = (
                    q_li + total_arrival * dt - dropped_pkts - q_new
                )
                departure = delivered_pkts / dt
                queue[li] = q_new
                dlv_acc[li] += delivered_pkts
                drop_acc[li] += dropped_pkts
                if total_arrival > 0:
                    share = arrival / total_arrival
                    last_share[li] = share
                elif last_share[li] is not None:
                    share = last_share[li]
                else:
                    share = np.zeros_like(arrival)
                out = share * departure
                drop_rate = share * (dropped_pkts / dt)
                mark = link.qdisc.mark_fraction(q_new, qdelay[li], t, dt)
                if mark > 0:
                    marked_row[idx] += out * mark * dt
                p = min(link.config.random_loss + fl, 0.99)
                if p > 0:
                    rand_loss = out * p
                    out = out - rand_loss
                    drop_rate = drop_rate + rand_loss
                if fs > 0:
                    drop_rate = drop_rate + out * fs
                lost_row[idx] += drop_rate * dt
                current[idx] = out

            np.multiply(current, dt, out=row[COL_DLV])
            times[k] = t
            t = t + dt

        self.now = t
        for li, link in enumerate(links):
            link.queue_pkts = queue[li]
            link.total_arrived_pkts += arr_acc[li]
            link.total_delivered_pkts += dlv_acc[li]
            link.total_dropped_pkts += drop_acc[li]
            link.last_share = last_share[li]
        self._flush_block(dt, times, blk, rate, current)
