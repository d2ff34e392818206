"""Per-flow statistics collection with one-RTT observation delay.

The fluid engine produces a *tick sample* per flow per tick at the
bottleneck.  A real sender only learns about those conditions when the
corresponding ACKs return, roughly one RTT after the data was sent; we model
that by stamping every sample with an availability time and letting the
sender-side monitor (the MTP collector) read only samples that have become
observable.  This observation delay is what makes large-RTT scenarios
genuinely harder for every controller, exactly as in the paper (§5.1.3).

Two collectors share those semantics.  :class:`FlowMonitor` is the
standalone per-flow monitor: a growable numpy ring, one row per tick
sample pushed one at a time, whose :meth:`FlowMonitor.collect` drains the
observable prefix and folds it row by row in the exact accumulation order
of the original deque implementation.  :class:`SampleStore` is what a
:class:`~repro.netsim.fluid.FluidNetwork` keeps for *all* its flows: one
``(rows, 8, n_flows)`` ring the block kernel writes whole tick batches
into, and a columnar :meth:`SampleStore.collect` that folds many flows at
once and returns :class:`MtpColumns`.  The row fold is the oracle the
columnar fold is tested against, bit for bit (including the srtt fold).
The packet and socket engines count packets instead of producing tick
samples; each folds its counters into one :class:`IntervalWindow` per
flow, which keeps the same srtt rule, and its ``collect_stats`` closes
those windows into the same :class:`MtpColumns`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..units import pps_to_mbps


@dataclass(frozen=True)
class TickSample:
    """Conditions one flow experienced during one simulator tick.

    All counters are in packets; rates in packets/second; times in seconds.
    ``avail_at`` is the wall-clock time at which the sender can observe the
    sample (generation time plus the ACK return delay).
    """

    time: float
    avail_at: float
    dt: float
    rtt_s: float
    sent_pkts: float
    delivered_pkts: float
    lost_pkts: float
    marked_pkts: float = 0.0


@dataclass(frozen=True)
class MtpStats:
    """Aggregated per-Monitoring-Time-Period statistics handed to a controller.

    This is the observation record of §3.3: average throughput and latency
    over the MTP, lost packets, packets in flight, the congestion window and
    pacing rate in force, plus the smoothed RTT the sender maintains.
    """

    time_s: float
    duration_s: float
    throughput_pps: float
    avg_rtt_s: float
    min_rtt_s: float
    sent_pkts: float
    delivered_pkts: float
    lost_pkts: float
    pkts_in_flight: float
    cwnd_pkts: float
    pacing_pps: float
    srtt_s: float
    marked_pkts: float = 0.0

    @property
    def throughput_mbps(self) -> float:
        """Delivered goodput over the MTP in Mbps."""
        return pps_to_mbps(self.throughput_pps)

    @property
    def pacing_mbps(self) -> float:
        """Pacing rate in force during the MTP in Mbps."""
        return pps_to_mbps(self.pacing_pps)

    @property
    def loss_rate(self) -> float:
        """Fraction of sent packets lost during the MTP."""
        if self.sent_pkts <= 0:
            return 0.0
        return min(1.0, self.lost_pkts / self.sent_pkts)

    @property
    def loss_pps(self) -> float:
        """Loss expressed as a rate (packets/second)."""
        if self.duration_s <= 0:
            return 0.0
        return self.lost_pkts / self.duration_s

    @property
    def mark_rate(self) -> float:
        """Fraction of delivered packets carrying an ECN mark."""
        if self.delivered_pkts <= 0:
            return 0.0
        return min(1.0, self.marked_pkts / self.delivered_pkts)


# Ring-buffer column layout (one row per tick sample), shared by
# :class:`FlowMonitor` and :class:`SampleStore`; the engine's block
# kernel writes its results straight into the store in this layout.
(COL_TIME, COL_AVAIL, COL_DT, COL_RTT,
 COL_SENT, COL_DLV, COL_LOST, COL_MARK) = range(8)
N_SAMPLE_COLS = 8
_INITIAL_CAPACITY = 64
#: The smoothed-RTT gain (the kernel's ``srtt`` EWMA, 1/8) of every
#: collector: ``srtt += SRTT_GAIN * (rtt - srtt)`` per RTT sample.
SRTT_GAIN = 0.125


def contiguous_run(slots):
    """``slots`` as a basic slice when it is a contiguous ascending run
    (indexing by it gives views, not gathers), else ``slots`` itself; a
    slice passes through."""
    if isinstance(slots, slice) or not len(slots):
        return slots
    first = int(slots[0])
    run = np.arange(first, first + len(slots), dtype=slots.dtype)
    # Equal bytes is equal integers, and one memcmp is the cheapest test.
    if slots.tobytes() != run.tobytes():
        return slots
    return slice(first, first + len(slots))


class FlowMonitor:
    """Sender-side accumulator turning delayed tick samples into MTP stats.

    The monitor keeps an exponentially smoothed RTT (the kernel's
    ``srtt`` with gain 1/8) and exposes :meth:`collect` which drains every
    sample observable at the current time and aggregates it into an
    :class:`MtpStats`.  When no sample is yet observable (e.g. at flow start
    on a long path), the previous smoothed values are reused so controllers
    always receive a well-formed record.

    Drain semantics match the original deque implementation exactly: the
    observable *prefix* is consumed — popping stops at the first sample
    whose ``avail_at`` exceeds ``now``, even if later samples are already
    observable (availability times are not guaranteed monotone when the
    RTT collapses sharply).  A sortedness flag, maintained on every push,
    lets the common monotone case use a binary search.
    """

    #: The module's :data:`SRTT_GAIN`, kept for callers of the class.
    SRTT_GAIN = SRTT_GAIN

    def __init__(self, base_rtt_s: float):
        self._buf = np.empty((_INITIAL_CAPACITY, N_SAMPLE_COLS))
        self._start = 0
        self._end = 0
        self._avail_sorted = True
        self._srtt = base_rtt_s
        self._base_rtt = base_rtt_s
        self._last_collect = 0.0

    @property
    def srtt_s(self) -> float:
        """Current smoothed RTT estimate in seconds."""
        return self._srtt

    @property
    def capacity(self) -> int:
        """Rows the ring buffer currently holds memory for.

        Bounded by roughly twice the peak *live* (undrained) sample count
        of the run: :meth:`collect` compacts the consumed prefix away and
        shrinks the buffer once the live region falls to a quarter of
        capacity, so a long run's history is never retained.
        """
        return len(self._buf)

    def __len__(self) -> int:
        return self._end - self._start

    def pending_samples(self) -> list[TickSample]:
        """Materialise the undrained samples (oldest first) for inspection."""
        rows = self._buf[self._start:self._end]
        return [TickSample(*r) for r in rows.tolist()]

    def _reserve(self, k: int) -> None:
        """Make room for ``k`` more rows, compacting or growing the buffer."""
        live = self._end - self._start
        cap = len(self._buf)
        if self._start > 0 and live + k <= cap:
            # Shift the live region to the front (numpy handles the
            # overlapping copy).
            self._buf[:live] = self._buf[self._start:self._end]
        else:
            new_cap = max(cap, _INITIAL_CAPACITY)
            while new_cap < live + k:
                new_cap *= 2
            new_buf = np.empty((new_cap, N_SAMPLE_COLS))
            new_buf[:live] = self._buf[self._start:self._end]
            self._buf = new_buf
        self._start = 0
        self._end = live

    def _compact(self) -> None:
        """Release the consumed prefix after a drain.

        Moves the live region to the front so consumed sample history is
        overwritten by the next push instead of lingering until the next
        ``_reserve``, and reallocates the buffer down (4x hysteresis, so
        steady-state cycles never thrash) when a burst has left it far
        larger than the live region needs.  Pure memory movement: sample
        values and drain order are untouched, so collected statistics
        stay bit-identical.
        """
        live = self._end - self._start
        cap = len(self._buf)
        if cap > _INITIAL_CAPACITY and cap >= 4 * max(live, 1):
            new_cap = _INITIAL_CAPACITY
            while new_cap < 2 * live:
                new_cap *= 2
            new_buf = np.empty((new_cap, N_SAMPLE_COLS))
            new_buf[:live] = self._buf[self._start:self._end]
            self._buf = new_buf
        elif self._start > 0:
            self._buf[:live] = self._buf[self._start:self._end]
        self._start = 0
        self._end = live

    def push(self, sample: TickSample) -> None:
        """Record a tick sample produced by the engine."""
        end = self._end
        if end + 1 > len(self._buf):
            self._reserve(1)
            end = self._end
        buf = self._buf
        if self._avail_sorted and end > self._start and \
                sample.avail_at < buf[end - 1, COL_AVAIL]:
            self._avail_sorted = False
        row = buf[end]
        row[COL_TIME] = sample.time
        row[COL_AVAIL] = sample.avail_at
        row[COL_DT] = sample.dt
        row[COL_RTT] = sample.rtt_s
        row[COL_SENT] = sample.sent_pkts
        row[COL_DLV] = sample.delivered_pkts
        row[COL_LOST] = sample.lost_pkts
        row[COL_MARK] = sample.marked_pkts
        self._end = end + 1

    def observe_rtt(self, rtt_s: float) -> None:
        """Fold an RTT measurement into the smoothed estimate."""
        self._srtt += SRTT_GAIN * (rtt_s - self._srtt)

    def _drain_count(self, now: float) -> int:
        """Length of the observable prefix at ``now``."""
        start, end = self._start, self._end
        if end == start:
            return 0
        avail = self._buf[start:end, COL_AVAIL]
        if self._avail_sorted:
            return int(avail.searchsorted(now, side="right"))
        over = avail > now
        if not over.any():
            return end - start
        return int(np.argmax(over))

    def collect(self, now: float, cwnd_pkts: float, pacing_pps: float,
                pkts_in_flight: float) -> MtpStats:
        """Aggregate all samples observable at ``now`` into one MTP record."""
        duration = max(now - self._last_collect, 1e-9)
        self._last_collect = now
        sent = delivered = lost = marked = 0.0
        rtt_weighted = 0.0
        rtt_min = float("inf")
        weight = 0.0
        k = self._drain_count(now)
        if k > 0:
            start = self._start
            # Sequential fold in sample order: the srtt EWMA is
            # order-dependent and the sums must match the original
            # one-sample-at-a-time accumulation bit for bit.
            srtt = self._srtt
            gain = SRTT_GAIN
            for dt_, rtt_, sent_, dlv_, lost_, mark_ in \
                    self._buf[start:start + k, COL_DT:].tolist():
                sent += sent_
                delivered += dlv_
                lost += lost_
                marked += mark_
                rtt_weighted += rtt_ * dt_
                rtt_min = min(rtt_min, rtt_)
                weight += dt_
                srtt += gain * (rtt_ - srtt)
            self._srtt = srtt
            self._start = start + k
            if self._start == self._end:
                self._start = self._end = 0
                self._avail_sorted = True
            self._compact()
        if weight > 0:
            avg_rtt = rtt_weighted / weight
            throughput = delivered / weight
        else:
            avg_rtt = self._srtt
            rtt_min = self._srtt
            throughput = 0.0
        return MtpStats(
            time_s=now,
            duration_s=duration,
            throughput_pps=throughput,
            avg_rtt_s=avg_rtt,
            min_rtt_s=rtt_min if rtt_min != float("inf") else avg_rtt,
            sent_pkts=sent,
            delivered_pkts=delivered,
            lost_pkts=lost,
            pkts_in_flight=pkts_in_flight,
            cwnd_pkts=cwnd_pkts,
            pacing_pps=pacing_pps,
            srtt_s=self._srtt,
            marked_pkts=marked,
        )


class IntervalWindow:
    """One flow's counters between two controller decisions.

    What the packet and socket engines fold their per-MTP (or per-ACK)
    counters into; :meth:`close` turns them into the
    :class:`MtpStats` the controller sees and starts the next interval.
    The srtt fold is :meth:`FlowMonitor.observe_rtt`'s, and an interval
    without an RTT sample reuses srtt for both the mean and the minimum,
    as :meth:`FlowMonitor.collect` does.
    """

    def __init__(self, base_rtt_s: float, start_s: float = 0.0):
        self.srtt_s = base_rtt_s
        self.start_s = start_s
        self._clear()

    def _clear(self) -> None:
        self.sent = self.delivered = self.lost = 0.0
        self._rtt_sum = self._rtt_weight = 0.0
        self._rtt_min = float("inf")

    def add(self, sent: float, delivered: float, lost: float) -> None:
        """Count packets sent, delivered and lost inside the interval."""
        self.sent += sent
        self.delivered += delivered
        self.lost += lost

    def observe_rtt(self, rtt_s: float, weight: float = 1.0) -> None:
        """Fold an RTT sample that stands for ``weight`` packets."""
        self._rtt_sum += rtt_s * weight
        self._rtt_weight += weight
        self._rtt_min = min(self._rtt_min, rtt_s)
        self.srtt_s += SRTT_GAIN * (rtt_s - self.srtt_s)

    def close(self, now: float, pkts_in_flight: float, cwnd_pkts: float,
              pacing_pps: float | None) -> MtpStats:
        """The interval ending at ``now`` as one MTP record; resets."""
        duration = max(now - self.start_s, 1e-9)
        if self._rtt_weight > 0:
            avg_rtt = self._rtt_sum / self._rtt_weight
            min_rtt = self._rtt_min
        else:
            avg_rtt = min_rtt = self.srtt_s
        stats = MtpStats(
            time_s=now,
            duration_s=duration,
            throughput_pps=self.delivered / duration,
            avg_rtt_s=avg_rtt,
            min_rtt_s=min_rtt,
            sent_pkts=self.sent,
            delivered_pkts=self.delivered,
            lost_pkts=self.lost,
            pkts_in_flight=pkts_in_flight,
            cwnd_pkts=cwnd_pkts,
            pacing_pps=pacing_pps or 0.0,
            srtt_s=self.srtt_s,
        )
        self.start_s = now
        self._clear()
        return stats


#: ``MtpStats`` fields that are per-flow columns of :class:`MtpColumns`
#: (all but ``time_s``), in constructor order.
_COLUMN_FIELDS = tuple(f.name for f in fields(MtpStats))[1:]


@dataclass
class MtpColumns:
    """:class:`MtpStats` of several flows at one instant, a column per field.

    What :meth:`SampleStore.collect` returns: field ``x`` holds the
    ``MtpStats.x`` of every collected flow, in the order the slots were
    given.  :meth:`rows` materialises the per-flow records.
    """

    time_s: float
    duration_s: np.ndarray
    throughput_pps: np.ndarray
    avg_rtt_s: np.ndarray
    min_rtt_s: np.ndarray
    sent_pkts: np.ndarray
    delivered_pkts: np.ndarray
    lost_pkts: np.ndarray
    pkts_in_flight: np.ndarray
    cwnd_pkts: np.ndarray
    pacing_pps: np.ndarray
    srtt_s: np.ndarray
    marked_pkts: np.ndarray

    @classmethod
    def of(cls, now: float, rows: list[MtpStats]) -> MtpColumns:
        """Stack per-flow records, all taken at ``now``, into columns."""
        return cls(now, *(np.array([getattr(r, name) for r in rows],
                                   dtype=float)
                          for name in _COLUMN_FIELDS))

    @property
    def throughput_mbps(self) -> np.ndarray:
        """The column of :attr:`MtpStats.throughput_mbps`."""
        return pps_to_mbps(self.throughput_pps)

    @property
    def loss_rate(self) -> np.ndarray:
        """The column of :attr:`MtpStats.loss_rate`."""
        sent = self.sent_pkts
        rate = np.zeros(len(sent))
        np.divide(self.lost_pkts, sent, out=rate, where=sent > 0)
        return np.minimum(rate, 1.0, out=rate)

    @property
    def loss_pps(self) -> np.ndarray:
        """The column of :attr:`MtpStats.loss_pps`."""
        duration = self.duration_s
        rate = np.zeros(len(duration))
        np.divide(self.lost_pkts, duration, out=rate, where=duration > 0)
        return rate

    @property
    def mark_rate(self) -> np.ndarray:
        """The column of :attr:`MtpStats.mark_rate`."""
        delivered = self.delivered_pkts
        rate = np.zeros(len(delivered))
        np.divide(self.marked_pkts, delivered, out=rate, where=delivered > 0)
        return np.minimum(rate, 1.0, out=rate)

    def take(self, sel: np.ndarray) -> MtpColumns:
        """The columns of the flows at positions ``sel``."""
        return MtpColumns(self.time_s, *(getattr(self, name)[sel]
                                         for name in _COLUMN_FIELDS))

    def rows(self) -> list[MtpStats]:
        """One :class:`MtpStats` per collected flow."""
        columns = [getattr(self, name).tolist() for name in _COLUMN_FIELDS]
        now = self.time_s
        out = []
        for row in zip(*columns):
            # The frozen dataclass's __init__ is 13 object.__setattr__
            # calls; filling the instance dict builds the identical
            # record in half the time, per flow per decision.
            stats = object.__new__(MtpStats)
            stats.__dict__.update(zip(_COLUMN_FIELDS, row), time_s=now)
            out.append(stats)
        return out


class SampleStore:
    """Columnar tick-sample store shared by all flows of one network.

    Every flow of a :class:`~repro.netsim.fluid.FluidNetwork` receives a
    sample on every tick, so their histories are rows of one
    ``(rows, 8, n_flows)`` ring: the block kernel writes a whole block
    in place (:meth:`reserve` / :meth:`commit`), and :meth:`collect`
    drains and folds the observable prefix of many flows at once.  Per
    flow the semantics are exactly :meth:`FlowMonitor.collect`'s — the
    same floats added in the same order, vectorised *across* flows only
    — which the property tests pin on ``float.hex``.

    ``start[i]`` is flow ``i``'s consumed offset (its first undrained
    row); rows below ``start.min()`` are dead and reclaimed when the
    ring fills, and a drain that leaves the ring four times larger than
    its live rows reallocates it down, so capacity stays within about
    twice the peak live history, as for :class:`FlowMonitor`.
    """

    def __init__(self):
        self._buf = np.empty((_INITIAL_CAPACITY, N_SAMPLE_COLS, 0))
        self._end = 0
        self.start = np.zeros(0, dtype=np.intp)
        self.srtt = np.zeros(0)
        self.last_collect = np.zeros(0)
        self._scratch = np.empty(0)

    @property
    def capacity(self) -> int:
        """Rows the ring currently holds memory for."""
        return len(self._buf)

    def pending(self, slot: int) -> np.ndarray:
        """The undrained ``(k, 8)`` sample rows of one flow, oldest first."""
        return self._buf[self.start[slot]:self._end, :, slot]

    @staticmethod
    def _fit(live: int) -> int:
        cap = _INITIAL_CAPACITY
        while cap < 2 * live:
            cap *= 2
        return cap

    def _move(self, lo: int, cap: int) -> None:
        """Drop the dead rows below ``lo``; reallocate if ``cap`` changed."""
        live = self._end - lo
        if cap != len(self._buf):
            buf = np.empty((cap,) + self._buf.shape[1:])
            buf[:live] = self._buf[lo:self._end]
            self._buf = buf
        elif lo:
            self._buf[:live] = self._buf[lo:self._end]
        self.start -= lo
        self._end = live

    def reindex(self, keep: np.ndarray, base_rtt_s) -> None:
        """Flow churn: keep the flows at slots ``keep`` (with their
        undrained history and offsets), then append one fresh flow per
        entry of ``base_rtt_s``."""
        lo = int(self.start[keep].min(initial=self._end))
        live = self._end - lo
        fresh = len(base_rtt_s)
        buf = np.empty((self._fit(live), N_SAMPLE_COLS, len(keep) + fresh))
        buf[:live, :, :len(keep)] = self._buf[lo:self._end][:, :, keep]
        self._buf = buf
        self._end = live
        self.start = np.concatenate(
            [self.start[keep] - lo, np.full(fresh, live, dtype=np.intp)])
        self.srtt = np.concatenate([self.srtt[keep], base_rtt_s])
        self.last_collect = np.concatenate(
            [self.last_collect[keep], np.zeros(fresh)])

    def reserve(self, k: int) -> np.ndarray:
        """The next ``k`` rows of the ring as a writable ``(k, 8, n)``
        view; :meth:`commit` publishes them."""
        end = self._end
        if end + k > len(self._buf):
            lo = int(self.start.min(initial=end))
            live = end - lo
            cap = len(self._buf)
            while cap < live + k:
                cap *= 2
            self._move(lo, cap)
            end = self._end
        return self._buf[end:end + k]

    def commit(self, k: int) -> None:
        self._end += k

    def _window(self, rows: int, k: int) -> np.ndarray:
        """A ``(rows, 6, k)`` scratch view; the buffer behind it grows
        geometrically and is reused by every later collect."""
        size = rows * (N_SAMPLE_COLS - COL_DT) * k
        if size > len(self._scratch):
            self._scratch = np.empty(max(size, 2 * len(self._scratch)))
        return self._scratch[:size].reshape(rows, N_SAMPLE_COLS - COL_DT, k)

    def collect(self, slots, now: float, cwnd_pkts: np.ndarray,
                pacing_pps: np.ndarray,
                pkts_in_flight: np.ndarray) -> MtpColumns:
        """:meth:`FlowMonitor.collect` for the flows at ``slots`` (distinct
        positions, or a slice) in one pass; the last three arguments are
        per-slot columns.

        A contiguous ascending run of slots reads the ring and the
        per-flow vectors through a basic slice, any other set through
        one gather.  The observable window is copied into a reused
        ``(rows, 6, k)`` buffer, and cells outside their flow's prefix
        are set to ``+0.0`` — selected, never multiplied by a mask: ring
        cells below a flow's start may hold garbage, NaN included.  Then
        one loop over the window's rows folds the six sums and the srtt
        EWMA in sample order.  No returned column aliases the buffer,
        the ring or the store's state."""
        at = contiguous_run(slots)
        start = self.start[at]
        k = len(start)
        end = self._end
        lo = int(start.min(initial=end))
        # Window rows below ``head`` lie below some flow's start.
        head = int(start.max(initial=lo)) - lo
        ring = self._buf[lo:end, :, at]
        # Observable prefix per flow: stop at its first live sample with
        # ``avail_at > now``, even if later ones are observable.
        rows = np.arange(lo, end)[:, None]
        blocked = ring[:, COL_AVAIL] > now
        if head:
            blocked[:head] &= rows[:head] >= start
        stop = np.where(blocked, rows, end).min(axis=0, initial=end)
        hi = int(stop.max(initial=lo))
        # Window rows from ``tail`` on lie at or past some flow's stop;
        # every row in between is inside every flow's prefix.
        tail = max(int(stop.min(initial=hi)) - lo, head)
        # (dt, rtt, sent, delivered, lost, marked) per sample.  A cell
        # outside its flow's prefix (all are in the rows below ``head``
        # or from ``tail`` on) becomes +0.0 with gain 0: selected, never
        # multiplied by a mask, as ring cells below a flow's start may
        # hold anything, NaN included.
        window = self._window(hi - lo, k)
        np.copyto(window, ring[:hi - lo, COL_DT:])
        rtt = window[:, 1]
        if head == 0 and tail == hi - lo:
            rtt_min = rtt.min(axis=0, initial=np.inf)
            gains = [SRTT_GAIN] * (hi - lo)
        else:
            rows = rows[:hi - lo]
            inside = rows >= start
            inside &= rows < stop
            for part in (slice(0, head), slice(tail, hi - lo)):
                np.copyto(window[part], 0.0,
                          where=np.logical_not(inside[part, None, :]))
            rtt_min = np.minimum.reduce(rtt, axis=0, initial=np.inf,
                                        where=inside)
            gains = np.where(inside, SRTT_GAIN, 0.0)
        # One fold down the sample axis with flows as lanes, strictly
        # sequential per lane like the row fold (np.sum is free to
        # re-associate): ``rtt`` becomes ``rtt * dt`` once the srtt
        # EWMA has read it, and a cell outside its flow's prefix changes
        # nothing.
        weight, rtt_weighted, sent, delivered, lost, marked = \
            tot = np.zeros((N_SAMPLE_COLS - COL_DT, k))
        srtt = self.srtt[at].copy()
        step = np.empty(k)
        add, multiply, subtract = np.add, np.multiply, np.subtract
        for row, dt, rtt_r, gain in zip(window, window[:, 0], rtt, gains):
            subtract(rtt_r, srtt, step)
            multiply(step, gain, step)
            add(srtt, step, srtt)
            multiply(rtt_r, dt, rtt_r)
            add(tot, row, tot)
        self.start[at] = stop
        self.srtt[at] = srtt
        duration = np.maximum(now - self.last_collect[at], 1e-9)
        self.last_collect[at] = now
        if len(self._buf) > _INITIAL_CAPACITY:
            lo = int(self.start.min(initial=end))
            if len(self._buf) >= 4 * max(end - lo, 1):
                self._move(lo, self._fit(end - lo))

        # An empty (or zero-weight) window reuses srtt, as the row fold.
        seen = weight > 0
        avg_rtt = srtt.copy()
        np.divide(rtt_weighted, weight, out=avg_rtt, where=seen)
        throughput = np.zeros(k)
        np.divide(delivered, weight, out=throughput, where=seen)
        rtt_min = np.where(seen, rtt_min, srtt)
        return MtpColumns(
            time_s=now,
            duration_s=duration,
            throughput_pps=throughput,
            avg_rtt_s=avg_rtt,
            min_rtt_s=np.where(rtt_min != np.inf, rtt_min, avg_rtt),
            sent_pkts=sent,
            delivered_pkts=delivered,
            lost_pkts=lost,
            pkts_in_flight=pkts_in_flight,
            cwnd_pkts=cwnd_pkts,
            pacing_pps=pacing_pps,
            srtt_s=srtt,
            marked_pkts=marked,
        )
