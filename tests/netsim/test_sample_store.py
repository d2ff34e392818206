"""The network's columnar sample store against per-flow ``FlowMonitor``s.

``SampleStore.collect`` folds the observable prefix of many flows at
once; the oracle is one standalone :class:`FlowMonitor` per flow, fed
the same samples one at a time and collected at the same instants.  The
contract is bit-identity — every ``MtpStats`` field compared on
``float.hex`` — because one ulp in one flow's stats diverges a chaotic
rollout and the pinned fleet digests with it.
"""

from __future__ import annotations

import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import LinkConfig
from repro.errors import SimulationError
from repro.netsim import FluidNetwork
from repro.netsim.stats import (
    _INITIAL_CAPACITY,
    COL_AVAIL,
    COL_DT,
    COL_RTT,
    COL_SENT,
    COL_TIME,
    FlowMonitor,
    MtpColumns,
    SampleStore,
    TickSample,
    contiguous_run,
)

TICK = 0.002


def hexed(stats) -> tuple:
    return tuple(float(x).hex() for x in astuple(stats))


class Twin:
    """A :class:`SampleStore` and its per-flow oracle, driven in lockstep."""

    def __init__(self):
        self.store = SampleStore()
        self.fids: list[int] = []  # slot -> flow id
        self.monitors: dict[int, FlowMonitor] = {}
        self.rtt: dict[int, float] = {}
        self.now = 0.0
        self._next_fid = 0

    def add(self, base_rtts) -> None:
        self.store.reindex(np.arange(len(self.fids)), list(base_rtts))
        for rtt in base_rtts:
            self.monitors[self._next_fid] = FlowMonitor(rtt)
            self.rtt[self._next_fid] = rtt
            self.fids.append(self._next_fid)
            self._next_fid += 1

    def remove(self, slots) -> None:
        keep = [i for i in range(len(self.fids)) if i not in set(slots)]
        self.store.reindex(np.array(keep, dtype=np.intp), [])
        for slot in slots:
            del self.monitors[self.fids[slot]]
        self.fids = [self.fids[i] for i in keep]

    def push(self, k: int, rng: np.random.Generator) -> None:
        """One engine block: ``k`` ticks for every flow, RTTs as set."""
        if not self.fids:
            self.now += k * TICK
            return
        blk = self.store.reserve(k)
        blk[:] = rng.random(blk.shape) * 5.0
        for i in range(k):
            blk[i, COL_TIME] = self.now
            blk[i, COL_DT] = TICK
            self.now += TICK
            for slot, fid in enumerate(self.fids):
                rtt = self.rtt[fid] * (1.0 + 0.1 * rng.random())
                blk[i, COL_RTT, slot] = rtt
                blk[i, COL_AVAIL, slot] = self.now + rtt / 2.0
        for slot, fid in enumerate(self.fids):
            for row in blk[:, :, slot].tolist():
                self.monitors[fid].push(TickSample(*row))
        self.store.commit(k)

    def collect(self, slots, now: float) -> None:
        """Collect ``slots`` both ways and compare every field."""
        slots = np.array(slots, dtype=np.intp)
        cwnd = 10.0 + slots
        pacing = 100.0 * (1 + slots)
        inflight = 3.0 * slots
        rows = self.store.collect(slots, now, cwnd, pacing, inflight).rows()
        assert len(rows) == len(slots)
        for j, slot in enumerate(slots.tolist()):
            want = self.monitors[self.fids[slot]].collect(
                now, cwnd[j], pacing[j], inflight[j])
            assert hexed(rows[j]) == hexed(want), (slot, rows[j], want)

    def check_pending(self) -> None:
        for slot, fid in enumerate(self.fids):
            assert self.store.pending(slot).tolist() == [
                list(astuple(s))
                for s in self.monitors[fid].pending_samples()]
            assert self.store.srtt[slot] == self.monitors[fid].srtt_s


class TestColumnarCollectEqualsRowFold:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_random_histories(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        twin = Twin()
        rtts = st.sampled_from([0.004, 0.02, 0.03, 0.12, 0.4])
        twin.add(data.draw(st.lists(rtts, min_size=1, max_size=5)))
        for _ in range(data.draw(st.integers(1, 12))):
            op = data.draw(st.sampled_from(
                ["push", "push", "collect", "collect", "collapse", "add",
                 "remove"]))
            n = len(twin.fids)
            if op == "push":
                twin.push(data.draw(st.integers(1, 40)), rng)
            elif op == "collect" and n:
                slots = data.draw(st.lists(
                    st.integers(0, n - 1), min_size=1, unique=True))
                # Sometimes before anything new is observable.
                lag = data.draw(st.sampled_from([0.0, 0.0, 0.01, 0.5]))
                twin.collect(slots, twin.now - lag)
            elif op == "collapse" and n:
                # An RTT collapse makes avail_at non-monotone.
                fid = twin.fids[data.draw(st.integers(0, n - 1))]
                twin.rtt[fid] = twin.rtt[fid] / 20.0 \
                    if twin.rtt[fid] > 0.01 else 0.4
            elif op == "add":
                twin.add(data.draw(st.lists(rtts, min_size=1, max_size=2)))
            elif op == "remove" and n > 1:
                twin.remove(data.draw(st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=n - 1,
                    unique=True)))
        twin.check_pending()
        twin.collect(list(range(len(twin.fids))), twin.now + 1.0)
        twin.check_pending()

    def test_rtt_collapse_drains_only_the_prefix(self):
        twin = Twin()
        twin.add([0.4, 0.03])
        rng = np.random.default_rng(1)
        twin.push(10, rng)
        twin.rtt[0] = 0.004  # later samples become observable first
        twin.push(10, rng)
        avail = twin.store.pending(0)[:, COL_AVAIL]
        assert (np.diff(avail) < 0).any()
        twin.collect([0, 1], twin.now + 0.01)
        assert len(twin.store.pending(0)) == 20  # blocked by the first
        twin.collect([0, 1], twin.now + 0.3)
        assert len(twin.store.pending(0)) == 0
        twin.check_pending()

    def test_empty_window_reuses_srtt(self):
        twin = Twin()
        twin.add([0.2, 0.03])
        twin.push(5, np.random.default_rng(2))
        twin.collect([0, 1], twin.now)  # flow 0 has nothing observable yet
        twin.collect([0], twin.now)
        twin.check_pending()

    def test_offsets_survive_flow_churn(self):
        twin = Twin()
        twin.add([0.03, 0.05, 0.03])
        rng = np.random.default_rng(3)
        twin.push(30, rng)
        twin.collect([1], twin.now)  # flow 1 is ahead of flows 0 and 2
        twin.add([0.02])  # joins mid-history with nothing pending
        assert len(twin.store.pending(3)) == 0
        twin.push(10, rng)
        twin.remove([0])
        twin.check_pending()
        twin.push(10, rng)
        twin.collect([0, 1, 2], twin.now + 1.0)
        twin.check_pending()

    def test_ring_grows_drains_and_shrinks(self):
        twin = Twin()
        twin.add([0.03, 0.03, 0.05])
        rng = np.random.default_rng(4)
        for _ in range(16):
            twin.push(_INITIAL_CAPACITY, rng)
        assert twin.store.capacity >= 16 * _INITIAL_CAPACITY
        # One flow lagging keeps every row alive...
        twin.collect([0, 1], twin.now + 1.0)
        assert twin.store.capacity >= 16 * _INITIAL_CAPACITY
        # ...and once it drains the burst is released.
        twin.collect([2], twin.now + 1.0)
        assert twin.store.capacity == _INITIAL_CAPACITY
        # Steady cycles stay inside the initial ring.
        for _ in range(50):
            twin.push(15, rng)
            twin.collect([0, 1, 2], twin.now - 0.02)
            assert twin.store.capacity == _INITIAL_CAPACITY
        twin.check_pending()


def frozen(cols: MtpColumns) -> dict:
    return {f.name: np.array(getattr(cols, f.name), copy=True).tobytes()
            for f in fields(cols)}


class TestCollectShapes:
    """The slot sets and windows the fold must handle exactly as the
    row fold: a contiguous run is read through views, any other set
    through one gather, and a window may start or end at different rows
    for different flows."""

    RTTS = [0.004, 0.02, 0.03, 0.12, 0.03, 0.05, 0.4, 0.02]

    @pytest.mark.parametrize("slots", [
        list(range(8)), [2, 3, 4, 5], list(range(7, -1, -1)), [6, 1, 4]],
        ids=["all", "middle-run", "reversed", "scattered"])
    def test_slot_sets(self, slots):
        twin = Twin()
        twin.add(self.RTTS)
        rng = np.random.default_rng(7)
        twin.push(15, rng)
        twin.collect([1, 5], twin.now)  # stagger the consumed offsets
        for lag in (0.01, 0.0, 0.3, 0.0):
            twin.push(15, rng)
            twin.collect(slots, twin.now - lag)
        twin.check_pending()

    def test_contiguous_run(self):
        assert contiguous_run(np.arange(3, 9)) == slice(3, 9)
        assert contiguous_run(np.array([5])) == slice(5, 6)
        assert contiguous_run(slice(2, 4)) == slice(2, 4)
        for slots in ([], [1, 0], [0, 2, 1, 3], [0, 2], [4, 5, 7]):
            slots = np.array(slots, dtype=np.intp)
            assert contiguous_run(slots) is slots

    def test_long_window_is_summed_in_sample_order(self):
        """A window of 40 rows: NumPy's pairwise sum regroups from 8
        elements on, and would read a different last bit here."""
        twin = Twin()
        twin.add([0.03])
        twin.push(40, np.random.default_rng(11))
        sent = twin.store.pending(0)[:, COL_SENT]
        assert float(np.sum(sent)) != sum(sent.tolist())
        twin.collect([0], twin.now + 1.0)
        twin.check_pending()

    @pytest.mark.parametrize("junk", [np.nan, np.inf, -np.inf])
    def test_late_flow_garbage_below_its_start_is_never_read(self, junk):
        twin = Twin()
        twin.add([0.03, 0.12])
        rng = np.random.default_rng(5)
        twin.push(20, rng)
        twin.add([0.02])  # starts at row 20, below it the ring is junk
        store = twin.store
        store._buf[:store._end, :, 2] = junk
        twin.collect([0, 1, 2], twin.now)
        twin.push(12, rng)
        twin.collect([2, 0], twin.now - 0.01)
        twin.collect([0, 1, 2], twin.now + 1.0)
        twin.check_pending()

    def test_columns_own_their_memory(self):
        twin = Twin()
        twin.add(self.RTTS)
        rng = np.random.default_rng(9)
        twin.push(20, rng)
        slots = np.arange(8)
        cols = twin.store.collect(slots, twin.now, np.ones(8), np.ones(8),
                                  np.ones(8))
        before = frozen(cols)
        twin.push(20, rng)
        twin.store.collect(slots, twin.now, np.zeros(8), np.zeros(8),
                           np.zeros(8))
        assert frozen(cols) == before

    def test_network_columns_own_their_memory(self):
        net, fids = make_net(5)
        net.advance_block(TICK, 30)
        cols = net.collect_stats(net.slots(fids), net.now)
        before = frozen(cols)
        net.set_cwnds(net.slots(fids), [50.0] * 5, [1e4] * 5)
        net.advance_block(TICK, 30)
        net.collect_stats(net.slots(fids), net.now)
        assert frozen(cols) == before


def stop_by_minima(store: SampleStore, slots, now: float) -> np.ndarray:
    """Each flow's new offset as ``collect`` once computed it: the column
    minima of an int64 block holding a blocked cell's row, else ``end``."""
    start = store.start[slots]
    end = store._end
    lo = int(start.min(initial=end))
    head = int(start.max(initial=lo)) - lo
    rows = np.arange(lo, end)[:, None]
    blocked = store._buf[lo:end, COL_AVAIL][:, slots] > now
    if head:
        blocked[:head] &= rows[:head] >= start
    return np.where(blocked, rows, end).min(axis=0, initial=end)


class TestStopSearch:
    """The sentinel ``argmax`` that finds where each flow's observable
    prefix stops, against the column-minima expression it replaced."""

    def store(self, avail: np.ndarray, start) -> SampleStore:
        store = SampleStore()
        store.reindex(np.arange(0, dtype=np.intp), np.full(avail.shape[1],
                                                           0.03))
        blk = store.reserve(len(avail))
        blk[:] = 1.0
        blk[:, COL_AVAIL] = avail
        store.commit(len(avail))
        store.start[:] = start
        return store

    def check(self, store: SampleStore, slots, now: float) -> np.ndarray:
        want = stop_by_minima(store, slots, now)
        k = len(want)
        store.collect(slots, now, np.ones(k), np.ones(k), np.ones(k))
        got = store.start[slots]
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
        return got

    def test_staggered_starts_and_stops(self):
        avail = np.zeros((10, 6))
        avail[7, 0] = 1.0  # blocked from row 7
        avail[2, 1] = 1.0  # blocked below its start: ignored
        avail[4, 2] = 1.0  # blocked at its start
        avail[[5, 8], 3] = 1.0  # the first blocked row counts
        avail[:, 4] = np.nan  # NaN never blocks
        # Flow 5 has no blocked row: it stops at ``end``.
        stop = self.check(self.store(avail, [0, 3, 4, 1, 6, 2]),
                          np.arange(6), 0.5)
        assert stop.tolist() == [7, 10, 4, 5, 10, 10]

    @pytest.mark.parametrize("slots", [[4, 0, 2], [1, 2, 3]])
    def test_slot_subsets(self, slots):
        avail = np.random.default_rng(3).uniform(0.0, 1.0, (12, 5))
        self.check(self.store(avail, [0, 5, 2, 9, 4]),
                   np.array(slots, dtype=np.intp), 0.7)

    def test_empty_window(self):
        store = self.store(np.zeros((4, 3)), [4, 4, 4])
        assert self.check(store, np.arange(3), 0.5).tolist() == [4, 4, 4]
        assert len(self.check(store, np.arange(0, dtype=np.intp),
                              0.5)) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_blocks(self, data):
        rows = data.draw(st.integers(0, 20))
        k = data.draw(st.integers(1, 6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        avail = rng.uniform(0.0, 1.0, (rows, k))
        start = data.draw(st.lists(st.integers(0, rows), min_size=k,
                                   max_size=k))
        self.check(self.store(avail, start), np.arange(k),
                   data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0])))


def test_first_collect_peak_memory_per_flow():
    """The fold's scratch is the ``(rows, 6, k)`` window and little
    else: at most 2000 traced bytes per flow on a 30-row first collect
    (8 B x 6 columns x 30 rows is 1440 of them)."""
    n, rows = 20_000, 30
    store = SampleStore()
    store.reindex(np.arange(0, dtype=np.intp), np.full(n, 0.03))
    blk = store.reserve(rows)
    blk[:] = 1.0
    blk[:, COL_AVAIL] = np.arange(rows)[:, None] * TICK
    store.commit(rows)
    ones = np.ones(n)
    tracemalloc.start()
    try:
        store.collect(np.arange(n), rows * TICK, ones, ones, ones)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (store.start == rows).all()
    assert peak / n <= 2000, peak / n


def make_net(n: int) -> tuple[FluidNetwork, list[int]]:
    net = FluidNetwork(LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0,
                                  buffer_bdp=1.0))
    return net, net.add_flows(
        [{"base_rtt_s": 0.02 + 0.002 * i} for i in range(n)])


class TestSetCwnds:
    CWNDS = [1.0, 15.5, 3e9, 40.0, 2.0, 77.25]
    PACINGS = [np.inf, 800.0, np.inf, 1e4, 50.0, np.inf]

    def test_equals_a_loop_of_set_cwnd(self):
        batch, fids = make_net(6)
        loop, _ = make_net(6)
        order = [4, 0, 5, 2, 1, 3]
        batch.set_cwnds(batch.slots([fids[i] for i in order]),
                        [self.CWNDS[i] for i in order],
                        [self.PACINGS[i] for i in order])
        for i in order:
            pacing = self.PACINGS[i]
            loop.set_cwnd(fids[i], self.CWNDS[i],
                          None if pacing == np.inf else pacing)
        assert batch._cwnd.tolist() == loop._cwnd.tolist()
        assert batch._pacing.tolist() == loop._pacing.tolist()
        assert [batch.cwnd(f) for f in fids] == \
            [2.0, 15.5, 1e9, 40.0, 2.0, 77.25]
        batch.set_cwnds(batch.slots(fids), self.CWNDS)  # no pacing column
        assert batch._pacing.tolist() == [np.inf] * 6

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_names_the_first_flow_and_applies_nothing(self, bad):
        batch, fids = make_net(6)
        loop, _ = make_net(6)
        cwnds = list(self.CWNDS)
        cwnds[2] = cwnds[4] = bad
        before = batch._cwnd.tolist()
        with pytest.raises(SimulationError) as batch_err:
            batch.set_cwnds(batch.slots(fids), cwnds)
        with pytest.raises(SimulationError) as loop_err:
            for fid, cwnd in zip(fids, cwnds):
                loop.set_cwnd(fid, cwnd)
        assert str(batch_err.value) == str(loop_err.value)
        assert f"flow {fids[2]}" in str(batch_err.value)
        assert batch._cwnd.tolist() == before

    def test_unknown_flow_id(self):
        net, fids = make_net(2)
        with pytest.raises(SimulationError, match="unknown flow id 99"):
            net.slots([fids[0], 99])


class TestNetworkCollectStats:
    def test_equals_collecting_each_flow_alone(self):
        a, fids = make_net(5)
        b, _ = make_net(5)
        for net in (a, b):
            for _ in range(4):
                net.advance_block(TICK, 15)
        cols = a.collect_stats(a.slots(fids[::-1]), a.now)
        for stats, fid in zip(cols.rows(), fids[::-1]):
            want = b.collect_stats(b.slots([fid]), b.now).rows()[0]
            assert (want.cwnd_pkts, want.pacing_pps, want.pkts_in_flight) \
                == (b.cwnd(fid), b.flow_rate_pps(fid), b.pkts_in_flight(fid))
            assert hexed(stats) == hexed(want)
        assert cols.loss_rate.tolist() == [s.loss_rate for s in cols.rows()]
        assert cols.throughput_mbps.tolist() == \
            [s.throughput_mbps for s in cols.rows()]
