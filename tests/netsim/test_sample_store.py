"""The network's columnar sample store against per-flow ``FlowMonitor``s.

``SampleStore.collect`` folds the observable prefix of many flows at
once; the oracle is one standalone :class:`FlowMonitor` per flow, fed
the same samples one at a time and collected at the same instants.  The
contract is bit-identity — every ``MtpStats`` field compared on
``float.hex`` — because one ulp in one flow's stats diverges a chaotic
rollout and the pinned fleet digests with it.
"""

from __future__ import annotations

from dataclasses import astuple

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
    COL_TIME,
    FlowMonitor,
    SampleStore,
    TickSample,
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
