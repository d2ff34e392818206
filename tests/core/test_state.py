"""State block: local features, history stacking, global state (Table 2)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LinkConfig
from repro.core.state import (
    GLOBAL_FEATURES,
    LOCAL_FEATURES,
    LocalStateBlock,
    column_rows,
    global_state_vector,
    local_feature_vector,
)
from repro.errors import ModelError
from repro.netsim.stats import MtpColumns, MtpStats
from tests.cc.test_base import make_stats


class TestLocalFeatures:
    def test_dimension(self):
        vec = local_feature_vector(make_stats(), thr_max_pps=1000.0,
                                   lat_min_s=0.03)
        assert vec.shape == (LOCAL_FEATURES,)

    def test_throughput_ratio_first(self):
        vec = local_feature_vector(make_stats(throughput_pps=500.0),
                                   thr_max_pps=1000.0, lat_min_s=0.03)
        assert vec[0] == pytest.approx(0.5)

    def test_latency_ratio(self):
        vec = local_feature_vector(make_stats(avg_rtt_s=0.06),
                                   thr_max_pps=1000.0, lat_min_s=0.03)
        assert vec[2] == pytest.approx(2.0)

    def test_relative_cwnd_is_bdp_normalised(self):
        # cwnd 30 with BDP estimate 1000 * 0.03 = 30 -> feature 1.0.
        vec = local_feature_vector(make_stats(cwnd_pkts=30.0),
                                   thr_max_pps=1000.0, lat_min_s=0.03)
        assert vec[4] == pytest.approx(1.0)

    @settings(max_examples=50, deadline=None)
    @given(thr=st.floats(min_value=0.0, max_value=1e6),
           rtt=st.floats(min_value=1e-3, max_value=2.0),
           cwnd=st.floats(min_value=1.0, max_value=1e6))
    def test_property_features_clipped(self, thr, rtt, cwnd):
        stats = make_stats(throughput_pps=thr, avg_rtt_s=rtt, cwnd_pkts=cwnd)
        vec = local_feature_vector(stats, thr_max_pps=max(thr, 1.0),
                                   lat_min_s=0.01)
        assert np.all(vec >= 0.0)
        assert np.all(vec <= 6.0)
        assert np.all(np.isfinite(vec))


class TestLocalStateBlock:
    def test_input_dim(self):
        block = LocalStateBlock(history=5)
        assert block.input_dim == 5 * LOCAL_FEATURES

    def test_zero_padding_when_young(self):
        block = LocalStateBlock(history=3)
        block.update(make_stats())
        vec = block.input_vector()
        assert np.all(vec[:2 * LOCAL_FEATURES] == 0.0)
        assert np.any(vec[2 * LOCAL_FEATURES:] != 0.0)

    def test_history_rolls(self):
        block = LocalStateBlock(history=2)
        block.update(make_stats(throughput_pps=100.0))
        block.update(make_stats(throughput_pps=200.0))
        block.update(make_stats(throughput_pps=200.0))
        vec = block.input_vector()
        # Oldest frame (thr 100, ratio 0.5) evicted: first slot ratio is 1.0.
        assert vec[0] == pytest.approx(1.0)

    def test_tracks_thr_max_and_lat_min(self):
        block = LocalStateBlock()
        block.update(make_stats(throughput_pps=100.0, min_rtt_s=0.05))
        block.update(make_stats(throughput_pps=300.0, min_rtt_s=0.03))
        block.update(make_stats(throughput_pps=200.0, min_rtt_s=0.08))
        assert block.thr_max_pps == 300.0
        assert block.lat_min_s == 0.03

    def test_avg_and_std_over_window(self):
        block = LocalStateBlock(history=3)
        for thr in (100.0, 200.0, 300.0):
            block.update(make_stats(throughput_pps=thr))
        assert block.avg_throughput_pps() == pytest.approx(200.0)
        assert block.throughput_std_pps() == pytest.approx(
            np.std([100.0, 200.0, 300.0]))

    def test_rejects_bad_history(self):
        with pytest.raises(ModelError):
            LocalStateBlock(history=0)

    def test_reset(self):
        block = LocalStateBlock()
        block.update(make_stats())
        block.reset()
        assert block.avg_throughput_pps() == 0.0
        assert np.all(block.input_vector() == 0.0)


def hexed(values) -> list[str]:
    return [float(v).hex() for v in values]


def random_stats(rng, time_s: float) -> MtpStats:
    avg = float(rng.uniform(0.005, 0.3))
    return make_stats(time_s=time_s,
                      throughput_pps=float(rng.uniform(0.0, 2e4)),
                      avg_rtt_s=avg, min_rtt_s=avg * rng.uniform(0.5, 1.0),
                      cwnd_pkts=float(rng.uniform(2.0, 600.0)),
                      pkts_in_flight=float(rng.uniform(0.0, 600.0)),
                      srtt_s=float(rng.uniform(0.005, 0.3)))


class TestStateColumn:
    """A block packed into a state column (``read_column``) and unpacked
    (``write_column``) is the same block, at every depth."""

    @pytest.mark.parametrize("history", [5, 9])
    def test_pack_unpack_pack_is_bitwise_at_every_depth(self, history):
        rng = np.random.default_rng(history)
        block = LocalStateBlock(history=history)
        copy = LocalStateBlock(history=history)
        depths = []
        for step in range(history + 3):
            if step:
                block.update(random_stats(rng, 0.03 * step))
            column = block.read_column()
            assert column.shape == (column_rows(history),)
            copy.write_column(column)
            assert hexed(copy.read_column()) == hexed(column)
            assert hexed(copy.input_vector()) == hexed(block.input_vector())
            assert hexed(copy.thr_history_pps) == \
                hexed(block.thr_history_pps)
            assert (copy.thr_max_pps, copy.lat_min_s) == \
                (block.thr_max_pps, block.lat_min_s)
            depths.append(int(column[2]))
        assert depths == [*range(history + 1), history, history]
        block.reset()
        column = block.read_column()
        copy.write_column(column)
        assert hexed(copy.read_column()) == hexed(column)
        assert copy.input_vector().tolist() == [0.0] * block.input_dim
        assert not copy.thr_history_pps and copy.lat_min_s == np.inf

    @pytest.mark.parametrize("history", [5, 9])
    def test_update_columns_is_update_on_a_packed_block(self, history):
        """``k`` blocks at depths 0 to ``history`` advance as columns
        exactly as each advances by ``update``."""
        rng = np.random.default_rng([history, 1])
        blocks = [LocalStateBlock(history=history)
                  for _ in range(history + 1)]
        for depth, block in enumerate(blocks):
            for step in range(depth):
                block.update(random_stats(rng, 0.03 * (step + 1)))
        state = np.array([b.read_column() for b in blocks]).T.copy()
        now = 0.03 * (history + 1)
        stats = [random_stats(rng, now) for _ in blocks]
        stack = LocalStateBlock.update_columns(MtpColumns.of(now, stats),
                                               state)
        for j, (block, s) in enumerate(zip(blocks, stats)):
            assert hexed(stack[:, j]) == hexed(block.update(s))
            assert hexed(state[:, j]) == hexed(block.read_column())


class TestGlobalState:
    LINK = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)

    def test_dimension(self):
        vec = global_state_vector([make_stats()], self.LINK)
        assert vec.shape == (GLOBAL_FEATURES,)

    def test_aggregates(self):
        stats = [make_stats(throughput_pps=2000.0, cwnd_pkts=100.0),
                 make_stats(throughput_pps=6000.0, cwnd_pkts=200.0)]
        vec = global_state_vector(stats, self.LINK)
        c_pps = 100e6 / 12000
        assert vec[0] == pytest.approx(8000.0 / c_pps)      # ovr_thr
        assert vec[1] == pytest.approx(2000.0 / c_pps)      # min_thr
        assert vec[2] == pytest.approx(6000.0 / c_pps)      # max_thr
        assert vec[8] == pytest.approx(0.2)                 # 2 flows / 10

    def test_link_descriptors_present(self):
        vec = global_state_vector([make_stats()], self.LINK)
        assert vec[9] == pytest.approx(0.015 / 0.1)         # d0
        assert vec[11] == pytest.approx(0.5)                # c = 100/200

    def test_empty_flow_list(self):
        vec = global_state_vector([], self.LINK)
        assert vec.shape == (GLOBAL_FEATURES,)
        assert vec[8] == 0.0

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(min_value=1, max_value=8),
           scale=st.floats(min_value=1.0, max_value=1e5))
    def test_property_bounded(self, n, scale):
        stats = [make_stats(throughput_pps=scale * (i + 1),
                            cwnd_pkts=scale) for i in range(n)]
        vec = global_state_vector(stats, self.LINK)
        assert np.all(vec >= 0.0)
        assert np.all(vec <= 6.0)
