"""Socket datapath: framing, RTO properties, impairment determinism,
and the reliability contract (every payload byte exactly once, in order)
under randomized loss/reorder/delay schedules."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import FlowConfig, LinkConfig, ScenarioConfig
from repro.errors import (
    ConfigError,
    SimulationError,
    TransportError,
    TransportStalledError,
)
from repro.netsim.faults import (
    Blackout,
    DelaySpike,
    FaultSchedule,
    LossBurst,
    ReorderWindow,
)
from repro.netsim.socketpath import (
    ReceiverFlow,
    RtoEstimator,
    SocketNetwork,
    SocketTuning,
    run_scenario_socket,
    run_scenario_socket_report,
    transfer_payload,
)
from repro.netsim.socketpath.impair import ImpairmentLink, impairment_unit
from repro.netsim.socketpath.runner import stream_chunk
from repro.netsim.socketpath.transport import (
    AckSegment,
    DataSegment,
    decode,
    encode_ack,
    encode_data,
    peek,
)

#: High compression + tiny payloads keep the wall-clock cost of the
#: socket tests in CI territory.  The RTO floor is generous in simulated
#: seconds because at scale 40 it shrinks to 12.5 ms wall — it must stay
#: above the loopback queueing delay or clean paths fire spurious RTOs.
#: The wall-datagram budget is raised so the aggregation factor (and
#: with it the buffer measured in segments) stays close to the
#: default-scale geometry.
FAST = SocketTuning(time_scale=40.0, max_wall_dgrams_per_s=20_000.0,
                    min_rto_s=0.5, max_rto_s=4.0)


class TestCodec:
    def test_data_round_trip(self):
        frame = encode_data(3, 17, 2, b"hello")
        seg = decode(frame)
        assert seg == DataSegment(3, 17, 2, b"hello")
        assert peek(frame) == (1, 3, 17, 2)

    def test_ack_round_trip(self):
        frame = encode_ack(5, 40, 44, 1, ((42, 44), (46, 47)))
        ack = decode(frame)
        assert ack == AckSegment(5, 40, 44, 1, ((42, 44), (46, 47)))
        # peek on an ACK exposes the echo fields (impairment keying)
        assert peek(frame) == (2, 5, 44, 1)

    def test_sack_blocks_capped(self):
        frame = encode_ack(0, 0, 9, 1, tuple((10 * i, 10 * i + 1)
                                             for i in range(6)))
        assert len(decode(frame).sacks) == 3

    @pytest.mark.parametrize("garbage", [
        b"",
        b"\x07junk",                       # unknown kind
        encode_data(0, 0, 1, b"abc")[:4],  # truncated DATA header
        encode_data(0, 0, 1, b"abc")[:-1],  # payload shorter than length
        encode_ack(0, 1, 0, 1)[:5],        # truncated ACK header
        encode_ack(0, 1, 0, 1, ((2, 3),))[:-2],  # truncated SACK block
    ])
    def test_garbage_raises_typed(self, garbage):
        with pytest.raises(TransportError):
            decode(garbage)

    def test_empty_sack_range_rejected(self):
        frame = bytearray(encode_ack(0, 1, 0, 1, ((5, 6),)))
        frame[-4:] = (5).to_bytes(4, "big")  # end == start
        with pytest.raises(TransportError, match="empty SACK"):
            decode(bytes(frame))

    def test_oversize_segment_rejected_at_encode(self):
        with pytest.raises(TransportError, match="exceeds"):
            encode_data(0, 0, 1, b"x" * 4096)

    def test_stream_chunk_deterministic_and_distinct(self):
        assert stream_chunk(1, 2, 32) == stream_chunk(1, 2, 32)
        assert stream_chunk(1, 2, 32) != stream_chunk(1, 3, 32)
        assert len(stream_chunk(0, 0, 100)) == 100


class TestRtoEstimator:
    def test_rejects_bad_bounds_and_samples(self):
        with pytest.raises(ConfigError):
            RtoEstimator(min_rto_s=0.0, max_rto_s=1.0)
        with pytest.raises(ConfigError):
            RtoEstimator(min_rto_s=1.0, max_rto_s=0.5)
        rto = RtoEstimator(min_rto_s=0.01, max_rto_s=1.0)
        with pytest.raises(ConfigError):
            rto.observe(0.0)

    @settings(max_examples=50, deadline=None)
    @given(samples=st.lists(st.floats(min_value=1e-4, max_value=5.0),
                            max_size=20),
           backoffs=st.integers(min_value=0, max_value=30))
    def test_rto_always_clamped(self, samples, backoffs):
        rto = RtoEstimator(min_rto_s=0.05, max_rto_s=1.5)
        for s in samples:
            rto.observe(s)
        for _ in range(backoffs):
            assert 0.05 <= rto.rto_s <= 1.5
            rto.back_off()
        assert 0.05 <= rto.rto_s <= 1.5

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(min_value=1, max_value=40))
    def test_backoff_monotone_then_reset_by_sample(self, n):
        rto = RtoEstimator(min_rto_s=0.01, max_rto_s=10.0)
        rto.observe(0.1)
        previous = rto.rto_s
        for _ in range(n):
            rto.back_off()
            assert rto.rto_s >= previous
            previous = rto.rto_s
        rto.observe(0.1)
        assert rto.backoff == 0
        assert rto.rto_s < 10.0

    def test_backoff_caps_at_max_rto(self):
        rto = RtoEstimator(min_rto_s=0.01, max_rto_s=0.5)
        rto.observe(0.05)
        for _ in range(100):
            rto.back_off()
        assert rto.rto_s == 0.5

    def test_first_sample_initialises_rfc6298(self):
        rto = RtoEstimator(min_rto_s=0.001, max_rto_s=10.0)
        rto.observe(0.2)
        assert rto.srtt_s == pytest.approx(0.2)
        assert rto.rttvar_s == pytest.approx(0.1)
        assert rto.rto_s == pytest.approx(0.2 + 4 * 0.1)


class TestImpairmentLink:
    LINK = LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0, buffer_bdp=2.0)

    def _fates(self, seed, faults=None, n=300):
        core = ImpairmentLink(self.LINK, faults, seed=seed,
                              time_scale=10.0, pkts_per_seg=1)
        # A fresh core per seq: fates must not depend on queue state.
        return [core.data_release_wall(0, seq, 1, 1e9, 5.0) is None
                for seq in range(n)]

    def test_unit_hash_deterministic_in_range(self):
        values = [impairment_unit(7, 1, 0, seq, 1) for seq in range(200)]
        assert values == [impairment_unit(7, 1, 0, seq, 1)
                          for seq in range(200)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_drop_fates_deterministic_per_seed(self):
        faults = FaultSchedule((LossBurst(0.0, 100.0, loss_rate=0.5),))
        first = self._fates(3, faults)
        assert first == self._fates(3, faults)
        assert any(first)            # ~50% loss must drop something
        assert not all(first)
        assert first != self._fates(4, faults)

    def test_retransmission_attempt_gets_fresh_fate(self):
        faults = FaultSchedule((LossBurst(0.0, 100.0, loss_rate=0.5),))
        core = ImpairmentLink(self.LINK, faults, seed=0, time_scale=10.0,
                              pkts_per_seg=1)
        fates = {a: core.data_release_wall(0, 9, a, 1e9, 5.0) is None
                 for a in range(1, 40)}
        assert any(fates.values()) and not all(fates.values())

    def test_blackout_parks_data_and_drops_acks(self):
        faults = FaultSchedule((Blackout(1.0, 4.0),))
        core = ImpairmentLink(self.LINK, faults, seed=0, time_scale=10.0,
                              pkts_per_seg=1)
        release = core.data_release_wall(0, 0, 1, 0.0, sim_now=2.0)
        # outage ends at sim 5.0 = 0.3 wall away at scale 10
        assert release is not None and release >= 0.3
        assert core.ack_release_wall(0, 0, 1, 0.0, sim_now=2.0) is None
        assert core.drops["blackout_ack"] == 1
        assert core.ack_release_wall(0, 0, 1, 0.0, sim_now=6.0) is not None

    def test_queue_overflow_counted(self):
        core = ImpairmentLink(self.LINK, None, seed=0, time_scale=1.0,
                              pkts_per_seg=1)
        drops_before = core.drops["overflow"]
        for seq in range(500):
            core.data_release_wall(0, seq, 1, 0.0, 0.0)  # same instant
        assert core.drops["overflow"] > drops_before
        assert core.queue_segs > 0

    def test_rejects_bad_tuning(self):
        with pytest.raises(ConfigError):
            ImpairmentLink(self.LINK, None, seed=0, time_scale=0.0,
                           pkts_per_seg=1)
        with pytest.raises(ConfigError):
            ImpairmentLink(self.LINK, None, seed=0, time_scale=1.0,
                           pkts_per_seg=0)


class TestReceiverFlow:
    def test_reorder_and_duplicate_handling(self):
        rx = ReceiverFlow(0, capture=True)
        acks = [decode(rx.on_data(DataSegment(0, seq, 1, bytes([seq]))))
                for seq in (1, 0, 0, 2)]
        assert [a.cum for a in acks] == [0, 2, 2, 3]
        assert acks[0].sacks == ((1, 2),)
        assert rx.duplicates == 1
        assert b"".join(rx.chunks) == bytes([0, 1, 2])


class TestTransferReliability:
    """The tentpole contract: exactly-once, in-order delivery."""

    def test_clean_link_no_retransmits(self):
        payload = stream_chunk(9, 0, 3000)
        data, report = transfer_payload(payload, seed=0, tuning=FAST)
        assert data == payload
        assert report.retransmits == 0
        assert report.duplicates == 0
        assert report.delivered_bytes == len(payload)

    def test_seeded_five_percent_loss_byte_exact(self):
        payload = stream_chunk(11, 1, 5000)
        faults = FaultSchedule((LossBurst(0.0, 1e4, loss_rate=0.05),))
        data, report = transfer_payload(payload, faults=faults, seed=1,
                                        tuning=FAST)
        assert data == payload
        assert report.retransmits > 0
        assert report.srtt_s is not None and report.srtt_s > 0

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           loss=st.floats(min_value=0.001, max_value=0.25),
           reorder=st.floats(min_value=0.001, max_value=0.08),
           delay_ms=st.floats(min_value=1.0, max_value=80.0),
           nbytes=st.integers(min_value=1, max_value=2500))
    def test_exactly_once_in_order_under_randomized_impairment(
            self, seed, loss, reorder, delay_ms, nbytes):
        payload = stream_chunk(seed % 7, seed, nbytes)
        faults = FaultSchedule((
            LossBurst(0.0, 1e4, loss_rate=loss),
            ReorderWindow(0.0, 1e4, rate=reorder),
            DelaySpike(2.0, 3.0, extra_ms=delay_ms),
        ))
        data, report = transfer_payload(payload, faults=faults, seed=seed,
                                        tuning=FAST, max_wall_s=20.0)
        assert data == payload                    # every byte, in order
        assert report.delivered_bytes == nbytes   # exactly once

    def test_total_blackout_raises_typed_stall(self):
        tuning = SocketTuning(time_scale=40.0, max_attempts=4,
                              min_rto_s=0.1, max_rto_s=0.4)
        faults = FaultSchedule((Blackout(0.0, 1e4),))
        with pytest.raises(TransportStalledError) as err:
            transfer_payload(b"x" * 500, faults=faults, seed=0,
                             tuning=tuning, max_wall_s=10.0)
        assert err.value.flow_id == 0
        assert err.value.attempts is None or err.value.attempts >= 1

    def test_empty_payload_trivial(self):
        data, report = transfer_payload(b"", tuning=FAST)
        assert data == b"" and report.n_segments == 0


class TestScenarioRunner:
    def _scenario(self, **kw):
        defaults = dict(
            link=LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0,
                            buffer_bdp=2.0),
            flows=(FlowConfig(cc="cubic"),),
            duration_s=3.0,
            seed=0,
        )
        defaults.update(kw)
        return ScenarioConfig(**defaults)

    def test_smoke_result_and_report_shape(self):
        result, report = run_scenario_socket_report(self._scenario(),
                                                    tuning=FAST)
        assert result.duration_s == 3.0
        assert result.bottleneck_mbps == 10.0
        log = result.flows[0]
        assert len(log.times) > 0
        assert all(t >= 0 for t in log.times)
        assert all(math.isfinite(v) for v in log.throughput_mbps)
        assert report.total_corrupt == 0
        assert report.total_delivered_segs > 0
        assert report.pkts_per_seg >= 1
        assert report.wall_s > 0

    def test_removed_flow_stops_sending(self):
        net = SocketNetwork(LinkConfig(bandwidth_mbps=10.0, rtt_ms=20.0),
                            tuning=FAST)
        try:
            kept, gone = net.add_flows(
                [{"base_rtt_s": 0.02, "cwnd_pkts": 20.0}] * 2)
            net.advance_to(0.5)
            net.remove_flows([gone])
            sent = net.flows[gone].sender.sent_segs
            before = net.flows[kept].sender.sent_segs
            net.advance_to(1.5)
        finally:
            net.close()
        assert sent > 0 and net.flows[gone].sender.sent_segs == sent
        assert net.flows[kept].sender.sent_segs > before

    def test_run_scenario_socket_returns_result_only(self):
        result = run_scenario_socket(self._scenario(duration_s=1.5),
                                     tuning=FAST)
        assert result.flows[0].cc_name == "cubic"

    def test_rejects_traced_scenarios(self):
        scenario = self._scenario(trace="constant")
        with pytest.raises(SimulationError, match="trace"):
            run_scenario_socket(scenario, tuning=FAST)

    def test_rejects_staggered_flows(self):
        scenario = self._scenario(
            flows=(FlowConfig(cc="cubic", start_s=1.0),))
        with pytest.raises(SimulationError, match="start at t=0"):
            run_scenario_socket(scenario, tuning=FAST)

    def test_rejects_heterogeneous_rtt(self):
        scenario = self._scenario(
            flows=(FlowConfig(cc="cubic", extra_rtt_ms=30.0),))
        with pytest.raises(SimulationError, match="RTT-heterogeneous"):
            run_scenario_socket(scenario, tuning=FAST)

    def test_engine_dispatch_reaches_socket(self):
        from repro.env import run_engine_scenario

        result = run_engine_scenario(self._scenario(duration_s=1.5),
                                     "socket")
        assert result.duration_s == 1.5
