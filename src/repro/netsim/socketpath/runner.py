"""Socket engine: real datagrams, simulated clock.

:class:`SocketNetwork` is the loopback-UDP datapath as an engine under
:class:`~repro.env.multiflow.ScenarioDriver`: per-flow sender sockets,
one shared receiver socket and the :class:`~.impair.ImpairmentProxy` in
between, all serviced by one single-threaded ``selectors`` event loop,
behind the fluid engine's batch surface.  :func:`run_scenario_socket`
runs a :class:`~repro.config.ScenarioConfig` on it and produces the
same :class:`~repro.env.multiflow.ScenarioResult` record the other
engines emit, so every metric (:mod:`repro.metrics.recovery` included)
works unchanged.

**Time scaling.**  The loop runs in wall-clock time; simulated time is
``wall x time_scale`` (default 6), so a 30 s quick scenario finishes in
~5 s wall.  Rates convert by multiplying with the scale, delays by
dividing.  **Packet aggregation** keeps a Python loop feasible: one UDP
datagram represents ``pkts_per_seg`` simulated packets, sized so the
wall datagram rate stays near ``max_wall_dgrams_per_s``.  Counters are
converted back to simulated packets, and wall RTTs to simulated
seconds, before they reach the controller.

:func:`transfer_payload` is the byte-exact entry point the reliability
tests drive: a finite payload crosses the impaired loopback path and
comes back reassembled — every byte exactly once, in order, or a typed
:class:`~repro.errors.TransportStalledError`.
"""

from __future__ import annotations

import math
import selectors
import socket
import time
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from ...cc.base import CongestionController
from ...config import LinkConfig, ScenarioConfig
from ...errors import ConfigError, SimulationError, TransportError, \
    TransportStalledError
from ...env.multiflow import ScenarioResult, build_driver
from ..fluid import check_decisions
from ..stats import IntervalWindow, MtpColumns
from .impair import ImpairmentLink, ImpairmentProxy
from .transport import AckSegment, DataSegment, ReceiverFlow, RtoEstimator, \
    SenderFlow, decode

_MAX_DATAGRAM = 65535


@dataclass(frozen=True)
class SocketTuning:
    """Knobs of the wall-clock execution (all *_s in simulated seconds).

    ``time_scale`` compresses wall time into simulated time;
    ``max_wall_dgrams_per_s`` caps the per-flow wall datagram rate and
    thereby sets the packet-aggregation factor
    (:meth:`pkts_per_seg`).  RTO bounds follow the transport's RFC
    6298-style estimator; ``stall_s`` is the no-progress give-up budget
    (``None`` derives ``8 x max_rto_s``).
    """

    time_scale: float = 6.0
    max_wall_dgrams_per_s: float = 2500.0
    seg_payload_bytes: int = 32
    max_attempts: int = 30
    min_rto_s: float = 0.04
    max_rto_s: float = 2.0
    stall_s: float | None = None
    fast_rtx_dupes: int = 3
    #: Longest the event loop may sleep between housekeeping passes.
    poll_cap_wall_s: float = 0.005
    #: Most datagrams one flow puts on the wire per loop pass.
    burst_segs: int = 64

    def __post_init__(self) -> None:
        if self.time_scale <= 0:
            raise ConfigError(
                f"time scale must be positive, got {self.time_scale}")
        if self.max_wall_dgrams_per_s <= 0:
            raise ConfigError("wall datagram budget must be positive")
        if self.seg_payload_bytes < 1:
            raise ConfigError("segment payload must be at least one byte")
        if self.min_rto_s <= 0 or self.max_rto_s < self.min_rto_s:
            raise ConfigError(
                f"need 0 < min_rto ({self.min_rto_s}) <= max_rto "
                f"({self.max_rto_s})")
        if self.stall_s is not None and self.stall_s <= 0:
            raise ConfigError("stall budget must be positive")

    def pkts_per_seg(self, capacity_pps: float) -> int:
        """Simulated packets one datagram represents on this link."""
        return max(1, math.ceil(capacity_pps * self.time_scale
                                / self.max_wall_dgrams_per_s))

    @property
    def stall_budget_s(self) -> float:
        return self.stall_s if self.stall_s is not None \
            else 8.0 * self.max_rto_s


class WallClock:
    """Anchors the simulated clock: ``sim = (wall - t0) x scale``."""

    def __init__(self, time_scale: float):
        self.scale = time_scale
        self.t0 = time.monotonic()

    def now_wall(self) -> float:
        return time.monotonic()

    def sim_at(self, wall: float) -> float:
        return (wall - self.t0) * self.scale


def stream_chunk(flow_id: int, seq: int, nbytes: int) -> bytes:
    """Deterministic payload of stream segment ``seq`` of ``flow_id``.

    Sender and receiver derive the same bytes independently, so the
    scenario runner verifies content integrity without buffering the
    stream anywhere.
    """
    out = b""
    counter = 0
    while len(out) < nbytes:
        h = blake2b(digest_size=32)
        h.update(b"socketpath-stream")
        for k in (flow_id, seq, counter):
            h.update(int(k).to_bytes(8, "big"))
        out += h.digest()
        counter += 1
    return out[:nbytes]


@dataclass
class _FlowRuntime:
    """Everything the event loop tracks for one flow."""

    index: int
    sender: SenderFlow
    sock: socket.socket


@dataclass(frozen=True)
class SocketRunReport:
    """Datapath-level accounting of one socket-engine run."""

    wall_s: float
    sim_s: float
    time_scale: float
    pkts_per_seg: int
    flows: tuple[dict, ...]
    proxy_drops: dict
    proxy_reordered: int
    proxy_malformed: int

    @property
    def total_corrupt(self) -> int:
        return sum(f["corrupt"] for f in self.flows)

    @property
    def total_delivered_segs(self) -> int:
        return sum(f["delivered_segs"] for f in self.flows)

    @property
    def wire_segs_per_wall_s(self) -> float:
        sent = sum(f["sent_segs"] for f in self.flows)
        return sent / self.wall_s if self.wall_s > 0 else 0.0


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one :func:`transfer_payload` call."""

    n_segments: int
    delivered_bytes: int
    retransmits: int
    fast_retransmits: int
    rto_timeouts: int
    duplicates: int
    wall_s: float
    srtt_s: float | None


def _open_udp(host: str = "127.0.0.1") -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((host, 0))
    sock.setblocking(False)
    return sock


def _drain_acks(fr: _FlowRuntime, clock: WallClock) -> None:
    while True:
        try:
            data, _ = fr.sock.recvfrom(_MAX_DATAGRAM)
        except BlockingIOError:
            return
        try:
            frame = decode(data)
        except TransportError:
            continue
        if isinstance(frame, AckSegment):
            fr.sender.on_ack(frame, clock.now_wall())


def _drain_receiver(recv_sock: socket.socket,
                    receivers: dict[int, ReceiverFlow],
                    proxy: ImpairmentProxy) -> None:
    while True:
        try:
            data, _ = recv_sock.recvfrom(_MAX_DATAGRAM)
        except BlockingIOError:
            return
        try:
            frame = decode(data)
        except TransportError:
            continue
        if not isinstance(frame, DataSegment):
            continue
        receiver = receivers.get(frame.flow_id)
        if receiver is None:
            continue
        ack = receiver.on_data(frame)
        try:
            recv_sock.sendto(ack, proxy.address)
        except (BlockingIOError, OSError):
            pass  # a lost ACK is just loss; the sender retransmits


def _pump_send(fr: _FlowRuntime, now_wall: float, burst: int,
               proxy_addr: tuple) -> None:
    for _ in range(burst):
        segment = fr.sender.poll_segment(now_wall)
        if segment is None:
            return
        try:
            fr.sock.sendto(segment, proxy_addr)
        except (BlockingIOError, OSError):
            return


def _event_loop(clock: WallClock, proxy: ImpairmentProxy,
                recv_sock: socket.socket,
                receivers: dict[int, ReceiverFlow],
                flows: list[_FlowRuntime], tuning: SocketTuning, *,
                end_wall: float | None,
                hard_deadline_wall: float | None = None) -> None:
    """Service sockets and timers until done.

    ``end_wall`` bounds an engine advance, which services the sockets
    at least once; with ``end_wall=None`` the loop runs until every
    (finite) sender is done — ``hard_deadline_wall`` then backstops a
    transfer that cannot complete.
    """
    sel = selectors.DefaultSelector()
    sel.register(proxy.sock, selectors.EVENT_READ, ("proxy", None))
    sel.register(recv_sock, selectors.EVENT_READ, ("recv", None))
    for fr in flows:
        sel.register(fr.sock, selectors.EVENT_READ, ("flow", fr))
    try:
        while True:
            now = clock.now_wall()
            if end_wall is None and all(fr.sender.done for fr in flows):
                return
            if hard_deadline_wall is not None and now > hard_deadline_wall:
                raise TransportStalledError(
                    f"transfer exceeded its wall deadline "
                    f"({hard_deadline_wall - clock.t0:.2f}s)")
            due = [wall for wall in (proxy.next_release_wall(), end_wall)
                   if wall is not None]
            for fr in flows:
                sender_due = fr.sender.next_due_wall()
                if sender_due is not None:
                    due.append(sender_due)
            timeout = tuning.poll_cap_wall_s
            if due:
                timeout = min(timeout, max(0.0, min(due) - now))
            for key, _ in sel.select(timeout):
                tag, fr = key.data
                if tag == "proxy":
                    proxy.on_readable()
                elif tag == "recv":
                    _drain_receiver(recv_sock, receivers, proxy)
                else:
                    _drain_acks(fr, clock)
            proxy.pump()
            now = clock.now_wall()
            for fr in flows:
                fr.sender.check_timers(now)
                _pump_send(fr, now, tuning.burst_segs, proxy.address)
            if end_wall is not None and now >= end_wall:
                return
    finally:
        sel.close()


def _validate_scenario(scenario: ScenarioConfig) -> None:
    if scenario.trace is not None:
        raise SimulationError(
            "the socket runner does not support capacity traces; "
            "run traced scenarios on the fluid engine")
    for f in scenario.flows:
        if f.start_s != 0.0 or f.end_s() < scenario.duration_s:
            raise SimulationError(
                "the socket runner requires every flow to start at t=0 "
                "and run for the whole scenario; use the fluid engine "
                "for staggered arrivals")
        if f.extra_rtt_ms != 0.0:
            raise SimulationError(
                "the socket runner shares one loopback path; "
                "RTT-heterogeneous flows stay on the simulators")


class SocketNetwork:
    """The socket datapath behind the fluid engine's batch surface:
    one UDP sender socket per flow, one impairment proxy, one receiver
    socket.  :meth:`collect_stats` folds each sender's counters and RTT
    samples into its :class:`~repro.netsim.stats.IntervalWindow`, in
    simulated packets and seconds."""

    #: Flows send from :meth:`add_flows` to :meth:`remove_flows`.
    windowed = False

    def __init__(self, link: LinkConfig, faults=None, seed: int = 0,
                 mtp_s: float = 0.030, tuning: SocketTuning | None = None):
        self._tuning = tuning = tuning if tuning is not None \
            else SocketTuning()
        self.tick_s = mtp_s
        self.pkts_per_seg = tuning.pkts_per_seg(link.capacity_pps)
        self.clock = WallClock(tuning.time_scale)
        self.core = ImpairmentLink(link, faults, seed=seed,
                                   time_scale=tuning.time_scale,
                                   pkts_per_seg=self.pkts_per_seg)
        self.proxy = ImpairmentProxy(self.core, self.clock)
        self.recv_sock = _open_udp()
        self.proxy.set_receiver(self.recv_sock.getsockname())
        self.receivers: dict[int, ReceiverFlow] = {}
        #: Every flow, by id (which is also its slot), and those polled.
        self.flows: list[_FlowRuntime] = []
        self._active: list[_FlowRuntime] = []
        self._windows: list[IntervalWindow] = []
        self._cwnd: list[float] = []
        self._pacing: list[float | None] = []
        self.now = 0.0

    def add_flows(self, specs) -> list[int]:
        """Open one stream sender per spec (``base_rtt_s``, ``cwnd_pkts``);
        the receiver checks every segment against the stream."""
        seg_bytes = self._tuning.seg_payload_bytes
        fids = []
        for spec in specs:
            fid = len(self.flows)

            def chunk(seq, fid=fid):
                return stream_chunk(fid, seq, seg_bytes)

            self._open(ReceiverFlow(fid, expected_for_seq=chunk), chunk,
                       max(1.0, spec["cwnd_pkts"] / self.pkts_per_seg))
            self._windows.append(IntervalWindow(spec["base_rtt_s"]))
            self._cwnd.append(spec["cwnd_pkts"])
            self._pacing.append(None)
            fids.append(fid)
        return fids

    def _open(self, receiver: ReceiverFlow, payload_for_seq,
              cwnd_segs: float, n_segments: int | None = None) -> SenderFlow:
        """Register one sender/receiver pair on a fresh sender socket."""
        tuning, scale = self._tuning, self.clock.scale
        fid = len(self.flows)
        self.receivers[fid] = receiver
        sender = SenderFlow(
            fid, rto=RtoEstimator(min_rto_s=tuning.min_rto_s / scale,
                                  max_rto_s=tuning.max_rto_s / scale),
            payload_for_seq=payload_for_seq, n_segments=n_segments,
            cwnd_segs=cwnd_segs, max_attempts=tuning.max_attempts,
            stall_wall_s=tuning.stall_budget_s / scale,
            fast_rtx_dupes=tuning.fast_rtx_dupes,
            now_wall=self.clock.now_wall())
        fr = _FlowRuntime(index=fid, sender=sender, sock=_open_udp())
        self.flows.append(fr)
        self._active.append(fr)
        return sender

    def remove_flows(self, fids) -> None:
        """Stop polling these flows' senders."""
        gone = set(fids)
        self._active = [fr for fr in self._active if fr.index not in gone]

    def slots(self, fids) -> np.ndarray:
        return np.array(list(fids), dtype=np.intp)

    def set_cwnds(self, slots: np.ndarray, cwnd_pkts,
                  pacing_pps=None) -> None:
        """Apply one decision per flow, in segments and wall seconds;
        all-or-nothing like the fluid engine's."""
        check_decisions(cwnd_pkts, pacing_pps, lambda k: slots[k])
        pps, scale = self.pkts_per_seg, self.clock.scale
        pacing_pps = [math.inf] * len(slots) if pacing_pps is None \
            else np.asarray(pacing_pps, dtype=float).tolist()
        for slot, cwnd, pacing in zip(
                slots.tolist(), np.asarray(cwnd_pkts, dtype=float).tolist(),
                pacing_pps):
            fr = self.flows[slot]
            pacing = None if pacing == math.inf else pacing
            self._cwnd[slot] = cwnd
            self._pacing[slot] = pacing
            fr.sender.cwnd_segs = max(1.0, cwnd / pps)
            fr.sender.pace_gap_wall = pps / (pacing * scale) if pacing \
                else None

    def collect_stats(self, slots: np.ndarray, now: float) -> MtpColumns:
        """Close the flows' interval windows at ``now``."""
        pps, scale = self.pkts_per_seg, self.clock.scale
        rows = []
        for slot in slots.tolist():
            sender, window = self.flows[slot].sender, self._windows[slot]
            sent, delivered, lost, samples = sender.take_window()
            window.add(sent * pps, delivered * pps, lost * pps)
            for sample in samples:
                window.observe_rtt(sample * scale)
            rows.append(window.close(now, sender.inflight_segs * pps,
                                     self._cwnd[slot], self._pacing[slot]))
        return MtpColumns.of(now, rows)

    def instants(self, slots: np.ndarray) -> float:
        """Every flow stands at a decision instant after an advance."""
        return self.now

    def advance_to(self, t: float) -> None:
        """Poll the event loop until the simulated clock reaches ``t``."""
        clock = self.clock
        _event_loop(clock, self.proxy, self.recv_sock, self.receivers,
                    self._active, self._tuning,
                    end_wall=clock.t0 + t / clock.scale)
        self.now = clock.sim_at(clock.now_wall())

    def close(self) -> None:
        self.proxy.close()
        self.recv_sock.close()
        for fr in self.flows:
            fr.sock.close()


def run_scenario_socket_report(
        scenario: ScenarioConfig,
        controllers: list[CongestionController | None] | None = None, *,
        tuning: SocketTuning | None = None,
) -> tuple[ScenarioResult, SocketRunReport]:
    """Run a scenario over real loopback sockets; result + datapath report.

    ``controllers`` optionally injects pre-built instances, index-aligned
    with ``scenario.flows`` (``None`` entries are created from the
    registry), matching the other engine runners.
    """
    _validate_scenario(scenario)
    net = SocketNetwork(scenario.link, scenario.faults, seed=scenario.seed,
                        mtp_s=scenario.mtp_s, tuning=tuning)
    try:
        result = build_driver(scenario, controllers, engine=net).run()
        wall_s = net.clock.now_wall() - net.clock.t0
    finally:
        net.close()
    report = SocketRunReport(
        wall_s=wall_s,
        sim_s=scenario.duration_s,
        time_scale=net.clock.scale,
        pkts_per_seg=net.pkts_per_seg,
        flows=tuple({
            "flow": fr.index,
            "cc": scenario.flows[fr.index].cc,
            "sent_segs": fr.sender.sent_segs,
            "delivered_segs": net.receivers[fr.index].delivered_segs,
            "retransmits": fr.sender.retransmits,
            "fast_retransmits": fr.sender.fast_retransmits,
            "rto_timeouts": fr.sender.rto_timeouts,
            "duplicates": net.receivers[fr.index].duplicates,
            "corrupt": net.receivers[fr.index].corrupt,
        } for fr in net.flows),
        proxy_drops=dict(net.core.drops),
        proxy_reordered=net.core.reordered,
        proxy_malformed=net.proxy.malformed,
    )
    return result, report


def run_scenario_socket(
        scenario: ScenarioConfig,
        controllers: list[CongestionController | None] | None = None, *,
        tuning: SocketTuning | None = None) -> ScenarioResult:
    """Run a scenario on the socket engine (third-engine dispatch entry).

    Same contract as :func:`~repro.env.multiflow.run_scenario_packet`;
    use :func:`run_scenario_socket_report` when the datapath accounting
    (retransmits, duplicates, content integrity) is needed too.
    """
    result, _ = run_scenario_socket_report(scenario, controllers,
                                           tuning=tuning)
    return result


def transfer_payload(payload: bytes, *, link: LinkConfig | None = None,
                     faults=None, seed: int = 0,
                     tuning: SocketTuning | None = None,
                     cwnd_segs: float = 16.0,
                     max_wall_s: float = 30.0,
                     ) -> tuple[bytes, TransferReport]:
    """Push ``payload`` across the impaired loopback path and reassemble.

    Returns the received bytes (the reliability contract: equal to
    ``payload``, every byte exactly once, in order) plus a
    :class:`TransferReport`.  Raises
    :class:`~repro.errors.TransportStalledError` when the retry budget
    or the wall deadline is exhausted (e.g. a blackout outlasting every
    retransmission attempt).
    """
    # The default path is deliberately over-buffered (4 BDP): a fixed
    # ``cwnd_segs`` has no controller backing off, so the clean-link
    # baseline should see no congestion drops of its own making.
    link = link if link is not None else LinkConfig(bandwidth_mbps=8.0,
                                                    rtt_ms=20.0,
                                                    buffer_bdp=4.0)
    tuning = tuning if tuning is not None else SocketTuning()
    scale = tuning.time_scale
    seg_bytes = tuning.seg_payload_bytes
    chunks = [payload[i:i + seg_bytes]
              for i in range(0, len(payload), seg_bytes)]
    if not chunks:
        report = TransferReport(n_segments=0, delivered_bytes=0,
                                retransmits=0, fast_retransmits=0,
                                rto_timeouts=0, duplicates=0, wall_s=0.0,
                                srtt_s=None)
        return b"", report
    net = SocketNetwork(link, faults, seed=seed, tuning=tuning)
    receiver = ReceiverFlow(0, capture=True)
    try:
        sender = net._open(receiver, lambda seq: chunks[seq], cwnd_segs,
                           n_segments=len(chunks))
        _event_loop(net.clock, net.proxy, net.recv_sock, net.receivers,
                    net.flows, tuning, end_wall=None,
                    hard_deadline_wall=net.clock.t0 + max_wall_s)
        wall_s = net.clock.now_wall() - net.clock.t0
    finally:
        net.close()
    data = b"".join(receiver.chunks)
    report = TransferReport(
        n_segments=len(chunks),
        delivered_bytes=len(data),
        retransmits=sender.retransmits,
        fast_retransmits=sender.fast_retransmits,
        rto_timeouts=sender.rto_timeouts,
        duplicates=receiver.duplicates,
        wall_s=wall_s,
        srtt_s=None if sender.rto.srtt_s is None
        else sender.rto.srtt_s * scale,
    )
    return data, report
