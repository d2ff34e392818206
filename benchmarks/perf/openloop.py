"""Open-loop load generation over the daemon's documented wire protocol.

One thread, a handful of non-blocking sockets.  Every flow is *due* once
per monitoring period at a fixed offset, whether or not its previous
request was answered: a slow server keeps receiving the offered rate and
its queue shows, instead of the generator slowing down with it
(coordinated omission — the legacy closed-loop ``bench serve`` reported
p50 133 ms with "0 deadline misses" that way).  Latency is measured from
the time a request was *due*, so a generator that runs late charges its
own lateness to the result rather than hiding it, and reports that
lateness separately.

The module knows the framing (4-byte big-endian length + JSON body) and
nothing else about the program; frames are made by the caller with the
program's own ``encode_frame`` and spliced here with per-request ids.
"""

from __future__ import annotations

import json
import select
import struct
import time
from dataclasses import dataclass, field

_HEADER = struct.Struct(">I")

#: Request ids are spliced into pre-encoded frames, so every id must
#: print with the same number of digits.
ID_BASE = 1_000_000
ID_LIMIT = 10_000_000

UNANSWERED, OK, ERROR = 0, 1, 2


def frame_template(encode_frame, flow: int, state: list) -> tuple:
    """``(prefix, suffix)`` such that ``prefix + b"%d" % id + suffix`` is
    the ``act`` frame ``encode_frame`` would produce for that id."""
    frame = encode_frame({"id": ID_BASE, "op": "act", "flow": flow,
                          "state": state})
    at = frame.index(b'"id":%d' % ID_BASE) + len(b'"id":')
    return frame[:at], frame[at + len(str(ID_BASE)):]


def call(sock, frame: bytes, timeout_s: float = 10.0) -> dict:
    """One request/response on a socket with nothing else in flight."""
    deadline = time.monotonic() + timeout_s
    view = memoryview(frame)
    while view:
        _, writable, _ = select.select([], [sock], [],
                                       max(0.0, deadline - time.monotonic()))
        if not writable:
            raise TimeoutError("daemon did not accept the request")
        view = view[sock.send(view):]
    buf = bytearray()
    while True:
        if len(buf) >= 4:
            (length,) = _HEADER.unpack_from(buf)
            if len(buf) >= 4 + length:
                return json.loads(bytes(buf[4:4 + length]))
        readable, _, _ = select.select([sock], [], [],
                                       max(0.0, deadline - time.monotonic()))
        if not readable:
            raise TimeoutError("daemon did not answer")
        data = sock.recv(1 << 16)
        if not data:
            raise ConnectionError("daemon closed the connection")
        buf += data


@dataclass
class PhaseResult:
    """Ledger of one open-loop phase, indexed by request order."""

    scheduled: int
    #: First due time to phase end, including the wait for stragglers.
    wall_s: float
    gen_cpu_s: float
    #: When each request was due, seconds from the first due time.
    due_s: list[float] = field(default_factory=list)
    #: How late the generator handed each request to its socket, ms.
    late_ms: list[float] = field(default_factory=list)
    #: Reply time minus due time, ms (meaningless while UNANSWERED).
    latency_ms: list[float] = field(default_factory=list)
    status: bytearray = field(default_factory=bytearray)
    connection_lost: bool = False

    def count(self, status: int) -> int:
        return self.status.count(status)

    def ok_latencies_ms(self) -> list[float]:
        return [lat for lat, st in zip(self.latency_ms, self.status)
                if st == OK]


def run_phase(socks, templates, offsets_s, *, mtp_s: float,
              duration_s: float, first_id: int, grace_s: float = 1.0,
              clock=time.perf_counter) -> PhaseResult:
    """Offer ``len(templates)`` flows x ``duration_s / mtp_s`` periods.

    Flow ``f`` (frame ``templates[f]``, socket ``f % len(socks)``) is due
    at ``start + k * mtp_s + offsets_s[f]`` for every period ``k``; the
    sockets are connected and non-blocking, with nothing in flight.  The
    phase ends when every request is answered, or ``grace_s`` after the
    last due time; what is still open then is UNANSWERED.
    """
    order = sorted(range(len(templates)), key=lambda f: offsets_s[f])
    n_flows = len(order)
    periods = max(1, round(duration_s / mtp_s))
    total = periods * n_flows
    if first_id < ID_BASE or first_id + total > ID_LIMIT:
        raise ValueError("request ids would change width mid-phase")

    poller = select.poll()
    index_of_fd = {}
    for j, sock in enumerate(socks):
        poller.register(sock, select.POLLIN)
        index_of_fd[sock.fileno()] = j
    out = [bytearray() for _ in socks]
    inbuf = [bytearray() for _ in socks]
    result = PhaseResult(scheduled=total, wall_s=0.0, gen_cpu_s=0.0,
                         latency_ms=[0.0] * total,
                         status=bytearray(total))
    due_s, late_ms = result.due_s, result.late_ms
    latency_ms, status = result.latency_ms, result.status
    loads, unpack_from = json.loads, _HEADER.unpack_from

    cpu0 = time.process_time()
    start = clock() + 0.05
    sent = answered = period = slot = 0
    due = start + offsets_s[order[0]]
    last_due = start + (periods - 1) * mtp_s + offsets_s[order[-1]]
    while True:
        now = clock()
        while sent < total and due <= now:
            flow = order[slot]
            prefix, suffix = templates[flow]
            buf = out[flow % len(socks)]
            buf += prefix
            buf += b"%d" % (first_id + sent)
            buf += suffix
            due_s.append(due - start)
            late_ms.append((now - due) * 1e3)
            sent += 1
            slot += 1
            if slot == n_flows:
                slot, period = 0, period + 1
            if sent < total:
                due = start + period * mtp_s + offsets_s[order[slot]]
        backlog = False
        for j, buf in enumerate(out):
            if buf:
                try:
                    del buf[:socks[j].send(buf)]
                except BlockingIOError:
                    pass
                except ConnectionError:
                    result.connection_lost = True
                backlog = backlog or bool(buf)
        if sent == total:
            if answered == total or now > last_due + grace_s:
                break
            wait_s = 0.005
        else:
            wait_s = due - clock()
        if backlog:
            wait_s = min(wait_s, 0.001)
        for fd, _event in poller.poll(max(0.0, wait_s * 1e3)):
            j = index_of_fd[fd]
            try:
                data = socks[j].recv(1 << 18)
            except BlockingIOError:
                continue
            except ConnectionError:
                data = b""
            received = clock()
            if not data:
                result.connection_lost = True
                break
            buf = inbuf[j]
            buf += data
            pos, size = 0, len(buf)
            while size - pos >= 4:
                (length,) = unpack_from(buf, pos)
                end = pos + 4 + length
                if end > size:
                    break
                reply = loads(bytes(buf[pos + 4:end]))
                pos = end
                rid = reply.get("id")
                i = rid - first_id if isinstance(rid, int) else -1
                if 0 <= i < sent and status[i] == UNANSWERED:
                    status[i] = OK if reply.get("ok") else ERROR
                    latency_ms[i] = (received - start - due_s[i]) * 1e3
                    answered += 1
            del buf[:pos]
        if result.connection_lost:
            break
    result.wall_s = clock() - start
    result.gen_cpu_s = time.process_time() - cpu0
    for sock in socks:
        poller.unregister(sock)
    return result
