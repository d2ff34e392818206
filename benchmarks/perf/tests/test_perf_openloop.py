"""The generator is open-loop: a server stall shows in the latency of
every request that was *due* during the stall, not just one per flow."""

import json
import select
import socket
import struct
import threading
import time

import openloop

HEADER = struct.Struct(">I")


def encode_frame(obj: dict) -> bytes:
    body = json.dumps(obj, separators=(",", ":")).encode()
    return HEADER.pack(len(body)) + body


class FakeServer(threading.Thread):
    """Answers every ``act`` frame at once — except that ``stall_at_s``
    after its first frame it stops reading and writing for ``stall_s``.
    ``drop_every`` silently drops every n-th request."""

    def __init__(self, stall_at_s=None, stall_s=0.0, drop_every=0):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.addr = self.listener.getsockname()
        self.stall_at_s, self.stall_s = stall_at_s, stall_s
        self.drop_every = drop_every
        self.stop = threading.Event()
        self.stalled_at = None      # time.perf_counter() of the stall

    def run(self):
        conns, buffers, seen, first = [], {}, 0, None
        stalled = self.stall_at_s is None
        while not self.stop.is_set():
            ready, _, _ = select.select([self.listener] + conns, [], [], 0.01)
            if not stalled and first is not None \
                    and time.perf_counter() - first >= self.stall_at_s:
                stalled = True
                self.stalled_at = time.perf_counter()
                time.sleep(self.stall_s)
                continue
            for sock in ready:
                if sock is self.listener:
                    conn, _ = self.listener.accept()
                    conns.append(conn)
                    buffers[conn] = bytearray()
                    continue
                data = sock.recv(1 << 16)
                if not data:
                    conns.remove(sock)
                    continue
                first = first or time.perf_counter()
                buf = buffers[sock]
                buf += data
                out = bytearray()
                while len(buf) >= 4:
                    (n,) = HEADER.unpack_from(buf)
                    if len(buf) < 4 + n:
                        break
                    request = json.loads(bytes(buf[4:4 + n]))
                    del buf[:4 + n]
                    seen += 1
                    if self.drop_every and seen % self.drop_every == 0:
                        continue
                    out += encode_frame({"id": request["id"], "ok": True,
                                         "action": 0.0})
                sock.sendall(out)
        for conn in conns:
            conn.close()
        self.listener.close()


def connect(addr, n=2):
    socks = []
    for _ in range(n):
        sock = socket.create_connection(addr)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks.append(sock)
    return socks


def templates(n_flows):
    return [openloop.frame_template(encode_frame, f, [0.5] * 8)
            for f in range(n_flows)]


def test_template_splices_to_the_encoded_frame():
    prefix, suffix = openloop.frame_template(encode_frame, 3, [1.0, 2.0])
    rid = openloop.ID_BASE + 4321
    assert prefix + b"%d" % rid + suffix == encode_frame(
        {"id": rid, "op": "act", "flow": 3, "state": [1.0, 2.0]})


def test_stall_is_charged_to_every_request_due_during_it():
    n_flows, mtp_s, stall_s = 20, 0.010, 0.200
    server = FakeServer(stall_at_s=0.40, stall_s=stall_s)
    server.start()
    socks = connect(server.addr)
    try:
        t0 = time.perf_counter()
        result = openloop.run_phase(
            socks, templates(n_flows),
            [mtp_s * f / n_flows for f in range(n_flows)],
            mtp_s=mtp_s, duration_s=1.0, first_id=openloop.ID_BASE)
    finally:
        server.stop.set()
        server.join(timeout=5.0)
        for sock in socks:
            sock.close()
    assert not server.is_alive()
    assert result.scheduled == 2000
    assert result.count(openloop.OK) == 2000
    # The generator kept its schedule through the stall ...
    assert max(result.late_ms) < 50.0
    # ... so every request due in the stall's first 150 ms waited at
    # least the 50 ms that were left of it: 0.15 s x 2000/s = 300
    # requests.  A closed loop would have shown one per flow (20).
    slow = [lat for lat in result.latency_ms if lat >= 50.0]
    assert len(slow) >= 250, len(slow)
    assert max(result.latency_ms) >= 150.0
    # Requests are timed from when they were due: the earlier in the
    # stall a request was due, the longer it waited.
    stall_start = server.stalled_at - t0 - 0.05    # phase starts 50 ms in
    during = [(due, lat) for due, lat in zip(result.due_s, result.latency_ms)
              if stall_start + 0.02 <= due <= stall_start + 0.10]
    assert len(during) >= 100
    for due, lat in during:
        expected = (stall_start + stall_s - due) * 1e3
        assert lat >= expected - 30.0, (due, lat, expected)


def test_dropped_requests_are_counted_unanswered():
    server = FakeServer(drop_every=10)
    server.start()
    socks = connect(server.addr)
    try:
        result = openloop.run_phase(
            socks, templates(10), [0.001 * f for f in range(10)],
            mtp_s=0.010, duration_s=0.5, first_id=openloop.ID_BASE,
            grace_s=0.2)
    finally:
        server.stop.set()
        server.join(timeout=5.0)
        for sock in socks:
            sock.close()
    assert result.scheduled == 500
    assert result.count(openloop.UNANSWERED) == 50
    assert result.count(openloop.OK) == 450
    assert len(result.ok_latencies_ms()) == 450


def test_ids_must_keep_their_width():
    import pytest

    with pytest.raises(ValueError):
        openloop.run_phase([], templates(1), [0.0], mtp_s=0.01,
                           duration_s=0.01, first_id=openloop.ID_LIMIT)
