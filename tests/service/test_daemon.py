"""Asyncio serving daemon: framing, batching, admission, drain."""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policy import PolicyBundle, new_actor
from repro.errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    InvalidStateError,
    ProtocolError,
    ServiceError,
)
from repro.service.daemon import _ok_frame, _ServerConnection
from repro.service import (
    BatchedInferenceService,
    InferenceDaemon,
    ServiceClient,
    analytic_fallback_action,
    decode_body,
    encode_frame,
    read_frame,
    shard_for_flow,
)

WINDOW = 0.002


@pytest.fixture(scope="module")
def bundle():
    return PolicyBundle(actor=new_actor(seed=11))


def run(coro):
    return asyncio.run(coro)


def make_daemon(bundle, **kwargs):
    service_kwargs = {"batch_window_s": WINDOW}
    for key in ("deadline_s", "fallback", "batch_window_s"):
        if key in kwargs:
            service_kwargs[key] = kwargs.pop(key)
    service = BatchedInferenceService(bundle, **service_kwargs)
    return InferenceDaemon(service, **kwargs)


class daemon_and_client:
    """Async context: daemon on an ephemeral port + connected client."""

    def __init__(self, bundle, conns_per_shard=2, **kwargs):
        self.daemon = make_daemon(bundle, **kwargs)
        self._conns = conns_per_shard

    async def __aenter__(self):
        port = await self.daemon.start("127.0.0.1", 0)
        self.client = ServiceClient([("127.0.0.1", port)],
                                    conns_per_shard=self._conns)
        return self.daemon, self.client

    async def __aexit__(self, *exc):
        await self.client.aclose()
        self.daemon.request_shutdown()
        await self.daemon.drain()
        return False


class TestFraming:
    def test_round_trip(self):
        # An int entry keeps an ``act`` in the JSON form.
        body = {"op": "act", "id": 3, "state": [0, 1.5]}
        frame = encode_frame(body)
        length = struct.unpack(">I", frame[:4])[0]
        assert length == len(frame) - 4
        assert frame[4:5] == b"{"
        assert decode_body(frame[4:]) == body

    @pytest.mark.parametrize("state", [
        [0.0, 1.5], (-0.0, 5e-324, float("inf")), np.array([2.0, -3.0]),
        np.array([0.25, 1e30], dtype=np.float32), []])
    def test_binary_round_trip(self, state):
        frame = encode_frame({"op": "act", "id": "a", "flow": 7,
                              "state": state})
        assert struct.unpack(">I", frame[:4])[0] == len(frame) - 4
        assert frame[4:5] == b"\x00"
        body = decode_body(frame[4:])
        decoded = body.pop("state")
        assert body == {"op": "act", "id": "a", "flow": 7}
        assert decoded.dtype == np.float64
        assert decoded.tobytes() == np.asarray(state, dtype=float).tobytes()

    @pytest.mark.parametrize("state", [
        [1.0, 2], [1.0, True], [1.0, "x"], [[1.0]], [1.0, 10**400]])
    def test_other_states_keep_the_json_form(self, state):
        """Only floats go binary: the daemon's refusal of an ill-typed
        state reads as it did."""
        frame = encode_frame({"op": "act", "id": 1, "state": state})
        assert frame[4:5] == b"{"
        with pytest.raises(TypeError):      # and an array is no JSON
            encode_frame({"op": "act", "id": 1,
                          "state": np.array(state, dtype=object)})

    def test_act_frames_differ_only_in_the_id_digits(self):
        """The open-loop harness splices ids into one encoded frame: the
        id is header text, and no length field depends on it."""
        state = [float(v) for v in np.random.default_rng(0).normal(size=40)]
        a, b = (encode_frame({"id": rid, "op": "act", "flow": 12,
                              "state": state})
                for rid in (1_000_000, 9_876_543))
        at = a.index(b"1000000")
        assert len(a) == len(b) and a[:at] == b[:at]
        assert b[at:at + 7] == b"9876543" and a[at + 7:] == b[at + 7:]
        assert a[at - 5:at] == b'"id":'

    def test_decode_garbage_raises_typed(self):
        with pytest.raises(ProtocolError):
            decode_body(b"\xff\xfenot json")
        with pytest.raises(ProtocolError):
            decode_body(b"[1, 2, 3]")  # not an object

    def test_oversize_frame_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_frame({"state": [0.0] * (1 << 19)})

    def test_read_frame_concatenated_stream(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(encode_frame({"a": 1}) +
                             encode_frame({"b": 2}))
            reader.feed_eof()
            first = decode_body(await read_frame(reader))
            second = decode_body(await read_frame(reader))
            third = await read_frame(reader)
            return first, second, third

        first, second, third = run(scenario())
        assert (first, second, third) == ({"a": 1}, {"b": 2}, None)

    def test_decode_pathological_json_raises_typed(self):
        # Neither is a JSONDecodeError: the integer digit limit is a
        # plain ValueError, the nesting a RecursionError.
        with pytest.raises(ProtocolError):
            decode_body(b'{"id":' + b"9" * 5000 + b"}")
        with pytest.raises(ProtocolError):
            decode_body(b"[" * 200_000)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.floats(min_value=-0.999, max_value=0.999)),
           st.one_of(st.integers(), st.integers(1_000_000, 9_999_999),
                     st.booleans(), st.none(), st.text(),
                     st.floats(allow_nan=False)))
    def test_ok_reply_bytes_equal_encode_frame(self, action, request_id):
        """The directly formatted ``ok`` reply is ``encode_frame``'s,
        byte for byte, for int and non-int ids alike."""
        assert _ok_frame(action, request_id) == encode_frame(
            {"ok": True, "action": action, "id": request_id})

    def test_read_frame_bad_length_prefix(self):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 1 << 30) + b"junk")
            with pytest.raises(ProtocolError):
                await read_frame(reader)

        run(scenario())


class TestSharding:
    def test_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            shards = [shard_for_flow(fid, n) for fid in range(1000)]
            assert shards == [shard_for_flow(fid, n) for fid in range(1000)]
            assert all(0 <= s < n for s in shards)

    def test_covers_all_shards(self):
        assert set(shard_for_flow(fid, 4) for fid in range(1000)) == \
            {0, 1, 2, 3}

    def test_rejects_zero_shards(self):
        with pytest.raises(ServiceError):
            shard_for_flow(1, 0)


class TestActRoundTrip:
    def test_action_matches_bundle(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (_, client):
                state = np.full(bundle.actor.in_dim, 0.25)
                return await client.act(0, state, timeout=5)

        action = run(scenario())
        assert action == pytest.approx(
            bundle.act(np.full(bundle.actor.in_dim, 0.25)), abs=1e-9)

    def test_concurrent_flows_batched(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (daemon, client):
                zeros = np.zeros(bundle.actor.in_dim)
                outs = await asyncio.gather(*[
                    client.act(fid, zeros, timeout=5)
                    for fid in range(24)])
                return outs, daemon.service.accounting

        outs, accounting = run(scenario())
        assert len(outs) == 24
        assert accounting.requests == 24
        # Many requests per batching window -> far fewer passes.
        assert accounting.forward_passes < 24
        assert accounting.batch_max > 1

    def test_concurrent_clients(self, bundle):
        async def scenario():
            daemon = make_daemon(bundle)
            port = await daemon.start("127.0.0.1", 0)
            clients = [ServiceClient([("127.0.0.1", port)])
                       for _ in range(3)]
            zeros = np.zeros(bundle.actor.in_dim)
            outs = await asyncio.gather(*[
                client.act(fid, zeros, timeout=5)
                for client in clients for fid in range(8)])
            stats = await clients[0].stats(timeout=5)
            for client in clients:
                await client.aclose()
            daemon.request_shutdown()
            await daemon.drain()
            return outs, stats, daemon

        outs, stats, daemon = run(scenario())
        assert len(outs) == 24
        assert stats["counters"]["requests"] == 24
        assert daemon.counters["connections"] >= 3
        assert stats["latency"]["count"] == 24

    def test_latency_histogram_records_window_wait(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (daemon, client):
                await client.act(0, np.zeros(bundle.actor.in_dim),
                                 timeout=5)
                return daemon.latency.summary()

        summary = run(scenario())
        assert summary["count"] == 1
        # Service latency includes the batching-window wait.
        assert summary["p50_s"] >= WINDOW * 0.5


class TestProtocolHardening:
    def test_malformed_body_rejected_connection_survives(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (daemon, _):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port)
                garbage = b"{not json!"
                writer.write(struct.pack(">I", len(garbage)) + garbage)
                await writer.drain()
                reject = decode_body(await read_frame(reader))
                # Same connection must still serve valid frames.
                writer.write(encode_frame({"op": "ping", "id": 9}))
                await writer.drain()
                pong = decode_body(await read_frame(reader))
                writer.close()
                await writer.wait_closed()
                return reject, pong, daemon.counters

        reject, pong, counters = run(scenario())
        assert reject["ok"] is False
        assert reject["error"] == "ProtocolError"
        assert pong == {"id": 9, "ok": True, "op": "ping"}
        assert counters["protocol_errors"] == 1

    def test_bad_length_prefix_closes_only_that_connection(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (daemon, client):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port)
                writer.write(struct.pack(">I", 1 << 31) + b"x" * 8)
                await writer.drain()
                reject = decode_body(await read_frame(reader))
                eof = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                # The daemon itself is unharmed.
                action = await client.act(
                    0, np.zeros(bundle.actor.in_dim), timeout=5)
                return reject, eof, action

        reject, eof, action = run(scenario())
        assert reject["error"] == "ProtocolError"
        assert eof is None
        assert np.isfinite(action)

    def test_reply_larger_than_a_frame_is_one_clients_problem(
            self, bundle):
        """The echoed id re-encodes larger than it arrived (``\\u20ac``
        for a 3-byte euro sign), so a legal request can have an illegal
        reply.  That request gets a typed reject naming no id; the rest
        of its window is served and the daemon still drains."""
        zeros = [0.0] * bundle.actor.in_dim
        huge_id = "€" * 200_000           # 600 kB in, 1.2 MB out

        def raw_frame(body):
            data = json.dumps(body, ensure_ascii=False).encode("utf-8")
            assert len(data) < (1 << 20)
            return struct.pack(">I", len(data)) + data

        async def scenario():
            daemon = make_daemon(bundle, batch_window_s=0.05)
            port = await daemon.start("127.0.0.1", 0)
            client = ServiceClient([("127.0.0.1", port)])
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(raw_frame({"op": "ping", "id": huge_id})
                         + raw_frame({"op": "act", "id": huge_id,
                                      "state": zeros})
                         + encode_frame({"op": "act", "id": 7,
                                         "state": zeros}))
            await writer.drain()
            while daemon.service.accounting.requests < 2:
                await asyncio.sleep(0.0005)
            action = await client.act(0, zeros, timeout=5)
            replies = [decode_body(await read_frame(reader))
                       for _ in range(3)]
            again = await client.act(1, zeros, timeout=5)    # a later window
            writer.close()
            await writer.wait_closed()
            await client.aclose()
            await asyncio.wait_for(daemon.drain(), timeout=5)
            return action, again, replies, daemon.stats()

        action, again, replies, stats = run(
            asyncio.wait_for(scenario(), timeout=30))
        assert np.isfinite(action) and again == action
        for reject in replies[:2]:                  # the ping, the act
            assert reject["id"] is None
            assert reject["error"] == "ProtocolError"
            assert "exceeds" in reject["message"]
        assert replies[2]["id"] == 7 and replies[2]["action"] == action
        assert stats["counters"]["daemon_protocol_errors"] == 2
        assert stats["counters"]["daemon_inflight"] == 0
        assert stats["latency"]["count"] == 4

    def test_integer_too_large_for_a_float_is_one_rows_reject(
            self, bundle):
        """JSON reads a 401-digit integer that no float can hold.  That
        row is refused with a typed ``InvalidStateError``; the ``act``
        read with it is served and the connection stays open."""
        zeros = [0.0] * bundle.actor.in_dim

        async def scenario():
            async with daemon_and_client(bundle) as (daemon, client):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port)
                writer.write(
                    encode_frame({"op": "act", "id": 1,
                                  "state": [10**400] + zeros[1:]})
                    + encode_frame({"op": "act", "id": 2, "state": zeros}))
                await writer.drain()
                replies = [await read_frame(reader) for _ in range(2)]
                writer.write(encode_frame({"op": "ping", "id": 3}))
                await writer.drain()
                pong = await read_frame(reader)
                writer.close()
                await writer.wait_closed()
                action = await client.act(0, zeros, timeout=5)
                return replies, pong, action, daemon.stats()["counters"]

        replies, pong, action, counters = run(scenario())
        assert None not in replies and pong is not None, \
            "the daemon dropped the connection"
        reject, served = (decode_body(r) for r in replies)
        assert reject == {
            "id": 1, "ok": False, "error": "InvalidStateError",
            "message": "state entry too large for a float (int too large "
                       "to convert to float)"}
        assert served == {"ok": True, "action": action, "id": 2}
        assert decode_body(pong) == {"id": 3, "ok": True, "op": "ping"}
        assert (counters["rejected"], counters["requests"]) == (1, 2)

    def test_unknown_op_and_missing_state_rejected(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (daemon, _):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", daemon.port)
                writer.write(encode_frame({"op": "explode", "id": 1}))
                writer.write(encode_frame({"op": "act", "id": 2}))
                await writer.drain()
                first = decode_body(await read_frame(reader))
                second = decode_body(await read_frame(reader))
                writer.close()
                await writer.wait_closed()
                return first, second

        first, second = run(scenario())
        assert first["error"] == "ProtocolError" and first["id"] == 1
        assert second["error"] == "ProtocolError" and second["id"] == 2

    def test_wrong_dim_state_typed_reject(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (_, client):
                with pytest.raises(InvalidStateError):
                    await client.act(0, [1.0, 2.0, 3.0], timeout=5)

        run(scenario())

    def test_nonfinite_state_without_fallback_typed_reject(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (daemon, client):
                bad = [float("nan")] * bundle.actor.in_dim
                with pytest.raises(InvalidStateError):
                    await client.act(0, bad, timeout=5)
                # Healthy traffic continues.
                ok = await client.act(1, np.zeros(bundle.actor.in_dim),
                                      timeout=5)
                return ok, daemon.service.accounting.rejected

        ok, rejected = run(scenario())
        assert np.isfinite(ok)
        assert rejected == 1


class FakeTransport:
    """What ``_ServerConnection`` uses of a transport, recorded."""

    def __init__(self):
        self.written = bytearray()
        self.writes = 0
        self.closed = False

    def write(self, data):
        assert not self.closed
        self.written += data
        self.writes += 1

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def replies(self):
        return split_replies(self.written)


def split_replies(written):
    """The JSON reply frames of a byte stream, parsed."""
    out, pos = [], 0
    while pos < len(written):
        (length,) = struct.unpack_from(">I", written, pos)
        out.append(json.loads(written[pos + 4:pos + 4 + length]))
        pos += 4 + length
    return out


class Clock:
    """The daemon's clock, set by hand: every read of one delivery and
    the flush happen at chosen instants."""

    def __init__(self):
        self.t = 0.0

    def time(self):
        return self.t


#: ``deliver``'s service deadline, its read instants and its flush.
DEADLINE, READ_AT, FLUSH_AT = 0.5, 0.9, 1.0
OTHER_STATE = [0.5] * 40


def deliver(bundle, chunks, fallback=None, overdue_other=False):
    """Feed ``chunks`` to one connection of a fresh daemon as successive
    reads, serve one window, and return what that connection and an
    untouched second connection were sent.  The second connection's
    one ``act`` is read first; with ``overdue_other`` it is read long
    enough before the flush to miss the deadline."""
    mine, closed, other, counters = deliver_bytes(bundle, chunks, fallback,
                                                  overdue_other)
    return split_replies(mine), closed, split_replies(other), counters


def deliver_bytes(bundle, chunks, fallback=None, overdue_other=False,
                  read_at=READ_AT):
    """:func:`deliver`, returning the bytes each connection was sent;
    ``chunks`` are read at ``read_at``."""

    async def scenario():
        daemon = make_daemon(bundle, deadline_s=DEADLINE, fallback=fallback)
        await daemon.start("127.0.0.1", 0)
        daemon._loop = clock = Clock()
        transports = FakeTransport(), FakeTransport()
        conns = [_ServerConnection(daemon) for _ in transports]
        for conn, transport in zip(conns, transports):
            conn.connection_made(transport)
        clock.t = 0.0 if overdue_other else READ_AT
        conns[1].data_received(encode_frame(
            {"op": "act", "id": "other", "state": OTHER_STATE}))
        clock.t = read_at
        for chunk in chunks:
            if transports[0].closed:
                break           # a closed transport reads no more
            conns[0].data_received(chunk)
        clock.t = FLUSH_AT
        daemon._flush_once()
        for conn in conns:
            conn.connection_lost(None)
        await daemon.drain()
        counters = {**daemon.counters,
                    **daemon.service.accounting.counters()}
        del counters["cpu_time_s"]
        return (bytes(transports[0].written), transports[0].closed,
                bytes(transports[1].written), counters)

    return run(scenario())


#: An id whose reply outgrows the frame cap: 3 bytes in, 6 out.
HUGE_ID = "\u20ac" * 180_000


def _frames(in_dim):
    """Frames as ``(bytes, kind, id, state)``: every kind of row the
    window sorts at the flush, and the frames answered at read time."""
    request_id = st.one_of(st.integers(0, 10**7), st.text(max_size=5))
    finite = st.lists(st.floats(-5.0, 5.0), min_size=in_dim,
                      max_size=in_dim)

    def poison(state, at, value):
        state = list(state)
        state[at % in_dim] = value
        return state

    state = st.one_of(
        finite, finite,
        st.builds(poison, finite, st.integers(0, in_dim - 1),
                  st.sampled_from([float("nan"), float("inf"),
                                   float("-inf")])),
        st.builds(poison, finite, st.integers(0, in_dim - 1),
                  st.sampled_from(["x", None, True, 10**400, [1.0],
                                   {"a": 1}])),
        st.sampled_from([[1.0, 2.0], [0.0] * (in_dim + 1)]))

    def act(i, s):
        return (encode_frame({"op": "act", "id": i, "state": s}),
                "act", i, s)

    def raw(body):
        return (struct.pack(">I", len(body)) + body, "raw", None, body)

    def huge(op):
        body = {"op": op, "id": HUGE_ID}
        if op == "act":
            body["state"] = [0.0] * in_dim
        data = json.dumps(body, ensure_ascii=False).encode("utf-8")
        return (struct.pack(">I", len(data)) + data, op, HUGE_ID,
                body.get("state"))

    return st.one_of(
        st.builds(act, request_id, state),
        st.builds(lambda i: (encode_frame({"op": "ping", "id": i}),
                             "ping", i, None), request_id),
        st.sampled_from([b"{not json!", b"[1,2,3]", b"\xff\xfe",
                         b'{"op":"explode","id":4}',
                         b'{"op":"act","id":5}']).map(raw),
        st.sampled_from(["act", "ping"]).map(huge))


def _reply(body):
    """What the daemon sends for ``body``: the reply, or the reject of
    one over the frame cap."""
    try:
        return decode_body(encode_frame(body)[4:])
    except ProtocolError as exc:
        return {"id": None, "ok": False, "error": "ProtocolError",
                "message": str(exc)}


def _error(exc, request_id):
    name = type(exc).__name__
    if name not in ("InvalidStateError", "DeadlineExceededError",
                    "AdmissionRejectedError", "ProtocolError"):
        name = "ServiceError"
    return _reply({"id": request_id, "ok": False, "error": name,
                   "message": str(exc)})


def expected_replies(bundle, specs, fallback, overdue_other):
    """Each frame's reply, written out request by request as the
    per-request daemon answered it, placed where the window daemon
    writes it: replies decided at read time in frame order, then the
    window's in arrival order.  ``actor.infer`` runs once over the
    window's healthy rows, stacked in arrival order.  Returns the
    replies of both connections and the expected counters."""
    in_dim = bundle.actor.in_dim
    immediate, rows = [], []
    counts = dict(rejected=0, fallbacks=0, deadline_misses=0,
                  protocol_errors=0)
    # (id, number, state or error, overdue)
    rows.append(("other", 0, OTHER_STATE, overdue_other))
    number = 1
    for _, kind, request_id, state in specs:
        if kind == "raw":
            try:
                body = decode_body(state)
            except ProtocolError as exc:
                counts["protocol_errors"] += 1
                immediate.append(_error(exc, None))
                continue
            if body.get("op") == "act":
                counts["protocol_errors"] += 1
                immediate.append(_error(ProtocolError(
                    "'act' needs a 'state' list"), body["id"]))
            else:
                counts["protocol_errors"] += 1
                immediate.append(_error(ProtocolError(
                    f"unknown op {body['op']!r}"), body["id"]))
            continue
        if kind == "ping":
            reply = _reply({"id": request_id, "ok": True, "op": "ping"})
            counts["protocol_errors"] += reply["ok"] is False
            immediate.append(reply)
            continue
        this, number = number, number + 1
        try:
            vector = np.asarray(state, dtype=float)
        except OverflowError:
            counts["rejected"] += 1
            rows.append((request_id, this, InvalidStateError(
                "state entry too large for a float (int too large to "
                "convert to float)"), False))
            continue
        except (ValueError, TypeError) as exc:
            rows.append((request_id, this, exc, False))
            continue
        if vector.shape != (in_dim,):
            counts["rejected"] += 1
            immediate.append(_error(InvalidStateError(
                f"state must be a vector of dim {in_dim}, got shape "
                f"{vector.shape}"), request_id))
            continue
        if not np.isfinite(vector).all() and fallback is None:
            counts["rejected"] += 1
            rows.append((request_id, this, InvalidStateError(
                f"state for request {this} contains non-finite entries "
                f"and the service has no fallback"), False))
            continue
        rows.append((request_id, this, state, False))

    def healthy(row):
        _, _, state, overdue = row
        return not isinstance(state, Exception) and not overdue \
            and np.isfinite(np.asarray(state, dtype=float)).all()

    stack = [row[2] for row in rows if healthy(row)]
    actions = iter([])
    if stack:
        with np.errstate(over="ignore", invalid="ignore"):
            raw_actions = bundle.actor.infer(
                np.array(stack, dtype=float))[:, 0]
        assert np.isfinite(raw_actions).all()
        actions = iter(np.clip(raw_actions, -0.999, 0.999).tolist())
    window = []
    for row in rows:
        request_id, _, state, overdue = row
        counts["deadline_misses"] += overdue
        if isinstance(state, Exception):
            window.append(_error(state, request_id))
        elif healthy(row):
            window.append(_reply({"ok": True, "action": next(actions),
                                  "id": request_id}))
        elif fallback is None:
            window.append(_error(DeadlineExceededError(
                f"request aged past the {DEADLINE}s deadline"),
                request_id))
        else:
            counts["fallbacks"] += 1
            window.append(_reply({
                "ok": True,
                "action": analytic_fallback_action(
                    np.asarray(state, dtype=float)),
                "id": request_id}))
    counts["protocol_errors"] += sum(r["ok"] is False and r["id"] is None
                                     and "exceeds" in r["message"]
                                     for r in window)
    counts["requests"] = sum(not isinstance(row[2], Exception)
                             for row in rows)
    return immediate, window[1:], window[:1], counts


class TestConnectionParser:
    """``data_received`` slices frames out of whatever the socket hands
    it; the replies must not depend on where the reads were cut, and
    each must be the one the per-request daemon gave the same frame."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_replies_independent_of_read_boundaries(self, bundle, data):
        specs = data.draw(st.lists(_frames(bundle.actor.in_dim),
                                   min_size=1, max_size=8))
        frames = [spec[0] for spec in specs]
        fallback = data.draw(st.sampled_from([None, "analytic"]))
        overdue_other = data.draw(st.booleans())
        bad_prefix = data.draw(st.sampled_from([None, 0, (1 << 20) + 1,
                                                1 << 31]))
        at = len(frames)
        if bad_prefix is not None:
            at = data.draw(st.integers(0, len(frames)))
            frames.insert(at, struct.pack(">I", bad_prefix) + b"tail")
        stream = b"".join(frames)
        cuts = sorted(data.draw(st.lists(
            st.integers(0, len(stream)), max_size=12)))
        chunks = [stream[a:b] for a, b in
                  zip([0] + cuts, cuts + [len(stream)]) if a < b]

        whole = deliver(bundle, frames, fallback, overdue_other)
        assert deliver(bundle, chunks, fallback, overdue_other) == whole
        assert deliver(bundle, [stream], fallback, overdue_other) == whole
        replies, closed, other, counters = whole
        immediate, window, other_expected, counts = expected_replies(
            bundle, specs[:at], fallback, overdue_other)
        assert other == other_expected
        # A bad length prefix: typed reject last, then that connection
        # (and only that one) is closed, so its window replies are
        # dropped; its rows are served and counted all the same.
        assert closed == (bad_prefix is not None)
        if closed:
            assert replies[-1]["error"] == "ProtocolError"
            assert "frame length" in replies[-1]["message"]
            assert replies[:-1] == immediate
            counts["protocol_errors"] += 1
        else:
            assert replies == immediate + window
        counts["frames"] = at + 1
        assert {key: counters[key] for key in counts} == counts

    def test_a_refused_act_keeps_its_request_number(self, bundle):
        """The per-request daemon numbered every admitted ``act``, one it
        refused at once included, and the non-finite reject names that
        number; the window numbers its rows the same way."""
        nan = [float("nan")] * bundle.actor.in_dim
        states = [[1.0, 2.0], nan, [0.0] * bundle.actor.in_dim, nan]
        specs = [(encode_frame({"op": "act", "id": i, "state": state}),
                  "act", i, state) for i, state in enumerate(states)]
        replies, _, _, _ = deliver(bundle, [spec[0] for spec in specs])
        immediate, window, _, _ = expected_replies(bundle, specs, None,
                                                   False)
        assert replies == immediate + window
        assert [r["message"] for r in window if not r["ok"]] == [
            f"state for request {n} contains non-finite entries and the "
            f"service has no fallback" for n in (2, 4)]

    def test_one_write_per_read_and_per_window(self, bundle):
        """Replies leave in one ``transport.write`` per read (immediate
        ones) and one per connection per window (served actions)."""

        async def scenario():
            daemon = make_daemon(bundle)
            await daemon.start("127.0.0.1", 0)
            transport = FakeTransport()
            conn = _ServerConnection(daemon)
            conn.connection_made(transport)
            zeros = [0.0] * bundle.actor.in_dim
            conn.data_received(b"".join(
                [encode_frame({"op": "ping", "id": i}) for i in range(3)]
                + [encode_frame({"op": "act", "id": i, "state": zeros})
                   for i in range(5)]))
            after_read = transport.writes
            # One read, one stamp: the deadline and the histogram count
            # every request of it from the same instant.
            arrivals = {row[1] for row in daemon.service.window}
            daemon._flush_once()
            after_window = transport.writes
            conn.connection_lost(None)
            await daemon.drain()
            return after_read, after_window, arrivals, transport.replies()

        after_read, after_window, arrivals, replies = run(scenario())
        assert (after_read, after_window) == (1, 2)
        assert len(arrivals) == 1
        assert [r["id"] for r in replies] == [0, 1, 2, 0, 1, 2, 3, 4]


def framed(body):
    return struct.pack(">I", len(body)) + body


def json_act(request_id, state):
    """The JSON twin of an ``act`` frame: the form a client from before
    binary frames wrote."""
    return framed(json.dumps({"op": "act", "id": request_id,
                              "state": state},
                             separators=(",", ":")).encode())


def binary_body(header, payload=b""):
    return b"\x00" + struct.pack(">I", len(header)) + header + payload


#: State entries at the edges of a float64.
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
               -5e-324, 2.2250738585072014e-308, 1e308, -1e308]


def parent_json_stream():
    """JSON frames as they were written before binary ``act`` frames:
    saturating, overflowing, non-finite, short, ill-typed and missing
    states, a ping, an unknown op and bad JSON.  Every answer is free of
    BLAS rounding: a saturated actor clips to -0.999, and the fallback
    is scalar arithmetic."""
    def state(entry, n=40):
        return b"[" + b",".join([entry] * n) + b"]"

    bodies = [
        b'{"op":"act","id":1,"flow":3,"state":%s}' % state(b"10000.0"),
        b'{"op":"act","id":2,"flow":4,"state":%s}' % state(b"-10000.0"),
        b'{"op":"act","id":3,"state":%s}' % state(b"1e+308"),
        b'{"op":"act","id":4,"state":%s}' % state(b"NaN"),
        b'{"op":"act","id":5,"state":%s}' % state(b"-Infinity"),
        b'{"op":"act","id":6,"state":[1.0,2.0]}',
        b'{"op":"act","id":7,"state":[%s1%s]}' % (b"0.5," * 39,
                                                  b"0" * 400),
        b'{"op":"act","id":"eight","state":%s}' % state(b"-0.0"),
        b'{"op":"act","id":9}',
        b'{"op":"ping","id":10}',
        b'{"op":"explode","id":11}',
        b'{not json',
    ]
    return b"".join(framed(body) for body in bodies)


#: SHA-256 of the reply bytes the daemon sent ``parent_json_stream()``
#: before binary frames, per (fallback, read instant).
PARENT_REPLIES = {
    (None, READ_AT):
        "f7822a351b6307c7964b9348f4255fed10b73b03de525e33a11da32577b568d3",
    ("analytic", READ_AT):
        "b2f0a393c42c5ff1d031cbbe4031394e8439919aad99e88457ab2d87a272ed31",
    (None, 0.0):
        "7bd7842b359b868fdf88db4936913a163c6720f980e86f23ac7994e00a0e8fba",
    ("analytic", 0.0):
        "95c51ea2c1262bdf75e82d3fe5a659c196c59931533197925e10a059d59ac8ea",
}


class TestBinaryActFrames:
    """A binary ``act`` is served as its JSON twin is — same reply
    bytes, same counters — on every path of the window, and a JSON
    ``act`` as it was before binary frames."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_replies_equal_the_json_twins(self, bundle, data):
        in_dim = bundle.actor.in_dim
        entry = st.one_of(st.floats(-5.0, 5.0), st.floats(),
                          st.sampled_from(EDGE_FLOATS))
        state = st.sampled_from([in_dim] * 6 + [0, 1, in_dim - 1,
                                                in_dim + 1]).flatmap(
            lambda n: st.lists(entry, min_size=n, max_size=n))
        states = data.draw(st.lists(state, min_size=1, max_size=6))
        ids = data.draw(st.lists(
            st.one_of(st.integers(0, 10**7), st.text(max_size=3)),
            min_size=len(states), max_size=len(states)))
        config = (data.draw(st.sampled_from([None, "analytic"])),
                  data.draw(st.booleans()),
                  data.draw(st.sampled_from([READ_AT, 0.0])))
        binary = [encode_frame({"op": "act", "id": i, "state": s})
                  for i, s in zip(ids, states)]
        assert all(frame[4] == 0 for frame in binary)
        assert binary == [encode_frame({"op": "act", "id": i,
                                        "state": np.array(s, dtype=float)})
                          for i, s in zip(ids, states)]
        twins = [json_act(i, s) for i, s in zip(ids, states)]
        served = deliver_bytes(bundle, [b"".join(binary)], *config)
        assert served[0]
        assert served == deliver_bytes(bundle, [b"".join(twins)], *config)

    @pytest.mark.parametrize("body", [
        b"\x00",                                        # no header length
        binary_body(b'{"op":"act","id":1}')[:-1],       # header past the end
        binary_body(b"[1]", bytes(8)),                  # not an object
        binary_body(b'{"op":"act","id":1,"state":[]}'),  # carries a state
        binary_body(b'{"op":"act","id":1}', bytes(7)),  # no whole float64s
    ])
    def test_malformed_binary_body_is_one_frames_reject(self, bundle, body):
        zeros = [0.0] * bundle.actor.in_dim
        replies, closed, _, counters = deliver(bundle, [
            framed(body) + encode_frame({"op": "ping", "id": 8})
            + encode_frame({"op": "act", "id": 9, "state": zeros})])
        assert not closed
        reject, pong, served = replies
        assert (reject["id"], reject["ok"], reject["error"]) == (
            None, False, "ProtocolError")
        assert pong == {"id": 8, "ok": True, "op": "ping"}
        assert (served["id"], served["ok"]) == (9, True)
        assert counters["protocol_errors"] == 1

    @pytest.mark.parametrize("config", sorted(PARENT_REPLIES, key=str))
    def test_json_act_replies_are_the_parents(self, bundle, config):
        fallback, read_at = config
        served = deliver_bytes(bundle, [parent_json_stream()], fallback,
                               read_at=read_at)
        assert hashlib.sha256(served[0]).hexdigest() == \
            PARENT_REPLIES[config], split_replies(served[0])


class TestBackpressureAndDisconnect:
    def test_client_that_never_reads_is_not_read_from(self, bundle):
        """A client pipelining requests without reading its replies must
        stall itself: the daemon stops reading that socket (so what it
        queues is bounded), keeps serving the others, and still drains."""

        async def scenario():
            daemon = make_daemon(bundle)
            port = await daemon.start("127.0.0.1", 0)
            client = ServiceClient([("127.0.0.1", port)])
            zeros = [0.0] * bundle.actor.in_dim
            # ~2 kB replies (the id is echoed) against a small receive
            # buffer on the greedy side, so the reply path fills fast.
            frame = encode_frame({"op": "act", "id": "x" * 2000,
                                  "state": zeros})
            n_frames = 6000
            payload = memoryview(frame * n_frames)
            greedy = socket.socket()
            greedy.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            greedy.connect(("127.0.0.1", port))
            greedy.setblocking(False)
            try:
                sent, stalled_s = 0, 0.0
                while sent < len(payload) and stalled_s < 0.3:
                    try:
                        sent += greedy.send(payload[sent:sent + (1 << 16)])
                        stalled_s = 0.0
                        await asyncio.sleep(0)
                    except BlockingIOError:
                        stalled_s += 0.01
                        await asyncio.sleep(0.01)
                frames_read = daemon.counters["frames"]
                await asyncio.sleep(0.05)
                still = daemon.counters["frames"]
                buffered = max(
                    conn._transport.get_write_buffer_size()
                    for conn in daemon._connections)
                action = await client.act(0, zeros, timeout=5)
            finally:
                greedy.close()
                await client.aclose()
            await asyncio.wait_for(daemon.drain(), timeout=10)
            daemon.close_connections()
            return (sent, len(payload), frames_read, still, n_frames,
                    buffered, action, daemon.stats())

        (sent, offered, frames_read, still, n_frames, buffered, action,
         stats) = run(scenario())
        assert sent < offered, "the daemon never stopped reading"
        assert frames_read == still < n_frames
        assert buffered < (1 << 20)
        assert np.isfinite(action)
        assert stats["counters"]["daemon_inflight"] == 0

    def test_disconnect_with_requests_in_the_window_leaves_no_residue(
            self, bundle):
        async def scenario():
            daemon = make_daemon(bundle, batch_window_s=0.05)
            service = daemon.service
            port = await daemon.start("127.0.0.1", 0)
            zeros = [0.0] * bundle.actor.in_dim
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            for i in range(5):
                writer.write(encode_frame(
                    {"op": "act", "id": i, "state": zeros}))
            await writer.drain()
            while service.accounting.requests < 5:
                await asyncio.sleep(0.0005)
            inflight = daemon.stats()["counters"]["daemon_inflight"]
            writer.close()              # gone before the window closes
            await writer.wait_closed()
            await asyncio.wait_for(daemon.drain(), timeout=5)
            return inflight, daemon.stats(), len(daemon._connections)

        inflight, stats, connections = run(scenario())
        assert inflight == 5
        assert stats["counters"]["daemon_inflight"] == 0
        assert stats["counters"]["forward_passes"] == 1
        assert stats["latency"]["count"] == 5     # served and counted
        assert connections == 0


class TestAdmissionControl:
    def test_ceiling_rejects_typed_and_server_survives(self, bundle):
        async def scenario():
            async with daemon_and_client(
                    bundle, max_inflight=2) as (daemon, client):
                zeros = np.zeros(bundle.actor.in_dim)
                results = await asyncio.gather(
                    *[client.act(fid, zeros, timeout=5)
                      for fid in range(12)],
                    return_exceptions=True)
                follow_up = await client.act(99, zeros, timeout=5)
                return results, follow_up, daemon.counters

        results, follow_up, counters = run(scenario())
        answered = [r for r in results if isinstance(r, float)]
        rejected = [r for r in results
                    if isinstance(r, AdmissionRejectedError)]
        assert len(answered) + len(rejected) == 12
        assert rejected, "the ceiling must actually reject something"
        assert counters["admission_rejected"] == len(rejected)
        assert np.isfinite(follow_up)

    def test_rejects_invalid_ceiling(self, bundle):
        service = BatchedInferenceService(bundle)
        with pytest.raises(ServiceError):
            InferenceDaemon(service, max_inflight=0)


class TestDeadlines:
    def test_deadline_miss_without_fallback_is_per_request(self, bundle):
        """The daemon surfaces a deadline miss as a typed error on the
        affected request(s) — the fixed flush semantics — instead of
        crashing the flush loop or dropping the window."""

        async def scenario():
            async with daemon_and_client(
                    bundle, deadline_s=1e-9) as (daemon, client):
                zeros = np.zeros(bundle.actor.in_dim)
                results = await asyncio.gather(
                    *[client.act(fid, zeros, timeout=5)
                      for fid in range(4)],
                    return_exceptions=True)
                # Daemon still alive and accounting consistent.
                stats = await client.stats(timeout=5)
                return results, stats

        results, stats = run(scenario())
        assert all(isinstance(r, DeadlineExceededError) for r in results)
        assert stats["counters"]["deadline_misses"] == 4
        assert stats["counters"]["degraded"] == 1

    def test_deadline_with_fallback_answers_analytically(self, bundle):
        async def scenario():
            async with daemon_and_client(
                    bundle, deadline_s=1e-9,
                    fallback="analytic") as (daemon, client):
                action = await client.act(
                    0, np.zeros(bundle.actor.in_dim), timeout=5)
                return action, daemon.service.accounting

        action, accounting = run(scenario())
        assert np.isfinite(action) and -1.0 < action < 1.0
        assert accounting.fallbacks == 1
        assert accounting.deadline_misses == 1


class TestDrain:
    def test_drain_answers_pending_then_rejects(self, bundle):
        async def scenario():
            daemon = make_daemon(bundle)
            port = await daemon.start("127.0.0.1", 0)
            client = ServiceClient([("127.0.0.1", port)])
            zeros = np.zeros(bundle.actor.in_dim)
            pending = [asyncio.ensure_future(
                client.act(fid, zeros, timeout=5)) for fid in range(6)]
            while daemon.service.accounting.requests < 6:
                await asyncio.sleep(0.0005)   # until all 6 are queued
            await daemon.drain()
            answers = await asyncio.gather(*pending)
            # Post-drain: existing connections get a typed reject...
            with pytest.raises(AdmissionRejectedError):
                await client.act(7, zeros, timeout=5)
            # ...and new connections are refused outright.
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)
            await client.aclose()
            return answers, daemon.service.accounting, daemon.counters

        answers, accounting, counters = run(scenario())
        assert len(answers) == 6
        assert all(np.isfinite(a) for a in answers)
        assert accounting.requests == 6
        assert counters["drain_rejected"] == 1

    def test_drain_idempotent_on_idle_daemon(self, bundle):
        async def scenario():
            daemon = make_daemon(bundle)
            await daemon.start("127.0.0.1", 0)
            await daemon.drain()
            await daemon.drain()

        run(scenario())


class TestStatsVerb:
    def test_stats_surface(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (_, client):
                await client.act(0, np.zeros(bundle.actor.in_dim),
                                 timeout=5)
                assert (await client.ping(timeout=5))["ok"] is True
                return await client.stats(timeout=5)

        stats = run(scenario())
        assert stats["in_dim"] == bundle.actor.in_dim
        assert stats["window_s"] == WINDOW
        assert stats["shard"] == 0 and stats["shards"] == 1
        counters = stats["counters"]
        assert counters["requests"] == 1
        assert counters["forward_passes"] == 1
        assert counters["daemon_connections"] >= 1
        assert counters["daemon_inflight"] == 0
        assert stats["latency"]["count"] == 1
        assert "repro_service_requests 1" in stats["metrics"]
        assert 'quantile="0.99"' in stats["metrics"]

    def test_client_validation(self):
        with pytest.raises(ServiceError):
            ServiceClient([])
        with pytest.raises(ServiceError):
            ServiceClient([("127.0.0.1", 1)], conns_per_shard=0)


# -- shard supervision ------------------------------------------------


def _exit_child(code: int) -> None:
    import os

    os._exit(code)


def _crashy_child(restarts: int) -> None:
    """Crash the first two incarnations, then serve until terminated."""
    import os
    import time

    if restarts < 2:
        os._exit(5)
    time.sleep(60)


class TestBackoffDelay:
    def test_zero_and_doubling_and_cap(self):
        from repro.service import backoff_delay_s

        assert backoff_delay_s(0) == 0.0
        assert backoff_delay_s(1, base_s=0.5, cap_s=30.0) == 0.5
        assert backoff_delay_s(2, base_s=0.5, cap_s=30.0) == 1.0
        assert backoff_delay_s(3, base_s=0.5, cap_s=30.0) == 2.0
        assert backoff_delay_s(10, base_s=0.5, cap_s=30.0) == 30.0
        # huge counts must not overflow
        assert backoff_delay_s(10_000, base_s=0.5, cap_s=30.0) == 30.0


class TestShardSupervisor:
    def _ctx(self):
        import multiprocessing

        return multiprocessing.get_context("spawn")

    def test_restarts_crashed_shard_and_counts(self):
        import threading
        import time

        from repro.service import ShardSupervisor

        ctx = self._ctx()

        def spawn(index, restarts):
            child = ctx.Process(target=_crashy_child, args=(restarts,))
            child.start()
            return child

        lines = []
        sup = ShardSupervisor(1, spawn, max_restarts=5,
                              backoff_base_s=0.02, backoff_cap_s=0.1,
                              announce=lines.append)

        def stop_when_stable():
            # after the second respawn the child sleeps; shut down then
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline and sup.restarts != [2]:
                time.sleep(0.02)
            time.sleep(0.2)
            sup.request_shutdown()

        stopper = threading.Thread(target=stop_when_stable, daemon=True)
        stopper.start()
        codes = sup.run()
        stopper.join(timeout=15.0)
        assert sup.restarts == [2]
        assert codes == [-15]          # SIGTERM of the healthy survivor
        assert sum("SHARD-RESTART" in ln for ln in lines) == 2

    def test_gives_up_after_max_restarts(self):
        from repro.service import ShardSupervisor

        ctx = self._ctx()
        spawned = []

        def spawn(index, restarts):
            spawned.append(restarts)
            child = ctx.Process(target=_exit_child, args=(7,))
            child.start()
            return child

        lines = []
        sup = ShardSupervisor(1, spawn, max_restarts=2,
                              backoff_base_s=0.01, backoff_cap_s=0.02,
                              announce=lines.append)
        codes = sup.run()
        assert codes == [7]
        assert sup.restarts == [2]
        assert spawned == [0, 1, 2]    # restart count rides into spawn
        assert any("SHARD-ABANDONED" in ln for ln in lines)

    def test_validation(self):
        from repro.service import ShardSupervisor

        with pytest.raises(ServiceError):
            ShardSupervisor(0, lambda i, r: None)
        with pytest.raises(ServiceError):
            ShardSupervisor(1, lambda i, r: None, max_restarts=-1)


class TestStatsRestartCounter:
    def test_shard_restarts_surfaces_in_stats(self, bundle):
        async def scenario():
            daemon = make_daemon(bundle, shard_restarts=3)
            port = await daemon.start("127.0.0.1", 0)
            client = ServiceClient([("127.0.0.1", port)])
            try:
                stats = await client.stats(timeout=5)
            finally:
                await client.aclose()
                daemon.request_shutdown()
                await daemon.drain()
            return stats

        stats = run(scenario())
        assert stats["counters"]["daemon_shard_restarts"] == 3
        assert "repro_service_daemon_shard_restarts 3" in stats["metrics"]


class TestClientResilience:
    def test_connect_retry_exhaustion_typed(self):
        from repro.errors import ServiceConnectError

        async def scenario():
            client = ServiceClient([("127.0.0.1", 1)], connect_attempts=3,
                                   connect_backoff_s=0.01,
                                   connect_backoff_cap_s=0.02)
            with pytest.raises(ServiceConnectError) as err:
                await client.ping()
            assert err.value.attempts == 3
            assert isinstance(err.value.__cause__, OSError)

        run(scenario())

    def test_connect_retry_eventually_succeeds(self, bundle):
        async def scenario():
            daemon = make_daemon(bundle)
            client = None
            try:
                # the daemon starts *after* a short delay; the client's
                # retry loop must absorb the gap
                import socket as socket_mod

                probe = socket_mod.socket()
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
                probe.close()

                async def start_late():
                    await asyncio.sleep(0.15)
                    await daemon.start("127.0.0.1", port)

                task = asyncio.create_task(start_late())
                client = ServiceClient([("127.0.0.1", port)],
                                       connect_attempts=10,
                                       connect_backoff_s=0.05,
                                       connect_backoff_cap_s=0.2)
                body = await client.ping(timeout=5)
                assert body["ok"] is True
                await task
            finally:
                if client is not None:
                    await client.aclose()
                daemon.request_shutdown()
                await daemon.drain()

        run(scenario())

    def test_request_timeout_typed_instead_of_hang(self):
        from repro.errors import ServiceTimeoutError

        async def scenario():
            async def mute(reader, writer):
                await reader.read(-1)
                writer.close()

            server = await asyncio.start_server(mute, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = ServiceClient([("127.0.0.1", port)],
                                   request_timeout_s=0.1)
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            with pytest.raises(ServiceTimeoutError):
                await client.ping()
            assert loop.time() - t0 < 5.0
            await client.aclose()
            server.close()
            await server.wait_closed()

        run(scenario())

    def test_explicit_timeout_overrides_default(self, bundle):
        async def scenario():
            async with daemon_and_client(bundle) as (_, client):
                # a generous explicit timeout on a healthy daemon works
                body = await client.ping(timeout=10.0)
                assert body["ok"] is True

        run(scenario())
