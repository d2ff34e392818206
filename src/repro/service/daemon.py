"""Asyncio serving daemon around :class:`BatchedInferenceService` (§5.4).

The paper's scalability argument (Fig. 16) is architectural: one shared
inference service batching requests over a ~5 ms window serves thousands
of flows per core, where Orca-style per-flow servers burn a process per
flow.  This module turns the hardened in-process
:class:`~repro.service.inference.BatchedInferenceService` into something
flows can actually connect to:

* **Wire protocol** — length-prefixed frames over localhost TCP (a
  4-byte big-endian length, then the body).  An ``act`` with a float
  state is binary: ``\\x00``, a 4-byte header length, a JSON header, the
  state as little-endian float64s; every other body, replies included,
  is one JSON object.  Verbs: ``act``, ``stats``, ``ping``.  A malformed
  body gets a typed ``ProtocolError`` and the connection lives on; an
  unparseable length prefix closes only that connection.
* **Batching** — the daemon serves a window, not a request.  Each
  accepted socket is one callback-driven :class:`asyncio.Protocol`:
  ``data_received`` stamps the read once, slices every complete frame
  out of it and appends each ``act`` request to the service's open
  window as one row, unchecked — no task, future, lock or dict entry
  per request.  Once per batching window a flush task has the service
  check and serve the whole window with array operations and a single
  batched forward pass, and answers it with one ``transport.write``
  per connection.  Per-request deadlines ride the service's
  ``deadline_s`` path, counted from the time the request's bytes were
  read.
* **Backpressure** — when a client stops reading its replies and its
  socket fills, the daemon stops *reading* that connection, so what one
  client can queue is bounded and the others are served as before.
* **Admission control** — at most ``max_inflight`` requests may be
  queued or awaiting response; beyond that the daemon answers a typed
  ``AdmissionRejectedError`` immediately instead of building an
  unbounded backlog.
* **Graceful drain** — SIGTERM/SIGINT stop the listener, finish serving
  everything already queued, answer it, then exit 0.  No request that
  was accepted is ever dropped by shutdown.
* **Sharding + supervision** — ``serve_main(shards=N)`` fans out N
  daemon processes (spawn context, as in :mod:`repro.parallel`), one
  shard per port; clients route ``flow_id`` to a shard with
  :func:`shard_for_flow`, so one flow's requests always meet the same
  batching queue.  A :class:`ShardSupervisor` restarts any shard that
  dies with capped exponential backoff (``shard_restarts`` in the
  ``stats`` verb counts the respawns) instead of leaving a dead shard
  silently black-holing its flows.

:class:`ServiceClient` is the matching asyncio client: it multiplexes
many flows over a small connection pool per shard (request ids match
responses to callers), which is also how the load benchmark
(:mod:`repro.bench.serve`) drives the daemon.
"""

from __future__ import annotations

import asyncio
import json
import signal
import struct
import sys
import time
from typing import Callable

import numpy as np

from ..errors import (
    AdmissionRejectedError,
    DeadlineExceededError,
    InvalidStateError,
    ProtocolError,
    ServiceConnectError,
    ServiceError,
    ServiceTimeoutError,
)
from .inference import BatchedInferenceService
from .metrics import LatencyHistogram, render_metrics

#: Frames above this are a protocol violation (a state vector is ~1 kB).
MAX_FRAME_BYTES = 1 << 20
_HEADER = struct.Struct(">I")

DEFAULT_PORT = 8731

#: Error classes a daemon response may name; the client re-raises them.
_ERROR_TYPES: dict[str, type[ServiceError]] = {
    cls.__name__: cls
    for cls in (ServiceError, InvalidStateError, DeadlineExceededError,
                AdmissionRejectedError, ProtocolError)
}


def shard_for_flow(flow_id: int, n_shards: int) -> int:
    """Deterministic flow-to-shard routing (Knuth multiplicative hash).

    Stable across processes and Python hash randomisation, so every
    client maps a flow to the same shard — a flow's requests must all
    meet one batching queue for its deadline accounting to make sense.
    """
    if n_shards <= 0:
        raise ServiceError(f"need at least one shard, got {n_shards}")
    return (int(flow_id) * 2654435761) % (1 << 32) % n_shards


#: ``json.dumps(obj, separators=...)`` builds a ``JSONEncoder`` per call;
#: one compact encoder serves every frame with the same bytes.
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


#: A binary ``act`` body starts with ``\x00``, which no JSON text can
#: start with: a daemon from before binary frames refuses it as bad JSON.
_BINARY = b"\x00"
_STATE_DTYPE = np.dtype("<f8")


def _state_bytes(state) -> bytes | None:
    """The binary form of an ``act`` state — a 1-D float array, or a
    list or tuple of Python floats — or ``None`` for any other state."""
    if isinstance(state, np.ndarray):
        if state.ndim == 1 and state.dtype.kind == "f":
            return state.astype(_STATE_DTYPE, copy=False).tobytes()
    elif type(state) in (list, tuple) \
            and all(type(v) is float for v in state):
        return struct.pack(f"<{len(state)}d", *state)
    return None


def encode_frame(obj: dict) -> bytes:
    """Serialise one protocol message: 4-byte length + body.  An ``act``
    whose state has a binary form (:func:`_state_bytes`) gets the binary
    body, ``\\x00`` + header length + JSON header + state; any other
    message is one JSON body."""
    state = _state_bytes(obj.get("state")) if obj.get("op") == "act" \
        else None
    if state is None:
        body = _encode_json(obj).encode("utf-8")
    else:
        header = _encode_json(
            {k: v for k, v in obj.items() if k != "state"}).encode("utf-8")
        body = b"".join((_BINARY, _HEADER.pack(len(header)), header, state))
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds {MAX_FRAME_BYTES}")
    return _HEADER.pack(len(body)) + body


def decode_body(data: bytes) -> dict:
    """Parse a frame body, JSON or binary; raises :class:`ProtocolError`
    on garbage.  A binary body's ``state`` is a float64 view of its
    bytes."""
    state = None
    if data[:1] == _BINARY:
        start, size = 1 + _HEADER.size, len(data)
        # A body too short for the header length ends inside it.
        end = start + _HEADER.unpack_from(data, 1)[0] if size >= start \
            else size + 1
        if end > size or (size - end) % _STATE_DTYPE.itemsize:
            raise ProtocolError(
                f"binary body of {size} bytes does not hold its header "
                f"and whole float64s")
        state = np.frombuffer(data, _STATE_DTYPE, offset=end)
        data = data[start:end]
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError: bad UTF-8, bad JSON, or an integer literal past the
        # interpreter's digit limit; RecursionError: a megabyte of "[".
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame body must be a JSON object, got {type(obj).__name__}")
    if state is not None:
        if "state" in obj:
            raise ProtocolError("a binary body's header carries no 'state'")
        obj["state"] = state
    return obj


#: What a window row's state may be: a JSON list or a binary body's array.
_ROW_STATES = (list, np.ndarray)


def _frame_length(buf, pos: int = 0) -> int:
    """The length prefix at ``buf[pos:]``; raises :class:`ProtocolError`
    for an unusable one — after that the stream cannot be
    re-synchronised and must be closed."""
    (length,) = _HEADER.unpack_from(buf, pos)
    if length == 0 or length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame length {length} outside (0, {MAX_FRAME_BYTES}]")
    return length


async def read_frame(reader: asyncio.StreamReader) -> bytes | None:
    """Read one raw frame body; ``None`` on clean EOF.  The client's
    reader (the daemon slices frames in ``data_received``); raises
    :class:`ProtocolError` for an unusable length prefix.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError:
        return None
    length = _frame_length(header)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        return None


def _error_body(exc: BaseException, request_id=None) -> dict:
    name = type(exc).__name__
    if name not in _ERROR_TYPES:
        name = "ServiceError"
    return {"id": request_id, "ok": False, "error": name,
            "message": str(exc)}


def _ok_frame(action: float, request_id) -> bytes:
    """The reply frame of one served action, byte for byte
    ``encode_frame({"ok": True, "action": action, "id": request_id})``."""
    if type(request_id) is int and type(action) is float \
            and -1.0 <= action <= 1.0:
        # A finite float and a plain int print as JSON prints them
        # (``float.__repr__``, decimal digits): nothing to escape.
        body = b'{"ok":true,"action":%r,"id":%d}' % (action, request_id)
        return _HEADER.pack(len(body)) + body
    return encode_frame({"ok": True, "action": action, "id": request_id})


class _ServerConnection(asyncio.Protocol):
    """One accepted socket: frames in through ``data_received``, reply
    frames out in one ``transport.write`` per batch of replies."""

    def __init__(self, daemon: "InferenceDaemon"):
        self._daemon = daemon
        self._transport: asyncio.Transport | None = None
        self._inbuf = bytearray()

    def connection_made(self, transport) -> None:
        self._transport = transport
        self._daemon.counters["connections"] += 1
        self._daemon._connections.add(self)

    def connection_lost(self, exc) -> None:
        # Requests of this connection still in the window are popped and
        # accounted at the next flush; their replies are dropped.
        self._transport = None
        self._daemon._connections.discard(self)

    def pause_writing(self) -> None:
        # The client is not reading its replies: stop reading its
        # requests, so what it can queue here stays bounded.
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._transport.resume_reading()

    def data_received(self, data: bytes) -> None:
        daemon = self._daemon
        # One stamp per read: a request's deadline and latency count
        # from when its bytes arrived, decode queue included.
        now = daemon._loop.time()
        buf = self._inbuf
        if buf:
            buf += data
            data = buf
        bodies = []
        rejected: bytes | None = None
        pos, size = 0, len(data)
        while size - pos >= _HEADER.size:
            try:
                end = pos + _HEADER.size + _frame_length(data, pos)
            except ProtocolError as exc:
                daemon.counters["protocol_errors"] += 1
                rejected = encode_frame(_error_body(exc))
                break
            if end > size:
                break
            bodies.append(data[pos + _HEADER.size:end])
            pos = end
        if data is buf:
            del buf[:pos]
        elif pos < size:
            buf += data[pos:]
        replies = daemon._on_read(self, bodies, now) if bodies else []
        if rejected is not None:
            replies.append(rejected)
        if replies:
            self.send(replies)
        if rejected is not None:
            # Rejected, then closed: what follows cannot be framed.
            buf.clear()
            self._transport.close()

    def send(self, frames: list[bytes]) -> None:
        """Write reply frames with one ``transport.write``; a connection
        that is gone drops them."""
        transport = self._transport
        if frames and transport is not None and not transport.is_closing():
            transport.write(b"".join(frames))


class InferenceDaemon:
    """One shard: an asyncio TCP server multiplexing connections into
    the batching window of a :class:`BatchedInferenceService`."""

    def __init__(self, service: BatchedInferenceService, *,
                 max_inflight: int = 4096, shard_index: int = 0,
                 n_shards: int = 1, shard_restarts: int = 0):
        if max_inflight <= 0:
            raise ServiceError("max_inflight must be positive")
        self.service = service
        self.max_inflight = max_inflight
        self.shard_index = shard_index
        self.n_shards = n_shards
        self.latency = LatencyHistogram()
        #: Daemon-level counters (the service keeps its own accounting).
        #: ``shard_restarts`` is how many times the supervisor respawned
        #: this shard before this incarnation — it survives the crash the
        #: rest of the counters do not.
        self.counters = {
            "connections": 0,
            "frames": 0,
            "protocol_errors": 0,
            "admission_rejected": 0,
            "drain_rejected": 0,
            "shard_restarts": shard_restarts,
        }
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        #: Rows admitted so far: a row's number keys its answer in the
        #: window and names it in the service's messages.
        self._admitted = 0
        self._connections: set[_ServerConnection] = set()
        self._kick = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._draining = False
        self._shutdown = asyncio.Event()
        self._flush_task: asyncio.Task | None = None
        self._started_at = time.time()
        self.host: str | None = None
        self.port: int | None = None

    # -- lifecycle ----------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind, start serving and flushing; returns the bound port."""
        self._loop = asyncio.get_running_loop()
        self._server = await self._loop.create_server(
            lambda: _ServerConnection(self), host, port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        self._flush_task = asyncio.create_task(self._flush_loop())
        return self.port

    def request_shutdown(self) -> None:
        """Signal-safe shutdown trigger (SIGTERM/SIGINT handler)."""
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    async def drain(self) -> None:
        """Stop accepting, serve everything already queued, stop flushing.

        Idempotent; after it returns every accepted request has been
        answered and the daemon no longer listens.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._idle.wait()
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None

    def close_connections(self) -> None:
        """Close every client socket — the last step of a shutdown.
        :meth:`drain` leaves them open so that a request arriving
        mid-drain is answered with a typed reject, not a reset."""
        for conn in self._connections:
            conn._transport.close()

    # -- batching -----------------------------------------------------

    async def _flush_loop(self) -> None:
        while True:
            await self._kick.wait()
            # Let one whole batching window of requests accumulate.
            await asyncio.sleep(self.service.batch_window_s)
            self._flush_once()
            if not self.service.window:
                self._kick.clear()

    def _flush_once(self) -> None:
        """Serve the open window and answer it, one write per
        connection; the replies of a connection keep arrival order."""
        service = self.service
        rows = service.window
        if not rows:
            return
        now = self._loop.time()
        try:
            # Rows are keyed by their unique number: one answer per row,
            # in row order.
            answers = service.flush(now_s=now).values()
        except DeadlineExceededError as exc:
            # The healthy rows were served and ride along on the
            # exception; an overdue one (answer None) is answered with
            # the typed error instead of vanishing.
            answers = [exc.served.get(row[0]) for row in rows]
        latencies: list[float] = []
        replies: dict[_ServerConnection, list[bytes]] = {}
        try:
            for (_, t, _, conn, request_id), answer in zip(rows, answers):
                try:
                    if type(answer) is float:
                        latencies.append(now - t)
                        frame = _ok_frame(answer, request_id)
                    elif answer is None:
                        latencies.append(now - t)
                        frame = encode_frame(_error_body(
                            DeadlineExceededError(
                                f"request aged past the "
                                f"{service.deadline_s}s deadline"),
                            request_id))
                    else:
                        # Refused: answered, but not served, so the
                        # latency histogram does not count it.
                        frame = encode_frame(_error_body(answer,
                                                         request_id))
                except ProtocolError as exc:
                    frame = self._unsendable(exc)
                replies.setdefault(conn, []).append(frame)
        finally:
            # Even past an unforeseen error in one reply, what was built
            # is sent and counted.
            self.latency.record_many(latencies)
            for conn, frames in replies.items():
                conn.send(frames)
            if not service.window:
                self._idle.set()

    # -- request handling ---------------------------------------------

    def _on_read(self, conn: _ServerConnection, bodies: list[bytes],
                 now: float) -> list[bytes]:
        """Serve the frame bodies of one read, all stamped ``now``;
        returns the replies that can be sent at once.

        An ``act`` with a state list (JSON) or float64 array (binary) of
        the right length joins the open window as one row, ``(number,
        now, state, conn, id)``; what it holds is checked when the window
        is served.  Rows are counted (frames, requests, admission room)
        once per read, and before any other frame, which is served on its
        own by :meth:`_on_frame`.
        """
        window = self.service.window
        in_dim = self.service.policy.actor.in_dim
        room = 0 if self._draining else self.max_inflight - len(window)
        number = self._admitted
        replies: list[bytes] = []
        for raw in bodies:
            try:
                body = decode_body(raw)
            except ProtocolError as exc:
                body = exc
            else:
                if body.get("op") == "act":
                    state = body.get("state")
                    if type(state) in _ROW_STATES \
                            and len(state) == in_dim and room:
                        window.append(
                            (number, now, state, conn, body.get("id")))
                        number += 1
                        room -= 1
                        continue
            self._count_rows(number)
            replies.append(self._on_frame(body))
            number = self._admitted
            room = 0 if self._draining \
                else self.max_inflight - len(window)
        self._count_rows(number)
        return replies

    def _count_rows(self, number: int) -> None:
        """Account the rows appended since the last count; ``number`` is
        the next row number."""
        rows = number - self._admitted
        if rows:
            self._admitted = number
            self.counters["frames"] += rows
            self.service.accounting.requests += rows
            self._idle.clear()
            self._kick.set()

    def _on_frame(self, body: dict | ProtocolError) -> bytes:
        """The reply to one frame the window did not take: a decode
        error, a verb, or an ``act`` to refuse."""
        self.counters["frames"] += 1
        if isinstance(body, ProtocolError):
            # Bad JSON inside a well-framed message: typed reject,
            # connection stays usable.
            self.counters["protocol_errors"] += 1
            return encode_frame(_error_body(body))
        op = body.get("op")
        request_id = body.get("id")
        if op == "act":
            response = _error_body(self._refusal(body.get("state")),
                                   request_id)
        elif op == "stats":
            response = {"id": request_id, "ok": True, **self.stats()}
        elif op == "ping":
            response = {"id": request_id, "ok": True, "op": "ping"}
        else:
            self.counters["protocol_errors"] += 1
            response = _error_body(
                ProtocolError(f"unknown op {op!r}"), request_id)
        try:
            return encode_frame(response)
        except ProtocolError as exc:
            return self._unsendable(exc)

    def _refusal(self, state) -> Exception:
        """Why an ``act`` the window did not take is refused: no state
        list or array, a drain, a full window, or (checked by the
        service, as a row would be) a state of the wrong length."""
        if type(state) not in _ROW_STATES:
            self.counters["protocol_errors"] += 1
            return ProtocolError("'act' needs a 'state' list")
        if self._draining:
            self.counters["drain_rejected"] += 1
            return AdmissionRejectedError("daemon is draining")
        if len(self.service.window) >= self.max_inflight:
            self.counters["admission_rejected"] += 1
            return AdmissionRejectedError(
                f"in-flight ceiling of {self.max_inflight} requests "
                f"reached")
        # Admitted and then refused: it takes a row number all the same.
        number = self._admitted
        self._admitted += 1
        _, refused, _ = self.service.check_states((state,), (number,))
        return refused[0]

    def _unsendable(self, exc: ProtocolError) -> bytes:
        """The reject for a reply over the frame limit.  The request's id
        is echoed and re-encodes longer than it arrived (``\\uXXXX``
        escapes), so a legal request can have one; the reject names no
        id, the id being what outgrew the frame."""
        self.counters["protocol_errors"] += 1
        return encode_frame(_error_body(exc))

    # -- observability ------------------------------------------------

    def stats(self) -> dict:
        """The STATS verb payload: counters, quantiles, text metrics."""
        extra = {f"daemon_{k}": v for k, v in self.counters.items()}
        extra["daemon_inflight"] = len(self.service.window)
        extra["daemon_uptime_s"] = time.time() - self._started_at
        return {
            "op": "stats",
            "in_dim": self.service.policy.actor.in_dim,
            "window_s": self.service.batch_window_s,
            "deadline_s": self.service.deadline_s,
            "shard": self.shard_index,
            "shards": self.n_shards,
            "counters": {**self.service.accounting.counters(), **extra},
            "latency": self.latency.summary(),
            "metrics": render_metrics(self.service.accounting,
                                      self.latency, extra=extra),
        }


class ServiceClient:
    """Asyncio client multiplexing many flows over pooled connections.

    ``addrs`` lists one ``(host, port)`` per shard; a flow's requests
    are routed with :func:`shard_for_flow` and spread round-robin over
    ``conns_per_shard`` connections, so thousands of simulated flows
    need only a handful of sockets (this is also what keeps the load
    generator under the file-descriptor ceiling).

    Resilience: connects retry with jittered exponential backoff (a
    daemon that is still binding — or a shard mid-restart — is retried
    ``connect_attempts`` times before :class:`ServiceConnectError`), and
    every request carries a timeout (``request_timeout_s`` unless the
    call passes its own) that raises :class:`ServiceTimeoutError`
    instead of hanging the caller on a stalled connection.  Pass
    ``request_timeout_s=None`` to wait indefinitely.
    """

    def __init__(self, addrs: list[tuple[str, int]],
                 conns_per_shard: int = 4, *,
                 request_timeout_s: float | None = 30.0,
                 connect_attempts: int = 5,
                 connect_backoff_s: float = 0.2,
                 connect_backoff_cap_s: float = 2.0):
        if not addrs:
            raise ServiceError("need at least one daemon address")
        if conns_per_shard <= 0:
            raise ServiceError("conns_per_shard must be positive")
        if connect_attempts <= 0:
            raise ServiceError("connect_attempts must be positive")
        self._addrs = list(addrs)
        self._conns_per_shard = conns_per_shard
        self._request_timeout_s = request_timeout_s
        self._connect_attempts = connect_attempts
        self._connect_backoff_s = connect_backoff_s
        self._connect_backoff_cap_s = connect_backoff_cap_s
        # shard -> list of connection records
        self._conns: dict[int, list[_Connection]] = {}
        self._rr: dict[int, int] = {}

    @property
    def n_shards(self) -> int:
        return len(self._addrs)

    async def _open(self, host: str, port: int) -> "_Connection":
        """Connect with jittered backoff; typed error on exhaustion."""
        import random

        last: Exception | None = None
        for attempt in range(self._connect_attempts):
            try:
                return await _Connection.open(host, port)
            except (ConnectionError, OSError) as exc:
                last = exc
                if attempt + 1 >= self._connect_attempts:
                    break
                delay = backoff_delay_s(attempt + 1,
                                        base_s=self._connect_backoff_s,
                                        cap_s=self._connect_backoff_cap_s)
                # Jitter desynchronises a fleet of clients hammering a
                # daemon that just came (back) up.
                await asyncio.sleep(delay * random.uniform(0.5, 1.5))
        raise ServiceConnectError(
            f"could not connect to daemon at {host}:{port} after "
            f"{self._connect_attempts} attempt(s): {last}",
            attempts=self._connect_attempts) from last

    async def _conn_for(self, shard: int) -> "_Connection":
        pool = self._conns.setdefault(shard, [])
        index = self._rr.get(shard, 0)
        self._rr[shard] = index + 1
        slot = index % self._conns_per_shard
        while len(pool) <= slot:
            host, port = self._addrs[shard]
            pool.append(await self._open(host, port))
        conn = pool[slot]
        if conn.closed:
            host, port = self._addrs[shard]
            conn = await self._open(host, port)
            pool[slot] = conn
        return conn

    def _timeout(self, timeout: float | None) -> float | None:
        return self._request_timeout_s if timeout is None else timeout

    async def act(self, flow_id: int, state, timeout: float | None = None,
                  ) -> float:
        """One inference round trip; raises the daemon's typed error."""
        shard = shard_for_flow(flow_id, self.n_shards)
        conn = await self._conn_for(shard)
        if not isinstance(state, list):
            # An array goes out as its float64 bytes (a binary frame).
            state = np.asarray(state, dtype=float).ravel()
        body = await conn.request({"op": "act", "flow": int(flow_id),
                                   "state": state},
                                  timeout=self._timeout(timeout))
        return float(body["action"])

    async def stats(self, shard: int = 0, timeout: float | None = None,
                    ) -> dict:
        conn = await self._conn_for(shard)
        return await conn.request({"op": "stats"},
                                  timeout=self._timeout(timeout))

    async def ping(self, shard: int = 0, timeout: float | None = None,
                   ) -> dict:
        conn = await self._conn_for(shard)
        return await conn.request({"op": "ping"},
                                  timeout=self._timeout(timeout))

    async def aclose(self) -> None:
        for pool in self._conns.values():
            for conn in pool:
                await conn.aclose()
        self._conns.clear()


class _Connection:
    """One socket: pipelined requests matched to responses by id."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._wlock = asyncio.Lock()
        self.closed = False
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def open(cls, host: str, port: int) -> "_Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def _read_loop(self) -> None:
        error: Exception = ServiceError("connection closed by daemon")
        try:
            while True:
                raw = await read_frame(self._reader)
                if raw is None:
                    break
                body = decode_body(raw)
                future = self._pending.pop(body.get("id"), None)
                if future is None or future.done():
                    continue
                if body.get("ok"):
                    future.set_result(body)
                else:
                    cls = _ERROR_TYPES.get(body.get("error", ""),
                                           ServiceError)
                    future.set_exception(cls(body.get("message", "")))
        except (ConnectionError, ProtocolError, asyncio.CancelledError) \
                as exc:
            if isinstance(exc, Exception):
                error = exc
        finally:
            self.closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(error)
            self._pending.clear()

    async def request(self, body: dict, timeout: float | None = None,
                      ) -> dict:
        if self.closed:
            raise ServiceError("connection is closed")
        rid = self._next_id
        self._next_id += 1
        body = dict(body, id=rid)
        future = asyncio.get_running_loop().create_future()
        self._pending[rid] = future
        async with self._wlock:
            self._writer.write(encode_frame(body))
            await self._writer.drain()
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            # Stop tracking the request: a late response must not land
            # in a future nobody awaits.
            self._pending.pop(rid, None)
            raise ServiceTimeoutError(
                f"request {rid} got no response within {timeout:.3g}s"
            ) from None

    async def aclose(self) -> None:
        self.closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


# -- shard supervision ------------------------------------------------


def backoff_delay_s(restarts: int, *, base_s: float = 0.5,
                    cap_s: float = 30.0) -> float:
    """Delay before the ``restarts``-th consecutive restart attempt.

    Capped exponential: ``base * 2**(restarts-1)``, clamped to ``cap``
    (the exponent itself is bounded so huge counts cannot overflow).
    ``restarts <= 0`` means "never failed" and costs no delay.
    """
    if restarts <= 0:
        return 0.0
    exponent = min(restarts - 1, 16)
    return min(base_s * (2.0 ** exponent), cap_s)


class ShardSupervisor:
    """Parent-side babysitter for ``--shards N`` worker processes.

    ``spawn(index, restarts)`` must return a *started*
    :class:`multiprocessing.Process` for shard ``index``; ``restarts``
    is the shard's lifetime respawn count, which the daemon surfaces as
    the ``shard_restarts`` counter of its ``stats`` verb.

    Policy: a shard that exits while the supervisor is not shutting
    down is restarted after :func:`backoff_delay_s` of its *consecutive*
    failure streak; a shard that stayed up at least ``healthy_after_s``
    resets its streak (a crash loop backs off, a one-off crash does
    not penalise next week's).  After ``max_restarts`` consecutive
    failures the shard is abandoned with its last exit code — the
    supervisor keeps serving the surviving shards rather than tearing
    the fleet down.  :meth:`request_shutdown` (signal-handler safe)
    terminates every live child and stops all restarting.

    :meth:`run` blocks until every shard has terminally exited and
    returns one exit code per shard (``0`` for clean/SIGTERM exits).
    """

    #: Upper bound on one poll interval: keeps the loop responsive to
    #: ``request_shutdown`` even when nothing is due.
    _POLL_S = 0.5

    def __init__(self, n_shards: int, spawn, *, max_restarts: int = 5,
                 backoff_base_s: float = 0.5, backoff_cap_s: float = 30.0,
                 healthy_after_s: float = 30.0,
                 announce: Callable[[str], None] | None = None):
        if n_shards <= 0:
            raise ServiceError(f"need at least one shard, got {n_shards}")
        if max_restarts < 0:
            raise ServiceError("max_restarts must be >= 0")
        self._spawn = spawn
        self.n_shards = n_shards
        self.max_restarts = max_restarts
        self._backoff_base_s = backoff_base_s
        self._backoff_cap_s = backoff_cap_s
        self._healthy_after_s = healthy_after_s
        self._announce = announce
        #: Lifetime respawns per shard (what ``stats`` reports).
        self.restarts = [0] * n_shards
        self._streak = [0] * n_shards
        self._children: list = [None] * n_shards
        self._started_at = [0.0] * n_shards
        self._last_code = [0] * n_shards
        self._final: list[int | None] = [None] * n_shards
        self._restart_due: dict[int, float] = {}
        self._shutdown = False

    def request_shutdown(self) -> None:
        """Stop restarting and SIGTERM every live child (signal-safe)."""
        self._shutdown = True
        for child in self._children:
            if child is not None and child.is_alive():
                child.terminate()  # SIGTERM -> graceful shard drain

    def _start(self, index: int) -> None:
        self._children[index] = self._spawn(index, self.restarts[index])
        self._started_at[index] = time.monotonic()

    def _say(self, line: str) -> None:
        if self._announce is not None:
            self._announce(line)

    def _on_exit(self, index: int, code: int) -> None:
        self._children[index] = None
        self._last_code[index] = code
        if self._shutdown:
            self._final[index] = code
            return
        uptime = time.monotonic() - self._started_at[index]
        if uptime >= self._healthy_after_s:
            self._streak[index] = 0
        if self._streak[index] >= self.max_restarts:
            self._final[index] = code if code != 0 else 1
            self._say(f"SHARD-ABANDONED shard={index} exitcode={code} "
                      f"restarts={self.restarts[index]}")
            return
        self._streak[index] += 1
        self.restarts[index] += 1
        delay = backoff_delay_s(self._streak[index],
                                base_s=self._backoff_base_s,
                                cap_s=self._backoff_cap_s)
        self._restart_due[index] = time.monotonic() + delay
        self._say(f"SHARD-RESTART shard={index} exitcode={code} "
                  f"restart={self.restarts[index]} delay={delay:.2f}s")

    def _reap(self) -> None:
        for index, child in enumerate(self._children):
            if child is not None and not child.is_alive():
                child.join()
                self._on_exit(index, child.exitcode or 0)

    def run(self) -> list[int]:
        from multiprocessing.connection import wait as mp_wait

        for index in range(self.n_shards):
            self._start(index)
        while True:
            self._reap()
            if self._shutdown:
                break
            now = time.monotonic()
            for index in [i for i, due in self._restart_due.items()
                          if due <= now]:
                del self._restart_due[index]
                self._start(index)
            if (all(c is None for c in self._children)
                    and not self._restart_due):
                break
            timeout = self._POLL_S
            if self._restart_due:
                timeout = min(timeout,
                              max(0.0, min(self._restart_due.values())
                                  - now))
            sentinels = [c.sentinel for c in self._children
                         if c is not None]
            if sentinels:
                mp_wait(sentinels, timeout=timeout)
            else:
                time.sleep(timeout)
        # Shutdown path: kill anything still up, settle every shard.
        self._restart_due.clear()
        for child in self._children:
            if child is not None and child.is_alive():
                child.terminate()
        for index, child in enumerate(self._children):
            if child is not None:
                child.join()
                self._on_exit(index, child.exitcode or 0)
        return [0 if code is None else code for code in self._final]


# -- process entry points ---------------------------------------------


def build_service(scheme: str = "astraea", batch_window_s: float = 0.005,
                  deadline_s: float | None = 0.050,
                  fallback: str | None = "analytic",
                  ) -> BatchedInferenceService:
    """The daemon's default backend: shipped bundle, analytic fallback."""
    return BatchedInferenceService.from_default(
        scheme, batch_window_s=batch_window_s, deadline_s=deadline_s,
        fallback=fallback)


async def _serve_async(daemon: InferenceDaemon, host: str, port: int,
                       announce: Callable[[str], None] | None = None,
                       ) -> int:
    loop = asyncio.get_running_loop()
    bound = await daemon.start(host, port)
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, daemon.request_shutdown)
        except (NotImplementedError, RuntimeError):
            pass  # non-main thread or platform without signal support
    if announce is not None:
        announce(f"LISTENING {daemon.host} {bound} "
                 f"shard={daemon.shard_index}/{daemon.n_shards}")
    await daemon.wait_shutdown()
    if announce is not None:
        announce(f"DRAINING shard={daemon.shard_index} "
                 f"inflight={len(daemon.service.window)}")
    await daemon.drain()
    daemon.close_connections()
    if announce is not None:
        s = daemon.service.accounting
        announce(f"STOPPED shard={daemon.shard_index} "
                 f"requests={s.requests} forward_passes={s.forward_passes}")
    return 0


def _announce(line: str) -> None:
    # One write() per line: shard children share the parent's stdout
    # pipe, and print() emits the text and the newline as separate
    # writes under unbuffered stdio, which lets two shards interleave
    # mid-line and corrupt the LISTENING protocol a parser relies on.
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _shard_main(cfg: dict) -> None:
    """Module-level child entry (spawn context needs it picklable)."""
    service = build_service(cfg["scheme"], cfg["batch_window_s"],
                            cfg["deadline_s"], cfg["fallback"])
    daemon = InferenceDaemon(service, max_inflight=cfg["max_inflight"],
                             shard_index=cfg["shard_index"],
                             n_shards=cfg["n_shards"],
                             shard_restarts=cfg.get("shard_restarts", 0))
    raise SystemExit(asyncio.run(
        _serve_async(daemon, cfg["host"], cfg["port"], _announce)))


def serve_main(*, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
               scheme: str = "astraea", batch_window_s: float = 0.005,
               deadline_s: float | None = 0.050,
               fallback: str | None = "analytic",
               max_inflight: int = 4096, shards: int = 1,
               max_restarts: int = 5) -> int:
    """Run the daemon (blocking), sharded when ``shards > 1``.

    Each shard is its own spawn-context process listening on
    ``port + shard_index`` (each picks an ephemeral port when ``port``
    is 0) and announcing ``LISTENING <host> <port> shard=i/n`` on
    stdout.  A shard that dies is respawned (same port) with capped
    exponential backoff, up to ``max_restarts`` consecutive failures.
    SIGTERM/SIGINT drain every shard gracefully.
    """
    if shards <= 0:
        raise ServiceError(f"need at least one shard, got {shards}")
    if shards == 1:
        service = build_service(scheme, batch_window_s, deadline_s,
                                fallback)
        daemon = InferenceDaemon(service, max_inflight=max_inflight)
        return asyncio.run(_serve_async(daemon, host, port, _announce))

    import multiprocessing

    context = multiprocessing.get_context("spawn")

    def spawn_shard(index: int, restarts: int):
        cfg = {"host": host, "port": port + index if port else 0,
               "scheme": scheme, "batch_window_s": batch_window_s,
               "deadline_s": deadline_s, "fallback": fallback,
               "max_inflight": max_inflight, "shard_index": index,
               "n_shards": shards, "shard_restarts": restarts}
        child = context.Process(target=_shard_main, args=(cfg,),
                                daemon=False)
        child.start()
        return child

    supervisor = ShardSupervisor(shards, spawn_shard,
                                 max_restarts=max_restarts,
                                 announce=_announce)

    def forward(signum, frame):
        supervisor.request_shutdown()

    previous = {sig: signal.signal(sig, forward)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        codes = supervisor.run()
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        supervisor.request_shutdown()
    bad = [c for c in codes if c not in (0, -signal.SIGTERM)]
    if bad:
        print(f"shard exit codes: {codes}", file=sys.stderr)
    return max(bad, default=0)
