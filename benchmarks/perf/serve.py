"""The ``serve_open`` workload: the daemon under open-loop load.

Spawns ``python -m repro serve --shards 1`` (or, for the traced run, the
launcher ``traced_daemon.py`` that wraps the same ``serve_main`` call in
span timers), then offers two kinds of phase over the wire protocol, in
alternating slices so that a burst of host noise lands on one slice of
each and the summary over slices shrugs it off:

* ``lo`` — 80 flows, each due once per 20 ms monitoring period: 4000
  actions/s, about a third of the sizing host's knee.  Queueing is
  negligible, so latency shows the batching-window floor.
* ``hi`` — 160 flows, 8000 actions/s, about two thirds of the knee.
  Latency rises before throughput stops rising, so a CPU saving or a
  queueing change shows here first; CPU per action is read here too.

Daemon CPU and peak memory come from ``/proc/<pid>``; the daemon's own
view of the same interval comes from its ``stats`` verb before and after
each phase.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from collections import deque

import openloop
from envelope import ROOT, program_env
from inproc import Check
from quant import percentile

MTP_S = 0.020
ON_TIME_MS = 20.0
PHASES = {"lo": 80, "hi": 160}
N_SOCKETS = 4
DAEMON_ARGS = ["--host", "127.0.0.1", "--port", "0", "--shards", "1",
               "--window", "0.005", "--deadline", "0.05",
               "--max-inflight", "4096"]
#: A phase whose generator lateness p99 exceeds this measured the
#: generator, not the daemon.
MAX_GEN_LATE_P99_MS = 10.0

_CLK_TCK = os.sysconf("SC_CLK_TCK")


class Daemon:
    """One daemon subprocess: spawn, observe through /proc, drain."""

    def __init__(self, traced: bool):
        command = [sys.executable, "-u"]
        command += [str(ROOT / "benchmarks" / "perf" / "traced_daemon.py")] \
            if traced else ["-m", "repro", "serve"]
        self.proc = subprocess.Popen(
            command + DAEMON_ARGS, cwd=ROOT, env=program_env(),
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
        self._pending = b""
        #: Last few stdout lines, for the error message of ``expect``.
        self.lines: deque[str] = deque(maxlen=3)
        try:
            self.addr = self._await_listening()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise

    def read_line(self, timeout_s: float) -> str | None:
        """Next stdout line, or ``None`` on timeout / end of stream."""
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + timeout_s
        while b"\n" not in self._pending:
            ready, _, _ = select.select(
                [fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._pending += chunk
        raw, self._pending = self._pending.split(b"\n", 1)
        line = raw.decode("utf-8", "replace")
        self.lines.append(line)
        return line

    def expect(self, prefix: str, timeout_s: float) -> str:
        deadline = time.monotonic() + timeout_s
        while True:
            line = self.read_line(max(0.0, deadline - time.monotonic()))
            if line is None:
                raise RuntimeError(
                    f"daemon printed no {prefix!r} line within {timeout_s}s "
                    f"(exit code {self.proc.poll()}, saw {list(self.lines)})")
            if line.startswith(prefix):
                return line

    def _await_listening(self) -> tuple[str, int]:
        _, host, port, *_ = self.expect("LISTENING", 60.0).split()
        return host, int(port)

    def cpu_s(self) -> float:
        """user + system CPU seconds of the daemon process so far."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            # comm may contain spaces: fields are counted after ')'.
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def span_snapshot(self) -> dict:
        """Ask the traced launcher for its span totals (SIGUSR1)."""
        self.proc.send_signal(signal.SIGUSR1)
        return json.loads(self.expect("SPANS ", 10.0)[len("SPANS "):])

    def drain(self) -> int:
        """SIGTERM, wait for the graceful drain, return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        while self.read_line(0.0) is not None:
            pass
        self.proc.stdout.close()
        return self.proc.returncode


def _connect(addr) -> list[socket.socket]:
    socks = []
    for _ in range(N_SOCKETS):
        sock = socket.create_connection(addr, timeout=10.0)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        socks.append(sock)
    return socks


class Session:
    """A connected daemon plus the generated inputs of one seed."""

    def __init__(self, seed: int, traced: bool):
        from repro.service.daemon import encode_frame

        self.encode_frame = encode_frame
        self.daemon = Daemon(traced)
        self.socks = []
        try:
            self.socks = _connect(self.daemon.addr)
            rng = random.Random(seed)
            in_dim = self.stats()["in_dim"]
            n_flows = max(PHASES.values())
            self.templates = [
                openloop.frame_template(
                    encode_frame, flow,
                    [rng.gauss(0.0, 1.0) for _ in range(in_dim)])
                for flow in range(n_flows)]
            self.offsets_s = [rng.uniform(0.0, MTP_S) for _ in range(n_flows)]
            self._next_id = openloop.ID_BASE
            # Discarded warm-up: first batches, allocator, TCP windows.
            self.phase("lo", 0.3)
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict:
        reply = openloop.call(self.socks[0],
                              self.encode_frame({"op": "stats", "id": 0}))
        if not reply.get("ok"):
            raise RuntimeError(f"stats verb failed: {reply}")
        return reply

    def phase(self, name: str, seconds: float) -> dict:
        """Run one phase; returns its ledger, daemon deltas and health."""
        n_flows = PHASES[name]
        before, cpu0 = self.stats(), self.daemon.cpu_s()
        ledger = openloop.run_phase(
            self.socks, self.templates[:n_flows], self.offsets_s[:n_flows],
            mtp_s=MTP_S, duration_s=seconds, first_id=self._next_id)
        self._next_id += ledger.scheduled
        cpu1, after = self.daemon.cpu_s(), self.stats()
        counters = {key: after["counters"][key] - before["counters"][key]
                    for key in after["counters"]
                    if isinstance(after["counters"][key], (int, float))}
        ok = ledger.count(openloop.OK)
        lat = ledger.ok_latencies_ms()
        return {
            "name": name, "ledger": ledger, "ok": ok,
            "errors": ledger.count(openloop.ERROR),
            "unanswered": ledger.count(openloop.UNANSWERED),
            "on_time": sum(1 for v in lat if v <= ON_TIME_MS),
            "latencies_ms": lat,
            "p99_ms": percentile(lat, 99.0) if lat else 0.0,
            "daemon_cpu_s": cpu1 - cpu0,
            "counters": counters,
            "hist_p99_ms": after["latency"]["p99_s"] * 1e3,
            "gen_late_p99_ms": percentile(ledger.late_ms, 99.0),
            "gen_cpu_share": ledger.gen_cpu_s / max(ledger.wall_s, 1e-9),
        }

    def closed_loop_act_us(self, n: int = 60) -> float:
        """Median ``ServiceClient.act`` round trip, one request in flight."""
        import asyncio

        from repro.service.daemon import ServiceClient

        state = [0.1] * self.stats()["in_dim"]

        async def probe() -> list[float]:
            client = ServiceClient([self.daemon.addr], conns_per_shard=1)
            try:
                samples = []
                for _ in range(n):
                    t0 = time.perf_counter()
                    await client.act(0, state)
                    samples.append((time.perf_counter() - t0) * 1e6)
                return samples
            finally:
                await client.aclose()

        return percentile(asyncio.run(probe()), 50.0)

    def close(self) -> None:
        """Disconnect and drain the daemon; its exit code is kept."""
        for sock in self.socks:
            sock.close()
        self.exit_code = self.daemon.drain()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def phase_checks(phases: list[dict]) -> list[Check]:
    """The serving ledger, over every phase slice that ran."""
    unbalanced, unanswered, miscounted = [], [], []
    for i, phase in enumerate(phases):
        ledger, label = phase["ledger"], f"{i}:{phase['name']}"
        if ledger.scheduled != phase["ok"] + phase["errors"] \
                + phase["unanswered"] \
                or len(ledger.due_s) != ledger.scheduled:
            unbalanced.append(label)
        if phase["ok"] != ledger.scheduled or ledger.connection_lost:
            unanswered.append(
                f"{label} ok={phase['ok']} error={phase['errors']} "
                f"unanswered={phase['unanswered']} of {ledger.scheduled}")
        if phase["counters"].get("requests") != ledger.scheduled:
            miscounted.append(
                f"{label} daemon {phase['counters'].get('requests')} vs "
                f"sent {ledger.scheduled}")
    return [
        Check("ledger balances (scheduled = ok + error + unanswered, "
              "all sent)", not unbalanced, "; ".join(unbalanced)),
        Check("every request answered ok", not unanswered,
              "; ".join(unanswered)),
        Check("daemon 'requests' delta equals frames sent",
              not miscounted, "; ".join(miscounted)),
    ]


def health_notes(phase: dict) -> list[str]:
    """Why a phase's latencies should not be trusted, if so."""
    notes = []
    if phase["gen_late_p99_ms"] > MAX_GEN_LATE_P99_MS:
        notes.append(
            f"INVALID phase {phase['name']}: generator lateness p99 "
            f"{phase['gen_late_p99_ms']:.2f} ms > {MAX_GEN_LATE_P99_MS} ms")
    if phase["gen_cpu_share"] >= 0.5:
        notes.append(
            f"phase {phase['name']}: generator used "
            f"{phase['gen_cpu_share']:.2f} of a core")
    return notes
