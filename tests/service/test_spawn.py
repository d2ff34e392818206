"""End to end: ``python -m repro serve`` as a real process.

Spawns the daemon on an ephemeral port, reads its ``LISTENING`` line,
sends binary ``act`` frames for several flows through
:class:`ServiceClient`, checks the ``stats`` ledger, then SIGTERMs it
and expects a clean drain.  No timing threshold.
"""

from __future__ import annotations

import asyncio
import math
import select
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.service import ServiceClient

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
N_FLOWS, PER_FLOW = 6, 8
TIMEOUT_S = 60.0


def read_listening(proc: subprocess.Popen) -> tuple[str, int]:
    """The ``(host, port)`` of the daemon's first stdout line."""
    ready = select.select([proc.stdout], [], [], TIMEOUT_S)[0]
    line = proc.stdout.readline() if ready else ""
    parts = line.split()
    assert parts[:1] == ["LISTENING"], \
        f"no LISTENING line: {line!r} (rc={proc.poll()})"
    return parts[1], int(parts[2])


async def drive(addr: tuple[str, int]) -> tuple[list[float], dict]:
    client = ServiceClient([addr], conns_per_shard=2)
    try:
        in_dim = int((await client.stats(timeout=TIMEOUT_S))["in_dim"])
        rng = np.random.default_rng(0)
        states = rng.normal(size=(N_FLOWS, in_dim))
        actions = await asyncio.gather(*[
            client.act(flow, states[flow], timeout=TIMEOUT_S)
            for _ in range(PER_FLOW) for flow in range(N_FLOWS)])
        return actions, await client.stats(timeout=TIMEOUT_S)
    finally:
        await client.aclose()


def test_spawned_daemon_answers_every_act_and_drains_on_sigterm():
    cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
           "--port", "0"]
    with subprocess.Popen(cmd, env={"PYTHONPATH": str(SRC_DIR)},
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            actions, stats = asyncio.run(drive(read_listening(proc)))
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert len(actions) == N_FLOWS * PER_FLOW
    assert all(isinstance(a, float) and math.isfinite(a) and abs(a) < 1
               for a in actions)
    assert stats["counters"]["requests"] == N_FLOWS * PER_FLOW
    assert proc.returncode == 0, err
