"""Serving-scale load benchmark: ``repro bench serve``.

Drives a *live* ``repro serve`` daemon over loopback TCP with an
asyncio load generator and records the repo's first direct
serving-scale numbers — actions/s and p50/p99/p999 service latency as
a function of the number of concurrent simulated flows — into
``benchmarks/results/BENCH_serve.json``.

Methodology
-----------
* Each simulated flow is a closed-loop asyncio task: it issues one
  inference request, awaits the answer, then sleeps until its next MTP
  tick (20 ms, the cadence of :func:`synthetic_request_trace`).  Closed
  loops self-clock under overload — the daemon slowing down lowers the
  offered rate instead of growing an unbounded client-side queue,
  exactly how real senders behave.
* Every request is entered in a per-flow ledger (sent / answered /
  errors).  The benchmark *fails* a level if any request goes
  unanswered — this is the acceptance check that a daemon sustains the
  level without dropping anything, not just a throughput probe.
* Latency is measured client-side around the full round trip (encode,
  loopback, batching wait, forward pass, decode) with exact
  percentiles from the raw sample list; the daemon's own histogram and
  batching counters are snapshotted per level via the ``stats`` verb
  and reported as deltas.
* By default the benchmark spawns ``python -m repro serve --port 0``
  as a subprocess, parses its ``LISTENING`` line(s), runs the sweep,
  then SIGTERMs it and asserts a clean drain (exit 0) — so every run
  also exercises startup and graceful shutdown end to end.  Use
  ``connect=[(host, port), ...]`` to aim at an already-running daemon.
"""

from __future__ import annotations

import asyncio
import os
import signal
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from ..errors import ServiceError
from ..service.daemon import ServiceClient
from .registry import Bench, Flag, ints, status
from .reporting import format_table

BENCH_ID = "BENCH_serve"

#: Default concurrent-flow sweep (the paper batched ~2800 flows/core).
DEFAULT_LEVELS = (8, 64, 256, 1024)
#: CI smoke subset: small levels, short windows, still 3 points.
SMALL_LEVELS = (4, 16, 64)

DEFAULT_MTP_S = 0.020
_SPAWN_TIMEOUT_S = 60.0


def _percentiles(samples: list[float]) -> dict[str, float]:
    if not samples:
        return {"count": 0, "mean_s": 0.0, "p50_s": 0.0, "p99_s": 0.0,
                "p999_s": 0.0, "max_s": 0.0}
    arr = np.asarray(samples)
    return {
        "count": int(arr.size),
        "mean_s": float(arr.mean()),
        "p50_s": float(np.percentile(arr, 50)),
        "p99_s": float(np.percentile(arr, 99)),
        "p999_s": float(np.percentile(arr, 99.9)),
        "max_s": float(arr.max()),
    }


async def _flow_task(client: ServiceClient, fid: int, state: list[float],
                     end_t: float, mtp_s: float, timeout: float,
                     ledger: dict) -> None:
    loop = asyncio.get_running_loop()
    # Desynchronised phases, deterministic per flow (no shared RNG).
    next_t = loop.time() + (fid % 64) / 64.0 * mtp_s
    latencies = ledger["latencies"]
    errors = ledger["errors"]
    while True:
        now = loop.time()
        if next_t > end_t:
            break
        if next_t > now:
            await asyncio.sleep(next_t - now)
        ledger["sent"] += 1
        t0 = loop.time()
        try:
            await client.act(fid, state, timeout=timeout)
        except (ServiceError, asyncio.TimeoutError) as exc:
            errors[type(exc).__name__] = errors.get(
                type(exc).__name__, 0) + 1
        else:
            ledger["answered"] += 1
            latencies.append(loop.time() - t0)
        next_t += mtp_s


def _stats_delta(before: dict, after: dict) -> dict:
    """Per-level view of the daemon's cumulative counters."""
    b, a = before["counters"], after["counters"]
    batches = a["batch_count"] - b["batch_count"]
    batch_pkts = a["batch_sum"] - b["batch_sum"]
    return {
        "requests": a["requests"] - b["requests"],
        "forward_passes": a["forward_passes"] - b["forward_passes"],
        "mean_batch_size": batch_pkts / batches if batches else 0.0,
        "fallbacks": a["fallbacks"] - b["fallbacks"],
        "deadline_misses": a["deadline_misses"] - b["deadline_misses"],
        "neutral_answers": a["neutral_answers"] - b["neutral_answers"],
        "rejected": a["rejected"] - b["rejected"],
        "admission_rejected": (a["daemon_admission_rejected"]
                               - b["daemon_admission_rejected"]),
        "cpu_time_s": a["cpu_time_s"] - b["cpu_time_s"],
    }


async def _run_level(client: ServiceClient, n_flows: int, state_dim: int,
                     duration_s: float, mtp_s: float, timeout: float,
                     ) -> dict:
    rng = np.random.default_rng(n_flows)
    states = [[float(v) for v in rng.normal(size=state_dim)]
              for _ in range(min(n_flows, 32))]
    ledgers = [{"sent": 0, "answered": 0, "latencies": [], "errors": {}}
               for _ in range(n_flows)]
    before = await client.stats(timeout=timeout)
    loop = asyncio.get_running_loop()
    t_start = loop.time()
    end_t = t_start + duration_s
    await asyncio.gather(*[
        _flow_task(client, fid, states[fid % len(states)], end_t, mtp_s,
                   timeout, ledgers[fid])
        for fid in range(n_flows)])
    elapsed = loop.time() - t_start
    after = await client.stats(timeout=timeout)

    sent = sum(led["sent"] for led in ledgers)
    answered = sum(led["answered"] for led in ledgers)
    errors: dict[str, int] = {}
    for led in ledgers:
        for name, count in led["errors"].items():
            errors[name] = errors.get(name, 0) + count
    latencies = [lat for led in ledgers for lat in led["latencies"]]
    return {
        "n_flows": n_flows,
        "duration_s": duration_s,
        "elapsed_s": elapsed,
        "requests": sent,
        "answered": answered,
        "errors": errors,
        "unanswered": sent - answered - sum(errors.values()),
        "actions_per_s": answered / elapsed if elapsed > 0 else 0.0,
        "latency": _percentiles(latencies),
        "daemon": _stats_delta(before, after),
    }


async def _spawn_daemon(shards: int, scheme: str, window_s: float,
                        deadline_s: float | None, max_inflight: int,
                        ) -> tuple[asyncio.subprocess.Process,
                                   list[tuple[str, int]]]:
    src_dir = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
           "--port", "0", "--shards", str(shards), "--scheme", scheme,
           "--window", str(window_s), "--max-inflight", str(max_inflight),
           "--deadline", str(deadline_s if deadline_s is not None else 0)]
    proc = await asyncio.create_subprocess_exec(
        *cmd, env=env, stdout=asyncio.subprocess.PIPE, stderr=None)
    addrs: list[tuple[str, int]] = []
    try:
        async with asyncio.timeout(_SPAWN_TIMEOUT_S):
            while len(addrs) < shards:
                line = await proc.stdout.readline()
                if not line:
                    raise ServiceError(
                        f"daemon exited before announcing its port(s) "
                        f"(rc={proc.returncode})")
                parts = line.decode().split()
                if parts[:1] == ["LISTENING"]:
                    addrs.append((parts[1], int(parts[2])))
    except TimeoutError:
        proc.kill()
        raise ServiceError("daemon did not announce its port in time")
    return proc, addrs


async def _drain_stdout(proc: asyncio.subprocess.Process) -> None:
    # The daemon announces DRAINING/STOPPED on stdout; keep the pipe
    # drained so a chatty shutdown can never block it.
    while True:
        line = await proc.stdout.readline()
        if not line:
            return


async def _run_benchmark(levels, duration_s, mtp_s, shards, scheme,
                         window_s, deadline_s, max_inflight,
                         conns_per_shard, timeout, connect, progress,
                         ) -> dict:
    proc = None
    if connect:
        addrs = list(connect)
    else:
        proc, addrs = await _spawn_daemon(shards, scheme, window_s,
                                          deadline_s, max_inflight)
        if progress is not None:
            progress(f"daemon up: {addrs}")
    clean_shutdown = None
    try:
        client = ServiceClient(addrs, conns_per_shard=conns_per_shard)
        hello = await client.stats(timeout=timeout)
        state_dim = int(hello["in_dim"])
        rows = []
        for n_flows in levels:
            row = await _run_level(client, n_flows, state_dim,
                                   duration_s, mtp_s, timeout)
            rows.append(row)
            if progress is not None:
                lat = row["latency"]
                progress(
                    f"{n_flows:5d} flows: {row['actions_per_s']:8.0f} "
                    f"actions/s  p50 {lat['p50_s'] * 1e3:6.2f} ms  "
                    f"p99 {lat['p99_s'] * 1e3:6.2f} ms  "
                    f"unanswered {row['unanswered']}")
        await client.aclose()
    finally:
        if proc is not None:
            drainer = asyncio.create_task(_drain_stdout(proc))
            if proc.returncode is None:
                proc.send_signal(signal.SIGTERM)
            try:
                async with asyncio.timeout(_SPAWN_TIMEOUT_S):
                    await proc.wait()
            except TimeoutError:
                proc.kill()
                await proc.wait()
            await drainer
            clean_shutdown = proc.returncode == 0
    return {
        "bench": "serve",
        "config": {
            "levels": list(levels),
            "duration_s": duration_s,
            "mtp_s": mtp_s,
            "shards": shards if not connect else len(addrs),
            "scheme": scheme,
            "window_s": window_s,
            "deadline_s": deadline_s,
            "max_inflight": max_inflight,
            "conns_per_shard": conns_per_shard,
            "external_daemon": bool(connect),
        },
        "levels": rows,
        "clean_shutdown": clean_shutdown,
    }


def run_serve_benchmark(levels=DEFAULT_LEVELS, *, duration_s: float = 3.0,
                        mtp_s: float = DEFAULT_MTP_S, shards: int = 1,
                        scheme: str = "astraea",
                        window_s: float = 0.005,
                        deadline_s: float | None = 0.050,
                        max_inflight: int = 4096,
                        conns_per_shard: int = 8,
                        timeout: float = 30.0,
                        connect: list[tuple[str, int]] | None = None,
                        progress: Callable[[str], None] | None = None,
                        ) -> dict:
    """Run the serving load sweep; returns the artifact payload.

    Spawns (and cleanly drains) a daemon subprocess unless ``connect``
    names a running one.  Raises :class:`~repro.errors.ServiceError` if
    any level leaves a request unanswered — a daemon that loses
    requests has no business reporting a throughput number.
    """
    levels = tuple(int(v) for v in levels)
    if not levels or any(v <= 0 for v in levels):
        raise ServiceError(f"invalid concurrency levels {levels!r}")
    if duration_s <= 0 or mtp_s <= 0:
        raise ServiceError("duration and MTP must be positive")
    payload = asyncio.run(_run_benchmark(
        levels, duration_s, mtp_s, shards, scheme, window_s, deadline_s,
        max_inflight, conns_per_shard, timeout, connect, progress))
    t = time.time()
    payload["wall_time_s"] = t
    bad = [row for row in payload["levels"] if row["unanswered"] > 0]
    if bad:
        raise ServiceError(
            "unanswered requests at level(s) "
            + ", ".join(str(row["n_flows"]) for row in bad)
            + " — the per-request ledger must balance")
    if payload["clean_shutdown"] is False:
        raise ServiceError("daemon did not shut down cleanly on SIGTERM")
    return payload


def _endpoints(value: str) -> list[tuple[str, int]]:
    """``host:port,:port`` -> ``[(host, port), ("127.0.0.1", port)]``."""
    out = []
    for item in value.split(","):
        host, _, port = item.strip().rpartition(":")
        out.append((host or "127.0.0.1", int(port)))
    return out


def _run(args, progress) -> dict:
    levels, duration = ((SMALL_LEVELS, 0.6) if args.small
                        else (DEFAULT_LEVELS, args.duration))
    return run_serve_benchmark(
        args.levels or levels, duration_s=duration, mtp_s=args.mtp,
        shards=args.shards, scheme=args.scheme, window_s=args.window,
        deadline_s=args.deadline if args.deadline > 0 else None,
        max_inflight=args.max_inflight,
        conns_per_shard=args.conns_per_shard, timeout=args.timeout,
        connect=args.connect, progress=status(progress))


def _render(payload: dict) -> str:
    text = format_table(
        "Serving daemon under closed-loop load "
        f"({payload['config']['shards']} shard(s), "
        f"{payload['config']['window_s'] * 1e3:g} ms window)",
        ["flows", "actions/s", "p50 (ms)", "p99 (ms)", "p999 (ms)",
         "batch", "unanswered"],
        [[row["n_flows"], row["actions_per_s"],
          row["latency"]["p50_s"] * 1e3, row["latency"]["p99_s"] * 1e3,
          row["latency"]["p999_s"] * 1e3,
          row["daemon"]["mean_batch_size"], row["unanswered"]]
         for row in payload["levels"]])
    if payload["clean_shutdown"] is not None:
        text += f"\n\ndaemon shutdown clean: {payload['clean_shutdown']}"
    return text


BENCH = Bench(
    name="serve",
    bench_id=BENCH_ID,
    title="serve benchmark",
    help="closed-loop load sweep against a live serving daemon "
         "(writes BENCH_serve.json)",
    flags=(
        Flag("--levels", default=None, parse=ints, example="8,64,256",
             help="comma-separated concurrent-flow counts "
                  "(default: 8,64,256,1024)"),
        Flag("--duration", type=float, default=3.0,
             help="seconds of load per level (default 3)"),
        Flag("--mtp", type=float, default=0.020,
             help="per-flow request cadence in seconds"),
        Flag("--shards", type=int, default=1,
             help="daemon shard processes to spawn"),
        Flag("--scheme", default="astraea"),
        Flag("--window", type=float, default=0.005,
             help="daemon batching window in seconds"),
        Flag("--deadline", type=float, default=0.050,
             help="daemon per-request deadline (0 disables)"),
        Flag("--max-inflight", type=int, default=4096),
        Flag("--conns-per-shard", type=int, default=8,
             help="client connections multiplexing the flows"),
        Flag("--timeout", type=float, default=30.0,
             help="per-request client timeout in seconds"),
        Flag("--connect", default=None, parse=_endpoints,
             example="127.0.0.1:8731,127.0.0.1:8732",
             help="comma-separated host:port of an already-running daemon "
                  "(default: spawn one)"),
        Flag.small("CI smoke subset: 4/16/64 flows, 0.6 s levels"),
        Flag.OUT_DIR,
    ),
    run=_run,
    render=_render,
)
