"""Single-engine microbenchmark: vectorized fast path vs reference.

``repro bench engine`` measures the fluid engine itself — the inner loop
under every training episode, benchmark trial and robustness cell — on
two axes:

* raw **ticks/s** of the engine advanced at MTP-sized blocks
  (:meth:`~repro.netsim.fluid.FluidNetwork.advance_block`) against the
  per-tick reference path, across flow counts;
* **episode wall-clock** of a full ``run_scenario`` (controllers, logs,
  monitors included) on both paths.

It also replays one pinned scenario — qdisc + fault + pacing cap + flow
churn — on both paths and records the worst per-tick per-flow delta, so
the artifact itself witnesses the equivalence contract
(docs/architecture.md §7).  The result persists as
``benchmarks/results/BENCH_engine.json``, the first single-engine point
of the perf trajectory (PR 4's ``BENCH_parallel.json`` covers the
process-pool layer above it).
"""

from __future__ import annotations

import os
import time

import numpy as np

from ..config import LinkConfig, ScenarioConfig
from ..env.multiflow import run_scenario
from ..netsim.faults import Blackout, FaultSchedule, LossBurst
from ..netsim.flowgen import staggered_flows
from ..netsim.fluid import SLOWPATH_ENV, FluidNetwork
from .registry import Bench, Flag, ints, status
from .reporting import format_table

BENCH_ID = "BENCH_engine"

#: Default tick length (2 ms) and controller cadence (~15 ticks/MTP).
TICK_S = 0.002
BLOCK_TICKS = 15

#: Per-tick per-flow tolerance of the fast-vs-reference contract.
EQUIVALENCE_TOL = 1e-9


def _build_raw_engine(n_flows: int, slowpath: bool) -> FluidNetwork:
    link = LinkConfig(bandwidth_mbps=96.0, rtt_ms=30.0, buffer_bdp=1.5)
    net = FluidNetwork(link, slowpath=slowpath)
    for i in range(n_flows):
        net.add_flow(0.02 + 0.005 * i, cwnd_pkts=50.0 + 5.0 * i)
    return net


def measure_ticks_per_s(n_flows: int, duration_s: float = 30.0,
                        tick_s: float = TICK_S,
                        block_ticks: int = BLOCK_TICKS) -> dict:
    """Raw engine throughput, fast (blocked) vs reference (per tick).

    The fast leg advances in ``block_ticks`` batches — the cadence the
    scenario driver uses between MTP decisions; the reference leg is one
    ``advance`` call per tick, exactly the pre-fast-path execution model.
    Monitors are drained periodically on both legs so ring growth stays
    bounded, as it is in a real episode.
    """
    n_ticks = max(int(duration_s / tick_s), block_ticks)
    n_blocks = n_ticks // block_ticks
    n_ticks = n_blocks * block_ticks

    def drain(net: FluidNetwork) -> None:
        net.collect_stats(net.slots(net.flow_ids), net.now)

    results = {}
    for label, slowpath in (("fast", False), ("reference", True)):
        net = _build_raw_engine(n_flows, slowpath)
        start = time.perf_counter()
        if slowpath:
            for b in range(n_blocks):
                for _ in range(block_ticks):
                    net.advance(tick_s)
                drain(net)
        else:
            for b in range(n_blocks):
                net.advance_block(tick_s, block_ticks)
                drain(net)
        elapsed = time.perf_counter() - start
        results[label] = {
            "elapsed_s": elapsed,
            "ticks_per_s": n_ticks / elapsed if elapsed > 0 else None,
        }
    fast = results["fast"]["ticks_per_s"]
    ref = results["reference"]["ticks_per_s"]
    return {
        "n_flows": n_flows,
        "n_ticks": n_ticks,
        "block_ticks": block_ticks,
        "fast": results["fast"],
        "reference": results["reference"],
        "speedup": fast / ref if fast and ref else None,
    }


def _episode_scenario(n_flows: int, duration_s: float) -> ScenarioConfig:
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=96.0, rtt_ms=30.0, buffer_bdp=1.5),
        flows=staggered_flows(n_flows, "cubic", interval_s=2.0,
                              duration_s=duration_s),
        duration_s=duration_s,
        seed=11,
    )


def _run_with_engine(scenario: ScenarioConfig, slowpath: bool):
    """Run a scenario with the engine path pinned via the environment.

    The slow-path flag is read at :class:`FluidNetwork` construction, so
    toggling the variable around ``run_scenario`` is race-free in
    process.
    """
    saved = os.environ.get(SLOWPATH_ENV)
    os.environ[SLOWPATH_ENV] = "1" if slowpath else "0"
    try:
        return run_scenario(scenario)
    finally:
        if saved is None:
            os.environ.pop(SLOWPATH_ENV, None)
        else:
            os.environ[SLOWPATH_ENV] = saved


def measure_episode(n_flows: int, duration_s: float = 30.0) -> dict:
    """Wall-clock of one full scenario episode on both engine paths."""
    scenario = _episode_scenario(n_flows, duration_s)
    out = {"n_flows": n_flows, "duration_s": duration_s}
    for label, slowpath in (("fast", False), ("reference", True)):
        start = time.perf_counter()
        _run_with_engine(scenario, slowpath)
        out[label] = {"elapsed_s": time.perf_counter() - start}
    fast = out["fast"]["elapsed_s"]
    ref = out["reference"]["elapsed_s"]
    out["speedup"] = ref / fast if fast > 0 else None
    return out


def _pinned_scenario() -> ScenarioConfig:
    """The gating equivalence scenario: qdisc + faults + churn + pacing."""
    flows = staggered_flows(3, "cubic", interval_s=3.0, duration_s=10.0)
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=48.0, rtt_ms=30.0, buffer_bdp=1.5,
                        qdisc="red"),
        flows=flows,
        duration_s=14.0,
        seed=23,
        faults=FaultSchedule([
            Blackout(start_s=4.0, duration_s=0.5),
            LossBurst(start_s=8.0, duration_s=0.5, loss_rate=0.1),
        ]),
    )


def check_equivalence(tolerance: float = EQUIVALENCE_TOL) -> dict:
    """Replay the pinned scenario on both paths and compare all logs."""
    scenario = _pinned_scenario()
    ref = _run_with_engine(scenario, slowpath=True)
    fast = _run_with_engine(scenario, slowpath=False)
    max_delta = 0.0
    rows = 0
    for a, b in zip(ref.flows, fast.flows):
        if a.times != b.times:
            return {"passed": False, "max_delta": None, "rows": rows,
                    "tolerance": tolerance,
                    "reason": "controller timelines diverged"}
        rows += len(a.times)
        for series in ("throughput_mbps", "rtt_s", "loss_rate",
                       "cwnd_pkts", "send_rate_mbps"):
            da = np.asarray(getattr(a, series))
            db = np.asarray(getattr(b, series))
            if len(da):
                max_delta = max(max_delta, float(np.max(np.abs(da - db))))
    return {
        "passed": max_delta <= tolerance,
        "max_delta": max_delta,
        "rows": rows,
        "tolerance": tolerance,
    }


def run_engine_benchmark(flow_counts: tuple[int, ...] = (1, 2, 8, 16),
                         duration_s: float = 30.0,
                         episode_flows: int = 8,
                         progress=None) -> dict:
    """Full benchmark: ticks/s across flow counts, one episode, equivalence.

    Returns the ``BENCH_engine`` payload; ``progress`` (if given) is
    called with one status line per stage.
    """

    report = progress or (lambda msg: None)

    ticks = []
    for n in flow_counts:
        report(f"ticks/s at {n} flow(s)...")
        ticks.append(measure_ticks_per_s(n, duration_s=duration_s))
    report(f"episode wall-clock at {episode_flows} flow(s)...")
    episode = measure_episode(episode_flows, duration_s=duration_s)
    report("equivalence check...")
    equivalence = check_equivalence()
    return {
        "bench": BENCH_ID,
        "tick_s": TICK_S,
        "block_ticks": BLOCK_TICKS,
        "duration_s": duration_s,
        "flow_counts": list(flow_counts),
        "ticks_per_s": ticks,
        "episode": episode,
        "equivalence": equivalence,
    }


def _run(args, progress) -> dict:
    flow_counts = (2, 8) if args.small else (1, 2, 8, 16)
    return run_engine_benchmark(
        flow_counts=args.flows or flow_counts,
        duration_s=5.0 if args.small else args.duration,
        progress=status(progress))


def _check(args) -> tuple[bool, str]:
    verdict = check_equivalence()
    if not verdict["passed"]:
        return False, f"ENGINE DIVERGENCE: {verdict}"
    return True, (f"fast path equals reference on the pinned scenario "
                  f"({verdict['rows']} log rows, max delta "
                  f"{verdict['max_delta']:.3g} <= {verdict['tolerance']:g})")


def _render(payload: dict) -> str:
    ep = payload["episode"]
    eq = payload["equivalence"]
    table = format_table(
        "Engine fast path vs per-tick reference",
        ["flows", "fast ticks/s", "reference ticks/s", "speedup"],
        [[row["n_flows"], row["fast"]["ticks_per_s"],
          row["reference"]["ticks_per_s"], row["speedup"]]
         for row in payload["ticks_per_s"]])
    return (f"{table}\n"
            f"\nepisode ({ep['n_flows']} flows, {ep['duration_s']:g}s): "
            f"fast {ep['fast']['elapsed_s']:.2f}s vs reference "
            f"{ep['reference']['elapsed_s']:.2f}s "
            f"(speedup {ep['speedup']:.2f}x)\n"
            f"equivalence: passed={eq['passed']} "
            f"max_delta={eq['max_delta']:.3g} over {eq['rows']} rows")


BENCH = Bench(
    name="engine",
    bench_id=BENCH_ID,
    title="engine benchmark",
    help="fluid-engine fast path vs per-tick reference "
         "(writes BENCH_engine.json)",
    flags=(
        Flag("--flows", default=None, parse=ints, example="1,2,8,16",
             help="comma-separated flow counts for the ticks/s sweep "
                  "(default: 1,2,8,16)"),
        Flag("--duration", type=float, default=30.0,
             help="simulated seconds per measurement (default 30)"),
        Flag.small("CI smoke subset: 2 and 8 flows, 5 s episodes"),
        Flag("--check-only", action="store_true",
             help="only run the pinned fast-vs-reference equivalence "
                  "scenario; non-zero exit on any divergence, no artifact "
                  "written"),
        Flag.OUT_DIR,
    ),
    run=_run,
    render=_render,
    ok=lambda payload: payload["equivalence"]["passed"],
    check=_check,
    gate="check_only",
)
