"""Fleet scaling benchmark: flows simulated per wall-second, 10 → 10k.

``repro bench fleet`` is the scaling headline of the sharded fleet
runner (:mod:`repro.fleet`): for each point of a shard-count x
flows-per-shard sweep it runs the same fleet twice — single-process
(``workers=1``) and through the process pool — and records wall-clock,
flows per wall-second, and the work metric **flow·ticks per
wall-second** (flows x engine ticks simulated, the quantity that is
invariant to how the sweep splits flows across shards).  The artifact
embeds the serial-vs-sharded equivalence verdict (aggregate fairness /
utilization must be *bit-identical* for any worker count) and a speedup
gate that records the multi-core expectation explicitly: on a >= 2-core
host the sharded leg must reach ``REQUIRED_SPEEDUP`` x the serial
throughput at >= ``GATE_MIN_FLOWS`` flows; on a single-core host the
gate is recorded as not applicable rather than silently passed.

Result persists as ``benchmarks/results/BENCH_fleet.json`` following
the ``BENCH_train`` pattern (strict JSON, gating ``--check-only`` in CI,
informational ``--small``).
"""

from __future__ import annotations

import os
import time

from ..fleet import FleetSpec, check_equivalence, run_fleet
from .registry import Bench, Flag, status
from .reporting import format_table

BENCH_ID = "BENCH_fleet"

#: (n_shards, flows_per_shard) sweep points of the full benchmark —
#: total flows 10, 100, 1 000, 10 000.
FLEET_POINTS = ((1, 10), (4, 25), (25, 40), (100, 100))

#: CI subset: same shape, two decades only.
SMALL_POINTS = ((1, 10), (4, 25))

#: The acceptance gate: sharded throughput vs single-process, evaluated
#: at points with at least GATE_MIN_FLOWS flows on hosts with at least
#: GATE_MIN_CORES cores.
REQUIRED_SPEEDUP = 3.0
GATE_MIN_FLOWS = 1000
GATE_MIN_CORES = 2


def _leg(result) -> dict:
    """The recorded numbers of one (serial or sharded) fleet run."""
    rates = result.throughput()
    return {
        "workers": result.workers,
        "elapsed_s": result.elapsed_s,
        "total_flows": result.total_flows,
        "total_ticks": result.total_ticks,
        "flow_ticks": result.flow_ticks,
        "flows_per_wall_s": rates["flows_per_wall_s"],
        "flow_ticks_per_wall_s": rates["flow_ticks_per_wall_s"],
        "jain": result.jain,
        "utilization": result.utilization,
        "failures": len(result.failures),
    }


def _heartbeat(report, leg: str):
    """Adapt a message callback to ``parallel_map``'s progress hook.

    Emits roughly ten lines per leg however many shards there are, so an
    hour-scale fleet still heartbeats without drowning a 100-shard sweep
    in per-shard output.
    """
    if report is None:
        return None
    def callback(done: int, total: int, index: int, record) -> None:
        stride = max(1, total // 10)
        if done % stride == 0 or done == total:
            report(f"  [{done}/{total}] {leg} shard {index} done")
    return callback


def measure_point(n_shards: int, flows_per_shard: int, *, cc: str = "cubic",
                  seed: int = 0, workers: int = 2,
                  progress=None) -> dict:
    """One sweep point: the same fleet, single-process then sharded.

    ``progress`` (a message callback) receives per-shard heartbeat
    lines from both legs.
    """
    spec = FleetSpec(cc=cc, n_shards=n_shards,
                     flows_per_shard=flows_per_shard, seed=seed,
                     quick=True, epochs=4)
    serial = run_fleet(spec, workers=1,
                       progress=_heartbeat(progress, "serial"))
    sharded = run_fleet(spec, workers=max(2, workers),
                        progress=_heartbeat(progress, "sharded"))
    serial_leg, sharded_leg = _leg(serial), _leg(sharded)
    speedup = (sharded_leg["flow_ticks_per_wall_s"]
               / max(serial_leg["flow_ticks_per_wall_s"], 1e-9))
    return {
        "n_shards": n_shards,
        "flows_per_shard": flows_per_shard,
        "total_flows": spec.total_flows,
        "serial": serial_leg,
        "sharded": sharded_leg,
        "speedup": speedup,
        "aggregates_identical":
            serial.fingerprint() == sharded.fingerprint(),
    }


def speedup_gate(points: list[dict], cpu_count: int | None = None) -> dict:
    """Evaluate the >= 3x-at->=1000-flows gate, honestly per-host.

    On hosts below ``GATE_MIN_CORES`` cores the gate cannot be met by
    construction (there is no parallel hardware), so ``applicable`` is
    recorded ``False`` and ``met`` is ``None`` — never a silent pass.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    eligible = [p for p in points if p["total_flows"] >= GATE_MIN_FLOWS]
    applicable = cpu_count >= GATE_MIN_CORES and bool(eligible)
    best = max((p["speedup"] for p in eligible), default=None)
    return {
        "required_speedup": REQUIRED_SPEEDUP,
        "min_flows": GATE_MIN_FLOWS,
        "min_cores": GATE_MIN_CORES,
        "cpu_count": cpu_count,
        "applicable": applicable,
        "best_speedup": best,
        "met": (best is not None and best >= REQUIRED_SPEEDUP)
            if applicable else None,
    }


def run_fleet_benchmark(points=FLEET_POINTS, *, cc: str = "cubic",
                        seed: int = 0, workers: int = 2,
                        small: bool = False, progress=None) -> dict:
    """Full benchmark: the scaling sweep plus the equivalence verdict.

    ``progress`` (if given) is called with one status line per stage.
    """

    report = progress or (lambda msg: None)

    started = time.perf_counter()
    measured = []
    for n_shards, flows_per_shard in points:
        total = n_shards * flows_per_shard
        report(f"fleet point {n_shards} shard(s) x {flows_per_shard} "
               f"flow(s) = {total} flows (serial + sharded)...")
        measured.append(measure_point(
            n_shards, flows_per_shard, cc=cc, seed=seed, workers=workers,
            progress=progress))
    report("serial-vs-sharded equivalence check...")
    equivalence = check_equivalence(workers=workers)
    return {
        "bench": BENCH_ID,
        "small": small,
        "cc": cc,
        "seed": seed,
        "cpu_count": os.cpu_count() or 1,
        "workers": max(2, workers),
        "points": measured,
        "equivalence": equivalence,
        "speedup_gate": speedup_gate(measured),
        "elapsed_s": time.perf_counter() - started,
    }


def fleet_table_rows(payload: dict) -> list[list]:
    """Rows for the human-readable scaling table."""
    rows = []
    for p in payload["points"]:
        rows.append([
            f"{p['n_shards']}x{p['flows_per_shard']}",
            p["total_flows"],
            round(p["serial"]["flow_ticks_per_wall_s"]),
            round(p["sharded"]["flow_ticks_per_wall_s"]),
            f"{p['speedup']:.2f}x",
            f"{p['serial']['jain']:.4f}",
            f"{p['serial']['utilization']:.4f}",
        ])
    return rows


def _pairs(value: str) -> tuple[tuple[int, int], ...]:
    """``4x25,25x40`` -> ``((4, 25), (25, 40))``."""
    out = tuple(tuple(int(v) for v in item.split("x"))
                for item in value.split(",") if item.strip())
    if not out or any(len(p) != 2 for p in out):
        raise ValueError(value)
    return out


def _run(args, progress) -> dict:
    points = SMALL_POINTS if args.small else FLEET_POINTS
    return run_fleet_benchmark(
        points=args.points or points, cc=args.cc, seed=args.seed,
        workers=args.workers, small=args.small, progress=status(progress))


def _check(args) -> tuple[bool, str]:
    verdict = check_equivalence(workers=args.workers)
    if not verdict["passed"]:
        return False, f"FLEET DIVERGENCE: {verdict}"
    fleets = "; ".join(
        f"{spec['cc']} {spec['n_shards']} shards x "
        f"{spec['flows_per_shard']} flows, seed {spec['seed']}"
        for spec in verdict["specs"])
    return True, (f"fleet aggregates identical for workers "
                  f"{verdict['workers_compared']} on the pinned fleets "
                  f"({fleets})")


def _render(payload: dict) -> str:
    eq = payload["equivalence"]
    gate = payload["speedup_gate"]
    table = format_table(
        "Fleet scaling: flow-ticks per wall-second, serial vs sharded",
        ["shards x flows", "flows", "serial ft/s", "sharded ft/s",
         "speedup", "jain", "util"],
        fleet_table_rows(payload))
    if gate["applicable"]:
        gate_line = (f"speedup gate (>= {gate['required_speedup']:g}x at >= "
                     f"{gate['min_flows']} flows): met={gate['met']} "
                     f"(best {gate['best_speedup']:.2f}x on "
                     f"{gate['cpu_count']} CPUs)")
    else:
        gate_line = (f"speedup gate not applicable on this host "
                     f"({gate['cpu_count']} CPU(s) < {gate['min_cores']} or "
                     f"no >= {gate['min_flows']}-flow point measured)")
    return (f"{table}\n"
            f"\nequivalence: {eq['verdict']} for workers "
            f"{eq['workers_compared']}\n{gate_line}")


BENCH = Bench(
    name="fleet",
    bench_id=BENCH_ID,
    title="fleet benchmark",
    help="fleet scaling sweep: flows per wall-second 10 -> 10k, "
         "serial vs sharded (writes BENCH_fleet.json)",
    flags=(
        Flag("--points", default=None, parse=_pairs, example="4x25,25x40",
             help="comma-separated shard-count x flows-per-shard pairs, "
                  "e.g. '4x25,25x40' (default: the 10 -> 10,000 ladder)"),
        Flag("--cc", default="cubic",
             help="scheme every fleet flow runs (default cubic)"),
        Flag("--seed", type=int, default=0, help="fleet seed (default 0)"),
        Flag.workers("pool size of the sharded leg (default 2)", default=2),
        Flag.small("CI smoke subset: the 10- and 100-flow points"),
        Flag("--check-only", action="store_true",
             help="only run the pinned serial-vs-sharded equivalence "
                  "fleets (cubic and astraea); non-zero exit unless the "
                  "aggregates are identical, no artifact written"),
        Flag.OUT_DIR,
    ),
    run=_run,
    render=_render,
    ok=lambda payload: payload["equivalence"]["passed"],
    check=_check,
    gate="check_only",
)
