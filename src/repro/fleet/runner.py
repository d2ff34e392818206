"""Sharded fleet runner: thousands of flows across many bottlenecks.

Execution model
---------------
Each shard is an independent :class:`~repro.netsim.fluid.FluidNetwork`
(built from the ``fleet`` scenario family) driven to completion with the
vectorized ``advance_block`` kernel *inside one* :func:`repro.parallel.
parallel_map` dispatch.  The shard's state never crosses a process
boundary: all synchronization epochs of a shard run back-to-back in the
same worker invocation (worker-resident state, one pickle round-trip per
shard), and only fixed-size sufficient statistics come back — per-flow
goodput sums, sums of squares, counts, and capacity, folded into a
:class:`~repro.metrics.fairness.FairnessAccumulator` per shard plus one
aggregate goodput number per epoch.

Determinism
-----------
Shard parameters derive from ``(seed, shard_index)`` via a stable hash,
each shard is computed entirely within one worker, and the parent merges
shard accumulators in shard-index order (``parallel_map`` returns
results in payload order) with plain float adds — so the aggregate is
bit-identical for any worker count, including the serial ``workers=1``
fallback.

Quarantine
----------
A shard that raises is captured *inside* the worker and returned as a
failure record instead of poisoning the pool: the parent emits a
:class:`~repro.errors.ShardFailureWarning` naming the shard index, the
fleet seed, and the derived shard seed (enough to rebuild the shard in
isolation via ``build_scenario("fleet", seed=..., shard_index=...)``),
then aggregates the healthy shards.  ``strict=True`` upgrades the first
failure to a :class:`~repro.errors.SimulationError`; a fleet whose every
shard failed always raises.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

from ..errors import ShardFailureWarning, SimulationError
from ..metrics.fairness import FairnessAccumulator
from ..parallel import parallel_map, resolve_workers
from ..units import pps_to_mbps
from .spec import FleetSpec

#: Fields of a fleet fingerprint that carry wall-clock timing and must
#: be ignored by equivalence comparisons (everything else is exact).
TIMING_FIELDS = ("elapsed_s", "workers")


def _run_shard(payload: dict) -> dict:
    """Worker body: run one shard to completion, return its statistics.

    Exceptions are captured and returned as a failure record — the
    quarantine contract — so one bad shard cannot kill the dispatch.
    Module-level (not a closure) for spawn-context picklability.
    """
    spec = FleetSpec.from_dict(payload["spec"])
    index = payload["index"]
    started = time.perf_counter()
    try:
        return _run_shard_inner(spec, index, started)
    except Exception as exc:  # noqa: BLE001 — quarantine, not crash
        return {
            "ok": False,
            "index": index,
            "seed": spec.seed,
            "shard_seed": spec.shard_seed(index),
            "error": type(exc).__name__,
            "message": str(exc),
            "elapsed_s": time.perf_counter() - started,
        }


def _run_shard_inner(spec: FleetSpec, index: int, started: float) -> dict:
    from ..env.multiflow import build_driver
    from ..scenarios import build_scenario

    scenario = build_scenario("fleet", cc=spec.cc, quick=spec.quick,
                              seed=spec.seed,
                              n_flows=spec.flows_per_shard,
                              shard_index=index)
    driver = build_driver(scenario, log=False)
    duration = scenario.duration_s
    boundaries = [duration * (e + 1) / spec.epochs for e in range(spec.epochs)]
    engine = driver.engine

    def delivered_by_index() -> dict[int, float]:
        return {rf.index: engine.flow_delivered_pkts(rf.engine_id)
                for rf in driver.running_flows}

    epoch_goodput_mbps = []
    prev = {i: 0.0 for i in range(len(scenario.flows))}
    prev_t = 0.0
    alive = True
    for boundary in boundaries:
        # All epochs run in this same invocation: the shard's engine,
        # monitors, and controllers stay worker-resident across the
        # boundary — an epoch is a statistics snapshot, not a dispatch.
        while alive and driver.now < boundary - 1e-12:
            alive = driver.step_block()
        cur = delivered_by_index()
        span = max(driver.now, prev_t) - prev_t
        delta = sum(cur.values()) - sum(prev.get(i, 0.0) for i in cur)
        epoch_goodput_mbps.append(
            pps_to_mbps(delta / span) if span > 0 else 0.0)
        prev, prev_t = cur, max(driver.now, prev_t)
    while alive:
        alive = driver.step_block()

    final = delivered_by_index()
    span = driver.now if driver.now > 0 else duration
    goodputs = [pps_to_mbps(final.get(i, 0.0) / span)
                for i in range(len(scenario.flows))]
    acc = FairnessAccumulator()
    acc.add(goodputs, capacity=scenario.link.bandwidth_mbps)
    ticks = int(round(driver.now / scenario.tick_s))
    return {
        "ok": True,
        "index": index,
        "seed": spec.seed,
        "shard_seed": spec.shard_seed(index),
        "n_flows": len(scenario.flows),
        "ticks": ticks,
        "sim_s": driver.now,
        "bandwidth_mbps": scenario.link.bandwidth_mbps,
        "rtt_ms": scenario.link.rtt_ms,
        "stats": acc.as_dict(),
        "epoch_goodput_mbps": epoch_goodput_mbps,
        "elapsed_s": time.perf_counter() - started,
    }


def _describe_shard(payload: dict) -> str:
    spec = payload["spec"]
    return (f"fleet shard {payload['index']} "
            f"(seed={spec['seed']}, flows={spec['flows_per_shard']})")


@dataclass
class FleetResult:
    """Aggregate of one fleet run.

    ``stats`` is the merged :class:`FairnessAccumulator` over every
    healthy shard's flows; ``shards``/``failures`` carry the per-shard
    records (sufficient statistics only — no per-tick traces).
    """

    spec: FleetSpec
    stats: FairnessAccumulator
    shards: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    workers: int = 1
    elapsed_s: float = 0.0

    @property
    def jain(self) -> float:
        return self.stats.jain()

    @property
    def utilization(self) -> float:
        return self.stats.utilization()

    @property
    def total_flows(self) -> int:
        return self.stats.count

    @property
    def total_ticks(self) -> int:
        return sum(s["ticks"] for s in self.shards)

    @property
    def flow_ticks(self) -> int:
        """Work metric: sum over shards of flows x ticks simulated."""
        return sum(s["n_flows"] * s["ticks"] for s in self.shards)

    def throughput(self) -> dict:
        """Simulation rates over the parent's wall-clock."""
        wall = max(self.elapsed_s, 1e-9)
        return {
            "flows_per_wall_s": self.total_flows / wall,
            "flow_ticks_per_wall_s": self.flow_ticks / wall,
            "ticks_per_wall_s": self.total_ticks / wall,
        }

    def fingerprint(self) -> dict:
        """Everything the equivalence contract covers, timing stripped.

        Two runs of the same spec must produce *equal* fingerprints for
        any worker count (bit-identical floats — the dict is compared
        with ``==``, no tolerance).
        """
        def strip(record: dict) -> dict:
            return {k: v for k, v in record.items()
                    if k not in TIMING_FIELDS}

        return {
            "spec": self.spec.as_dict(),
            "stats": self.stats.as_dict(),
            "jain": self.jain if self.stats.count else None,
            "utilization": (self.utilization
                            if self.stats.capacity > 0 else None),
            "shards": [strip(s) for s in self.shards],
            "failures": [strip(f) for f in self.failures],
        }


def run_fleet(spec: FleetSpec, *, workers: int | None = None,
              progress=None, strict: bool = False) -> FleetResult:
    """Run every shard of ``spec`` and merge their statistics.

    ``workers`` follows :func:`repro.parallel.resolve_workers`
    (argument, then ``REPRO_WORKERS``, then serial).  ``progress`` is
    forwarded to :func:`parallel_map` as the per-shard completion
    callback ``(done, total, index, record)``.  ``strict=True`` raises
    on the first quarantined shard instead of warning.
    """
    n_workers = resolve_workers(workers)
    payloads = [{"spec": spec.as_dict(), "index": i}
                for i in range(spec.n_shards)]
    started = time.perf_counter()
    records = parallel_map(_run_shard, payloads, workers=n_workers,
                           progress=progress, describe=_describe_shard)
    elapsed = time.perf_counter() - started

    stats = FairnessAccumulator()
    shards, failures = [], []
    for record in records:  # payload order == shard-index order
        if record.get("ok"):
            shards.append(record)
            stats.merge(FairnessAccumulator.from_dict(record["stats"]))
        else:
            failures.append(record)
            message = (
                f"fleet shard {record['index']} quarantined "
                f"(fleet seed {record['seed']}, shard seed "
                f"{record['shard_seed']}): {record['error']}: "
                f"{record['message']}")
            if strict:
                raise SimulationError(message)
            warnings.warn(message, ShardFailureWarning, stacklevel=2)
    if not shards:
        raise SimulationError(
            f"every fleet shard failed ({len(failures)} of "
            f"{spec.n_shards}); first: {failures[0]['error']}: "
            f"{failures[0]['message']}")
    return FleetResult(spec=spec, stats=stats, shards=shards,
                       failures=failures, workers=n_workers,
                       elapsed_s=elapsed)


#: The fleets ``check_equivalence`` pins by default: one with a classical
#: controller (per-object decisions) and one with the learned controller
#: (the driver's stacked, row-exact decision pass).
PINNED_FLEETS = tuple(
    FleetSpec(cc=cc, n_shards=4, flows_per_shard=8, seed=7, quick=True,
              epochs=2)
    for cc in ("cubic", "astraea"))


def check_equivalence(spec: FleetSpec | None = None,
                      workers: int = 2) -> dict:
    """Serial-vs-sharded equivalence: the fleet's determinism contract.

    Runs ``spec`` (by default each of :data:`PINNED_FLEETS`) once with
    ``workers=1`` and once through the process pool, and compares the
    timing-stripped fingerprints for *exact* equality.  Returns a
    verdict block suitable for embedding in ``BENCH_fleet.json``.
    """
    specs = PINNED_FLEETS if spec is None else (spec,)
    n_workers = max(2, workers)
    diverging = {}
    for s in specs:
        serial = run_fleet(s, workers=1).fingerprint()
        sharded = run_fleet(s, workers=n_workers).fingerprint()
        fields = sorted(
            k for k in set(serial) | set(sharded)
            if serial.get(k) != sharded.get(k))
        if fields:
            diverging[s.cc] = fields
    verdict = {
        "specs": [s.as_dict() for s in specs],
        "workers_compared": [1, n_workers],
        "verdict": "divergent" if diverging else "identical",
        "passed": not diverging,
    }
    if diverging:
        verdict["diverging_fields"] = diverging
    return verdict
