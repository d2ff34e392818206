"""Robustness benchmark: per-fault recovery metrics across all CC schemes.

The ROADMAP's "bench robustness report": sweep the
:func:`~repro.scenarios.robustness_scenario` family over every
registered congestion-control scheme x each fault kind x both network
engines, measure post-fault recovery with
:mod:`repro.metrics.recovery`, aggregate across seeds, and emit a JSON
artifact plus a markdown table.  Because every scheme runs under every
fault on both substrates, the sweep doubles as a broad correctness check
of the fault-injection layer.

Entry points: :func:`run_robustness_sweep` (the full cross product,
programmable subset), :func:`markdown_report` (the human-readable table)
and :data:`BENCH`, the ``repro bench robustness`` registry entry.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace as dc_replace

import numpy as np

from ..env import ALL_ENGINES, ENGINES, run_engine_scenario
from ..errors import ConfigError
from ..metrics.recovery import RecoveryReport, recovery_report
from ..scenarios import build_scenario
from .registry import Bench, Flag, names
from .reporting import markdown_table
from .runners import run_cell_sweep

#: Fault kinds of the sweep (the five primitives; "mixed" is excluded
#: because its random composite has no single window to recover from).
FAULT_KINDS = ("blackout", "flap", "loss-burst", "delay-spike", "reorder")

#: Every registered scheme the report compares.
ALL_SCHEMES = ("astraea", "aurora", "orca", "vivace", "remy", "bbr",
               "copa", "cubic", "newreno", "reno", "vegas", "compound")

#: The CI smoke subset: 2 schemes x 3 fault kinds, fluid engine only.
#: loss-burst is included so ``--small`` sweeps on any engine exercise
#: the recovery-after-random-loss path (the socket engine's headline).
SMALL_SCHEMES = ("cubic", "bbr")
SMALL_KINDS = ("blackout", "flap", "loss-burst")


@dataclass(frozen=True)
class RecoveryCell:
    """Aggregated recovery stats of one (scheme, fault, engine) cell.

    Means are taken over the trials in which the respective metric was
    finite; ``recovered`` counts trials whose throughput re-attained the
    recovery threshold, so a cell with ``recovered < trials`` flags a
    scheme the fault left (partially) broken rather than hiding it inside
    an averaged sentinel.
    """

    scheme: str
    kind: str
    engine: str
    trials: int
    recovered: int
    recovery_time_s: float
    jain_reconvergence_s: float
    peak_rtt_overshoot_ms: float
    goodput_lost_mbit: float
    baseline_mbps: float
    #: Wall-clock spent running this cell (a timing field — excluded
    #: from determinism comparisons, see :func:`strip_timing_fields`).
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def _finite_mean(values) -> float:
    finite = [v for v in values if np.isfinite(v)]
    return float(np.mean(finite)) if finite else float("nan")


def aggregate_reports(scheme: str, kind: str, engine: str,
                      reports: list[RecoveryReport]) -> RecoveryCell:
    """Collapse per-seed recovery reports into one table cell."""
    if not reports:
        raise ConfigError("cannot aggregate zero recovery reports")
    return RecoveryCell(
        scheme=scheme,
        kind=kind,
        engine=engine,
        trials=len(reports),
        recovered=sum(1 for r in reports if r.recovered),
        recovery_time_s=_finite_mean([r.recovery_time_s for r in reports]),
        jain_reconvergence_s=_finite_mean(
            [r.jain_reconvergence_s for r in reports]),
        peak_rtt_overshoot_ms=_finite_mean(
            [r.peak_rtt_overshoot_ms for r in reports]),
        goodput_lost_mbit=_finite_mean(
            [r.goodput_lost_mbit for r in reports]),
        baseline_mbps=_finite_mean([r.baseline_mbps for r in reports]),
    )


def run_cell(scheme: str, kind: str, engine: str, trials: int = 2,
             quick: bool = True, threshold: float = 0.9,
             seeds=None, policy: str | None = None) -> RecoveryCell:
    """Run one (scheme, fault kind, engine) cell across its seeds.

    ``seeds`` defaults to ``range(trials)``; passing it explicitly lets
    a task payload carry its own seeds (the parallel-layer contract).
    ``policy`` overrides the model bundle of every flow running
    ``scheme`` (learned schemes only) — how a candidate bundle, e.g. a
    fault-hardened retrain, is diffed against the shipped one on the
    identical fault grid.  The returned cell records the wall-clock it
    took (``elapsed_s``).
    """
    start = time.perf_counter()
    if seeds is None:
        seeds = range(trials)
    reports = []
    for seed in seeds:
        scenario = build_scenario("robustness", cc=scheme, kind=kind,
                                  quick=quick, seed=seed)
        if policy is not None:
            flows = tuple(
                dc_replace(f, cc_kwargs={**f.cc_kwargs, "policy": policy})
                if f.cc == scheme else f
                for f in scenario.flows)
            scenario = dc_replace(scenario, flows=flows)
        result = run_engine_scenario(scenario, engine)
        reports.append(recovery_report(result, scenario.faults,
                                       threshold=threshold))
    cell = aggregate_reports(scheme, kind, engine, reports)
    return dc_replace(cell, elapsed_s=time.perf_counter() - start)


def _run_cell_task(task: dict) -> RecoveryCell:
    """Module-level worker for :func:`parallel_map` (spawn-picklable)."""
    return run_cell(task["scheme"], task["kind"], task["engine"],
                    trials=len(task["seeds"]), quick=task["quick"],
                    threshold=task["threshold"], seeds=task["seeds"],
                    policy=task.get("policy"))


def _describe_cell_task(task: dict) -> str:
    return f"cell {task['engine']}/{task['scheme']}/{task['kind']}"


def validate_sweep_axes(schemes, kinds, engines, families=()) -> None:
    """Reject unknown axis values *before* any cell burns sweep time.

    A typo like ``--schemes cubci`` used to die minutes into the sweep,
    inside ``cc.create`` of the first affected cell; now every axis is
    checked up front with a :class:`~repro.errors.ConfigError` listing
    the known values.  ``families`` (used by the scenario sweep) is
    checked against the scenario registry.
    """
    from ..cc import available
    from ..scenarios import available_families

    for axis, values, known in (
            ("fault kinds", kinds, FAULT_KINDS),
            ("schemes", schemes, sorted(available())),
            ("engines", engines, ALL_ENGINES),
            ("scenario families", families, sorted(available_families()))):
        unknown = [v for v in values if v not in known]
        if unknown:
            raise ConfigError(
                f"unknown {axis} {unknown}; known: {list(known)}")


def run_robustness_sweep(schemes=ALL_SCHEMES, kinds=FAULT_KINDS,
                         engines=ENGINES, trials: int = 2,
                         quick: bool = True, threshold: float = 0.9,
                         progress=None, workers: int | None = None,
                         policy: str | None = None) -> dict:
    """The full sweep: every scheme x fault kind x engine.

    Returns a JSON-serialisable payload with one entry per cell;
    ``progress`` ``(done, total, cell)`` and the worker-count
    determinism contract are :func:`~repro.bench.runners.run_cell_sweep`'s
    (only ``elapsed_s``/``workers`` may differ between runs — asserted
    by test).  ``policy`` substitutes a model bundle path into every
    matching-scheme flow (see :func:`run_cell`).
    """
    validate_sweep_axes(schemes, kinds, engines)
    tasks = [
        {"scheme": s, "kind": k, "engine": e, "seeds": list(range(trials)),
         "quick": quick, "threshold": threshold, "policy": policy}
        for e in engines for s in schemes for k in kinds
    ]
    axes = {"schemes": list(schemes), "kinds": list(kinds),
            "engines": list(engines), "trials": trials, "quick": quick,
            "threshold": threshold, "policy": policy}
    return run_cell_sweep(_run_cell_task, tasks, axes,
                          describe=_describe_cell_task, workers=workers,
                          progress=progress)


#: Payload keys that legitimately differ between two runs of the same
#: sweep (wall-clock instrumentation and pool sizing).
TIMING_FIELDS = ("elapsed_s", "workers")


def strip_timing_fields(payload: dict) -> dict:
    """The payload with wall-clock instrumentation removed.

    Two sweeps of identical inputs must agree exactly on this view, at
    any worker count — the determinism contract of the parallel layer.
    """
    out = {k: v for k, v in payload.items() if k not in TIMING_FIELDS}
    out["cells"] = [{k: v for k, v in cell.items() if k not in TIMING_FIELDS}
                    for cell in payload["cells"]]
    return out


TABLE_HEADERS = ["scheme", "fault", "engine", "recovered",
                 "t_recover (s)", "t_jain (s)", "rtt overshoot (ms)",
                 "goodput lost (Mbit)"]


def table_rows(payload: dict) -> list[list]:
    """Rows of the report table, scheme-major then fault then engine."""
    rows = []
    cells = sorted(payload["cells"],
                   key=lambda c: (c["scheme"], c["kind"], c["engine"]))
    for c in cells:
        rows.append([
            c["scheme"], c["kind"], c["engine"],
            f"{c['recovered']}/{c['trials']}",
            c["recovery_time_s"], c["jain_reconvergence_s"],
            c["peak_rtt_overshoot_ms"], c["goodput_lost_mbit"],
        ])
    return rows


def markdown_report(payload: dict) -> str:
    """The robustness report as a markdown document."""
    mode = "quick" if payload.get("quick") else "full"
    lines = [
        "# Robustness report — post-fault recovery",
        "",
        f"Recovery threshold: {payload['threshold']:.0%} of pre-fault "
        f"steady state; {payload['trials']} trial(s) per cell; "
        f"{mode}-mode scenarios.",
        "",
        markdown_table(TABLE_HEADERS, table_rows(payload)),
        "",
        "`t_recover` / `t_jain` average the trials that recovered; "
        "`recovered` counts how many did (never-recovered runs carry the "
        "sentinel and are excluded from the means).",
    ]
    return "\n".join(lines)


def _run(args, progress) -> dict:
    # --small picks the smoke subset, but explicit axis flags still win —
    # e.g. `--small --engines socket` runs the small matrix on the
    # loopback-UDP engine.
    if args.small:
        schemes, kinds, engines = SMALL_SCHEMES, SMALL_KINDS, ("fluid",)
    else:
        schemes, kinds, engines = ALL_SCHEMES, FAULT_KINDS, ENGINES
    return run_robustness_sweep(
        schemes=args.schemes or schemes, kinds=args.kinds or kinds,
        engines=args.engines or engines,
        trials=1 if args.small else args.trials, quick=not args.full,
        threshold=args.threshold, workers=args.workers, policy=args.policy,
        progress=lambda done, total, cell: progress(
            f"[{done}/{total}] {cell.engine}/{cell.scheme}/{cell.kind}: "
            f"recovered {cell.recovered}/{cell.trials}"))


BENCH = Bench(
    name="robustness",
    bench_id="robustness",
    small_id="robustness_small",
    title="robustness sweep",
    help="recovery metrics per (scheme, fault kind, engine)",
    flags=(
        Flag("--schemes", default=None, parse=names, example="cubic,bbr",
             help="comma-separated scheme names (default: all)"),
        Flag("--kinds", default=None, parse=names, example="blackout,flap",
             help="comma-separated fault kinds (default: all 5)"),
        Flag("--engines", default=None, parse=names, example="fluid,packet",
             help="comma-separated engines: fluid, packet, socket "
                  "(default: fluid,packet)"),
        Flag("--trials", type=int, default=2,
             help="seeds per (scheme, fault, engine) cell"),
        Flag("--threshold", type=float, default=0.9,
             help="recovered = throughput back at this fraction of the "
                  "pre-fault steady state"),
        Flag.small("CI smoke subset: 2 schemes x 3 faults, fluid engine, "
                   "1 trial (explicit --schemes/--kinds/--engines still "
                   "override)"),
        Flag("--full", action="store_true",
             help="full 90 s scenarios instead of quick 30 s"),
        Flag.OUT_DIR,
        Flag.workers("process-pool size for the sweep cells "
                     "(default: $REPRO_WORKERS, else serial)"),
        Flag("--policy", default=None,
             help="model-bundle path substituted into every matching-scheme "
                  "flow (learned schemes only; diff a candidate bundle "
                  "against the shipped one)"),
    ),
    run=_run,
    render=markdown_report,
    markdown=markdown_report,
)
