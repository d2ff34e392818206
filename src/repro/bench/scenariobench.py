"""Scenario-family benchmark: JFI x utilization per scheme per family.

The ROADMAP's "bench scenarios" sweep: run every requested scheme over
the datacenter/asymmetric/adversarial workload families of the scenario
registry (:mod:`repro.scenarios`) on both the fluid and the packet
engine, and table Jain fairness x link utilization per cell — the
paper's two headline axes, now measured on workloads its own evaluation
never contains.  Fairness is computed over the *foreground* flows only
(unresponsive cross traffic is load, not a participant; see
:meth:`~repro.env.multiflow.ScenarioResult.foreground_indices`).

Entry points: :func:`run_scenario_sweep` (the full cross product,
programmable subset), :func:`markdown_report`, and :data:`BENCH`, the
``repro bench scenarios`` registry entry.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace as dc_replace

import numpy as np

from ..env import ENGINES, run_engine_scenario
from ..errors import ConfigError
from ..scenarios import build_scenario, get_family
from .registry import Bench, Flag, names
from .reporting import markdown_table
from .robustness import ALL_SCHEMES, validate_sweep_axes
from .runners import run_cell_sweep

#: Artifact stem (``benchmarks/results/BENCH_scenarios.json`` / ``.md``).
BENCH_ID = "BENCH_scenarios"

#: Families of the default sweep — the three beyond-the-paper workloads.
SWEEP_FAMILIES = ("incast", "asymmetric-rtt", "background-udp")

#: The CI smoke subset: 3 schemes x all 3 families x both engines.
SMALL_SCHEMES = ("astraea", "cubic", "bbr")

#: Warmup skipped before the fairness/utilization averages.
WARMUP_S = 2.0


@dataclass(frozen=True)
class ScenarioCell:
    """Aggregated metrics of one (scheme, family, engine) cell.

    ``jfi`` and ``utilization`` are means over the cell's trials;
    both are the steady-state averages after :data:`WARMUP_S`.
    """

    scheme: str
    family: str
    engine: str
    trials: int
    jfi: float
    utilization: float
    mean_rtt_ms: float
    mean_loss_rate: float
    #: Wall-clock spent running this cell (a timing field — excluded
    #: from determinism comparisons, see ``strip_timing_fields``).
    elapsed_s: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)


def validate_scenario_axes(schemes, families, engines) -> None:
    """Axis validation for the scenario sweep (typed, up-front).

    On top of the shared name checks, families whose registry entry
    marks ``packet_ok=False`` (capacity-traced workloads) are rejected
    when the packet engine is requested.
    """
    validate_sweep_axes(schemes, (), engines, families=families)
    needs_packet = [e for e in engines if e != "fluid"]
    if needs_packet:
        traced = [f for f in families if not get_family(f).packet_ok]
        if traced:
            raise ConfigError(
                f"families {traced} drive a capacity trace and only run "
                f"on the fluid engine; drop them or use --engines fluid")


def run_scenario_cell(scheme: str, family: str, engine: str,
                      trials: int = 2, quick: bool = True,
                      seeds=None) -> ScenarioCell:
    """Run one (scheme, family, engine) cell across its seeds.

    ``seeds`` defaults to ``range(trials)``; passing it explicitly lets
    a task payload carry its own seeds (the parallel-layer contract).
    """
    start = time.perf_counter()
    if seeds is None:
        seeds = range(trials)
    jfi, util, rtt_ms, loss = [], [], [], []
    for seed in seeds:
        scenario = build_scenario(family, cc=scheme, quick=quick, seed=seed)
        result = run_engine_scenario(scenario, engine)
        fg = result.foreground_indices()
        jfi.append(result.mean_jain(warmup_s=WARMUP_S, indices=fg))
        util.append(result.utilization(skip_s=WARMUP_S))
        rtt_ms.append(result.mean_rtt_s(skip_s=WARMUP_S) * 1e3)
        loss.append(result.mean_loss_rate(skip_s=WARMUP_S))
    cell = ScenarioCell(
        scheme=scheme, family=family, engine=engine, trials=len(jfi),
        jfi=float(np.mean(jfi)), utilization=float(np.mean(util)),
        mean_rtt_ms=float(np.mean(rtt_ms)),
        mean_loss_rate=float(np.mean(loss)))
    return dc_replace(cell, elapsed_s=time.perf_counter() - start)


def _run_cell_task(task: dict) -> ScenarioCell:
    """Module-level worker for :func:`parallel_map` (spawn-picklable)."""
    return run_scenario_cell(task["scheme"], task["family"], task["engine"],
                             trials=len(task["seeds"]), quick=task["quick"],
                             seeds=task["seeds"])


def _describe_cell_task(task: dict) -> str:
    return f"cell {task['engine']}/{task['scheme']}/{task['family']}"


def run_scenario_sweep(schemes=ALL_SCHEMES, families=SWEEP_FAMILIES,
                       engines=ENGINES, trials: int = 2, quick: bool = True,
                       progress=None, workers: int | None = None) -> dict:
    """The full sweep: every scheme x family x engine.

    Returns a JSON-serialisable payload with one entry per cell;
    ``progress`` and the worker-count determinism contract match
    :func:`~repro.bench.robustness.run_robustness_sweep` (only the
    timing fields ``elapsed_s``/``workers`` may differ between runs).
    """
    validate_scenario_axes(schemes, families, engines)
    tasks = [
        {"scheme": s, "family": f, "engine": e,
         "seeds": list(range(trials)), "quick": quick}
        for e in engines for s in schemes for f in families
    ]
    axes = {"schemes": list(schemes), "families": list(families),
            "engines": list(engines), "trials": trials, "quick": quick}
    return run_cell_sweep(_run_cell_task, tasks, axes,
                          describe=_describe_cell_task, workers=workers,
                          progress=progress)


TABLE_HEADERS = ["scheme", "family", "engine", "JFI", "utilization",
                 "mean RTT (ms)", "loss rate"]


def table_rows(payload: dict) -> list[list]:
    """Rows of the report table, family-major then scheme then engine."""
    rows = []
    cells = sorted(payload["cells"],
                   key=lambda c: (c["family"], c["scheme"], c["engine"]))
    for c in cells:
        rows.append([
            c["scheme"], c["family"], c["engine"],
            c["jfi"], c["utilization"], c["mean_rtt_ms"],
            c["mean_loss_rate"],
        ])
    return rows


def markdown_report(payload: dict) -> str:
    """The scenario report as a markdown document."""
    mode = "quick" if payload.get("quick") else "full"
    lines = [
        "# Scenario report — JFI x utilization per workload family",
        "",
        f"{payload['trials']} trial(s) per cell; {mode}-mode scenarios; "
        f"fairness over foreground flows only (unresponsive cross "
        f"traffic excluded).",
        "",
        markdown_table(TABLE_HEADERS, table_rows(payload)),
        "",
        "Families: `incast` (synchronized short-flow waves vs elephants), "
        "`asymmetric-rtt` (per-flow base RTTs spread 1x-4x), "
        "`background-udp` (unresponsive constant-rate cross traffic).",
    ]
    return "\n".join(lines)


def _run(args, progress) -> dict:
    # --small picks the smoke schemes; explicit axis flags still win.
    return run_scenario_sweep(
        schemes=args.schemes or (SMALL_SCHEMES if args.small
                                 else ALL_SCHEMES),
        families=args.families or SWEEP_FAMILIES,
        engines=args.engines or ENGINES,
        trials=1 if args.small else args.trials, quick=not args.full,
        workers=args.workers,
        progress=lambda done, total, cell: progress(
            f"[{done}/{total}] {cell.engine}/{cell.scheme}/{cell.family}: "
            f"jfi={cell.jfi:.3f} util={cell.utilization:.3f}"))


BENCH = Bench(
    name="scenarios",
    bench_id=BENCH_ID,
    title="scenario sweep",
    help="JFI x utilization per (scheme, workload family, engine) over the "
         "incast/asymmetric-rtt/background-udp families "
         "(writes BENCH_scenarios.json)",
    flags=(
        Flag("--schemes", default=None, parse=names, example="cubic,bbr",
             help="comma-separated scheme names (default: all)"),
        Flag("--families", default=None, parse=names,
             example="incast,asymmetric-rtt",
             help="comma-separated registry family names (default: "
                  "incast,asymmetric-rtt,background-udp; see 'repro info')"),
        Flag("--engines", default=None, parse=names, example="fluid,packet",
             help="comma-separated engines: fluid, packet, socket "
                  "(default: fluid,packet)"),
        Flag("--trials", type=int, default=2,
             help="seeds per (scheme, family, engine) cell"),
        Flag.small("CI smoke subset: 3 schemes x 3 families on both "
                   "engines, 1 trial (explicit --schemes/--families/"
                   "--engines still override)"),
        Flag("--full", action="store_true",
             help="full-length scenarios instead of quick ones"),
        Flag.OUT_DIR,
        Flag.workers("process-pool size for the sweep cells "
                     "(default: $REPRO_WORKERS, else serial)"),
    ),
    run=_run,
    render=markdown_report,
    markdown=markdown_report,
)
