"""Multi-trial experiment execution shared by all benchmarks.

Trials are independent by construction — each repetition gets its own
seed baked into its :class:`~repro.config.ScenarioConfig` — so the
runners dispatch through :func:`repro.parallel.parallel_map`: scenarios
are built in the parent process (in seed order), shipped to spawn
workers, and the results come back ordered by seed.  ``workers=None``
defers to the ``REPRO_WORKERS`` environment default (serial), keeping
every fig-family benchmark bit-identical to its historical output.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np

from ..config import ScenarioConfig, replace
from ..env import ScenarioResult, run_scenario
from ..metrics.summary import RunSummary, summarize
from ..parallel import parallel_map, resolve_workers


def _run_scenario_task(scenario: ScenarioConfig) -> ScenarioResult:
    """Module-level worker for :func:`parallel_map` (spawn-picklable)."""
    return run_scenario(scenario)


def _describe_scenario(scenario: ScenarioConfig) -> str:
    schemes = ",".join(sorted({f.cc for f in scenario.flows}))
    return f"trial seed={scenario.seed} schemes={schemes}"


def _run_scenarios(scenarios: list[ScenarioConfig],
                   workers: int | None) -> list[ScenarioResult]:
    return parallel_map(_run_scenario_task, scenarios, workers=workers,
                        describe=_describe_scenario)


def run_trials(factory: Callable[[int], ScenarioConfig], trials: int,
               workers: int | None = None) -> list[ScenarioResult]:
    """Run ``trials`` repetitions; ``factory(seed)`` builds each scenario.

    The factory runs in-process (in seed order) so it may close over
    arbitrary state; only the resulting scenarios cross the process
    boundary.
    """
    return _run_scenarios([factory(seed) for seed in range(trials)], workers)


def run_scheme_trials(scenario: ScenarioConfig, trials: int,
                      workers: int | None = None) -> list[ScenarioResult]:
    """Repeat one scenario with different seeds.

    Note ``replace(scenario, seed=...)`` changes only the engine seed;
    registry families whose *shape* depends on the seed (e.g. the
    ``mixed`` robustness schedule) should go through
    :func:`run_family_trials`, which rebuilds per seed.
    """
    return _run_scenarios([replace(scenario, seed=seed)
                           for seed in range(trials)], workers)


def run_family_trials(family: str, cc: str, trials: int,
                      quick: bool = False, workers: int | None = None,
                      **params) -> list[ScenarioResult]:
    """Repeat one registry family with different seeds.

    Each trial's scenario is rebuilt through
    :func:`repro.scenarios.build_scenario` with its own seed, honouring
    the registry's seed discipline (the whole scenario — including any
    seed-derived structure such as sampled fault schedules — follows
    the trial seed, not just the engine RNG).
    """
    from ..scenarios import build_scenario

    return _run_scenarios(
        [build_scenario(family, cc=cc, quick=quick, seed=seed, **params)
         for seed in range(trials)], workers)


def run_cell_sweep(task_fn: Callable, tasks: list[dict], axes: dict, *,
                   describe: Callable[[dict], str],
                   workers: int | None = None, progress=None) -> dict:
    """Run a sweep's cell tasks and wrap them in its artifact payload.

    ``tasks`` go through :func:`parallel_map` (``task_fn`` and
    ``describe`` must be module-level, spawn-picklable); ``progress``
    is an optional ``(done, total, cell)`` callback fired as cells
    complete, in completion order with a monotone done count.  The
    payload is ``axes`` followed by the timing fields (``workers``,
    ``elapsed_s``) and the cells in task order — identical for any
    worker count except for those timing fields.
    """
    start = time.perf_counter()
    n_workers = resolve_workers(workers)
    cells = parallel_map(
        task_fn, tasks, workers=n_workers, describe=describe,
        progress=(None if progress is None else
                  lambda done, total, index, cell: progress(done, total,
                                                            cell)))
    return {
        **axes,
        "workers": n_workers,
        "elapsed_s": time.perf_counter() - start,
        "cells": [c.as_dict() for c in cells],
    }


def summarize_trials(results: list[ScenarioResult], scheme: str,
                     penalty_s: float | None = None) -> RunSummary:
    """Average the per-trial summaries into one record."""
    rows = [summarize(r, scheme, penalty_s=penalty_s) for r in results]

    def agg(field: str) -> float:
        vals = [getattr(r, field) for r in rows]
        vals = [v for v in vals if np.isfinite(v)]
        return float(np.mean(vals)) if vals else float("nan")

    return RunSummary(
        scheme=scheme,
        utilization=agg("utilization"),
        mean_jain=agg("mean_jain"),
        mean_rtt_ms=agg("mean_rtt_ms"),
        mean_loss_rate=agg("mean_loss_rate"),
        convergence_time_s=agg("convergence_time_s"),
        stability_mbps=agg("stability_mbps"),
    )
