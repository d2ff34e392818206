"""Parallel-scaling microbenchmark: serial vs pooled sweep wall time.

``repro bench scaling`` runs the same small robustness sweep twice —
once on the serial in-process path and once on a process pool — and
records both wall times, the speedup, and whether the two payloads
agreed exactly (timing fields excluded).  The result is persisted as
``benchmarks/results/BENCH_parallel.json``: the first point of the
repository's performance trajectory, and the artifact CI uploads from
its non-gating scaling step.

Speedup on a single-core runner can legitimately be < 1 (spawn overhead
with no parallel hardware to amortise it); the artifact records
``cpu_count`` so downstream comparisons can tell those runs apart.
"""

from __future__ import annotations

import os
import time

from ..parallel import resolve_workers
from .registry import Bench, Flag, names
from .robustness import (
    SMALL_KINDS,
    SMALL_SCHEMES,
    run_robustness_sweep,
    strip_timing_fields,
)

BENCH_ID = "BENCH_parallel"


def run_scaling_benchmark(workers: int | None = None,
                          schemes=SMALL_SCHEMES, kinds=SMALL_KINDS,
                          engines=("fluid",), trials: int = 1,
                          quick: bool = True, progress=None) -> dict:
    """Measure serial-vs-parallel speedup on a small sweep.

    ``workers`` is the pool size for the parallel leg (default: the
    ``REPRO_WORKERS`` environment value, or 2 if unset — a pool of 1
    would measure nothing).
    """
    n_workers = resolve_workers(workers)
    if n_workers <= 1:
        n_workers = 2

    start = time.perf_counter()
    serial = run_robustness_sweep(schemes=schemes, kinds=kinds,
                                  engines=engines, trials=trials,
                                  quick=quick, workers=0, progress=progress)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    pooled = run_robustness_sweep(schemes=schemes, kinds=kinds,
                                  engines=engines, trials=trials,
                                  quick=quick, workers=n_workers,
                                  progress=progress)
    parallel_s = time.perf_counter() - start

    return {
        "bench": BENCH_ID,
        "workers": n_workers,
        "cpu_count": os.cpu_count(),
        "cells": len(serial["cells"]),
        "trials": trials,
        "schemes": list(schemes),
        "kinds": list(kinds),
        "engines": list(engines),
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else None,
        # The parallel payload must match the serial one bit-for-bit
        # outside the timing fields; recorded so a regression is visible
        # in the artifact itself, not only in the test suite.
        "deterministic": strip_timing_fields(pooled) ==
        strip_timing_fields(serial),
        "cell_elapsed_serial_s": [c["elapsed_s"] for c in serial["cells"]],
        "cell_elapsed_parallel_s": [c["elapsed_s"] for c in pooled["cells"]],
    }


def _run(args, progress) -> dict:
    return run_scaling_benchmark(
        workers=args.workers, schemes=args.schemes or SMALL_SCHEMES,
        kinds=args.kinds or SMALL_KINDS, engines=args.engines or ("fluid",),
        trials=args.trials)


def _render(payload: dict) -> str:
    return (f"{payload['cells']} cell(s), {payload['workers']} worker(s) on "
            f"{payload['cpu_count']} CPU(s): serial "
            f"{payload['serial_s']:.2f}s vs parallel "
            f"{payload['parallel_s']:.2f}s (speedup "
            f"{payload['speedup']:.2f}x, deterministic="
            f"{payload['deterministic']})")


BENCH = Bench(
    name="scaling",
    bench_id=BENCH_ID,
    title="scaling benchmark",
    help="serial-vs-parallel speedup of the small robustness sweep "
         "(writes BENCH_parallel.json)",
    flags=(
        Flag("--schemes", default=None, parse=names, example="cubic,bbr",
             help="comma-separated scheme names "
                  "(default: the CI smoke subset)"),
        Flag("--kinds", default=None, parse=names, example="blackout,flap",
             help="comma-separated fault kinds "
                  "(default: the CI smoke subset)"),
        Flag("--engines", default=None, parse=names, example="fluid,packet",
             help="comma-separated engines (default: fluid)"),
        Flag("--trials", type=int, default=1),
        Flag.workers("pool size of the parallel leg "
                     "(default: $REPRO_WORKERS, else 2)"),
        Flag.OUT_DIR,
    ),
    run=_run,
    render=_render,
)
