"""One workload in one fresh process (started by ``run.py``).

Everything up to the first timed operation — interpreter start, imports,
policy load, daemon spawn and connect, learner warm-up, one discarded
warm-up run — is ``setup_s``, counted from the moment the parent spawned
this process.  Then come timed repetitions for ``--seconds`` seconds (at
least two), the correctness checks, and one ``RESULT {json}`` line.

``--trace 1`` alternates plain repetitions with repetitions run inside
the span wrappers: the per-layer numbers and the tracing overhead come
from the same process, inputs and minute.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from envelope import SRC, HarnessError, apply_thread_pins, numeric_envelope

WORKLOADS = ("fleet_cubic", "fleet_astraea", "train_batched", "serve_open")
#: Untraced serve runs alternate this many lo/hi slices; each metric is
#: computed per slice and summarised over the slices.
SERVE_ROUNDS = 5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(workload, seconds: float, tracing=None) -> tuple[list, list, float]:
    """Repetitions for ``seconds`` (at least two).

    Returns ``(plain, traced, peak_rss_mb)``.  With ``tracing`` (a
    context-manager factory) every second repetition runs inside the
    span wrappers, so both kinds see the same drift — a learner that
    keeps training, a host that changes pace — and their ratio is the
    tracing overhead.  Peak memory is read after the second repetition:
    a fixed amount of work, where the end of the window is not (a replay
    buffer's pages are touched as it fills).
    """
    plain, traced, rss, t0 = [], [], 0.0, time.perf_counter()
    while len(plain) + len(traced) < 2 \
            or time.perf_counter() - t0 < seconds:
        if tracing is not None and len(plain) > len(traced):
            with tracing():
                traced.append(workload.repetition())
        else:
            plain.append(workload.repetition())
        if len(plain) + len(traced) == 2:
            rss = _peak_rss_mb()
    return plain, traced, rss


def _check_rows(checks) -> list[dict]:
    return [{"name": c.name, "ok": bool(c.ok), "detail": c.detail}
            for c in checks]


def run_in_process(args, setup_done) -> dict:
    import inproc
    from quant import estimate, tail

    workload = inproc.build(args.workload, args.seed, args.size == "toy")
    generating_s = workload.setup()
    out = {"setup_s": setup_done() - generating_s}
    if args.setup_only:
        return out

    per_layer = {}
    if not args.trace:
        reps, traced, rss = _timed(workload, args.seconds)
    else:
        from contextlib import contextmanager

        from layers import install_inproc, span_metrics
        from spans import Tracer

        tracer = Tracer()

        @contextmanager
        def tracing():
            install_inproc(tracer, workload.cc)
            try:
                yield
            finally:
                tracer.uninstall()

        reps, traced, rss = _timed(workload, args.seconds, tracing)
        totals = tracer.snapshot()
        per_layer = span_metrics(totals, per=len(traced))
        per_layer["harness.traced_coverage_share"] = \
            sum(t["self_s"] for t in totals.values()) \
            / sum(r.wall_s for r in traced)
        per_layer["harness.trace_overhead_share"] = \
            estimate(r.wall_s / r.work for r in traced)["value"] \
            / estimate(r.wall_s / r.work for r in reps)["value"] - 1.0
        if args.workload == "fleet_cubic":
            per_layer.update(workload.parallel_leg(reps))
        out["spans"] = totals

    everything = reps + traced
    checks = workload.checks(everything)
    ops = sum(r.ops for r in everything)
    failed_ops = sum(r.failed for r in everything)
    out.update(
        repetitions=len(reps), traced_repetitions=len(traced),
        checks=_check_rows(checks),
        attempted=ops + len(checks),
        failed=failed_ops + sum(1 for c in checks if not c.ok),
        per_layer=per_layer)
    if not args.trace:
        jobs = [job for r in reps for job in r.jobs]
        jobs_ms = [wall * 1e3 for wall, _cpu, _work in jobs]
        out["end_to_end"] = {
            "work_per_s": estimate(
                (work / wall for wall, _cpu, work in jobs), "higher"),
            "cpu_ms_per_kwork": estimate(
                (cpu / work * 1e6 for _wall, cpu, work in jobs), "lower"),
            "p50_ms": estimate(jobs_ms),
            "p90_ms": tail(jobs_ms, cap=90.0),
            "on_time_share": {"value": (ops - failed_ops) / ops, "n": ops},
            "peak_rss_mb": {"value": rss, "n": 1},
        }
    return out


def _traced_serve_metrics(base: dict, lo: dict, hi: dict, spans_hi: dict,
                          client_us: float) -> dict:
    """Per-layer metrics of the traced daemon, all over phase ``hi``."""
    from layers import span_metrics
    from quant import percentile

    c = hi["counters"]
    out = span_metrics(spans_hi)
    out.update({
        "service.daemon.other_cpu_s": hi["daemon_cpu_s"] - sum(
            t["self_s"] for t in spans_hi.values()),
        "service.inference.forward_passes": c["forward_passes"],
        "service.inference.mean_batch_size":
            c["batch_sum"] / max(c["batch_count"], 1),
        "service.inference.forward_cpu_s": c["cpu_time_s"],
        "service.inference.fallback_share":
            c["fallbacks"] / max(c["requests"], 1),
        "service.inference.deadline_misses": c["deadline_misses"],
        "service.daemon.admission_rejected": c["daemon_admission_rejected"],
        "service.daemon.hist_p99_ms": hi["hist_p99_ms"],
        "service.daemon.p99_ms_lo": percentile(lo["latencies_ms"], 99.0),
        "service.daemon.p50_ms_hi": percentile(hi["latencies_ms"], 50.0),
        "service.daemon.p99_ms_hi": percentile(hi["latencies_ms"], 99.0),
        "service.daemon.client_act_us": client_us,
        # Same phase against the plain daemon: CPU per answered action.
        "harness.trace_overhead_share":
            (hi["daemon_cpu_s"] / hi["ok"])
            / (base["daemon_cpu_s"] / base["ok"]) - 1.0,
    })
    for phase in (lo, hi):
        for key in ("gen_late_p99_ms", "gen_cpu_share"):
            out[f"harness.{key}_{phase['name']}"] = phase[key]
    return out


def run_serve(args, setup_done) -> dict:
    import serve
    from quant import estimate, percentile, tail
    from spans import delta

    per_layer, rss = {}, 0.0
    plain = serve.Session(args.seed, traced=False)
    with plain:
        out = {"setup_s": setup_done()}
        if args.setup_only:
            return out
        if args.trace:
            # Baseline for the tracing overhead only.
            phases = [plain.phase("hi", args.seconds / 4.0)]
        else:
            slice_s = args.seconds / (2 * SERVE_ROUNDS)
            phases = [plain.phase(name, slice_s)
                      for _ in range(SERVE_ROUNDS) for name in ("lo", "hi")]
            rss = plain.daemon.peak_rss_mb()
    sessions = [plain]
    if args.trace:
        traced = serve.Session(args.seed, traced=True)
        with traced:
            lo = traced.phase("lo", args.seconds / 4.0)
            before = traced.daemon.span_snapshot()
            hi = traced.phase("hi", args.seconds / 2.0)
            spans_hi = delta(traced.daemon.span_snapshot(), before)
            client_us = traced.closed_loop_act_us()
        sessions.append(traced)
        per_layer = _traced_serve_metrics(phases[0], lo, hi, spans_hi,
                                          client_us)
        phases += [lo, hi]
        out["spans"] = spans_hi

    exit_codes = [s.exit_code for s in sessions]
    checks = serve.phase_checks(phases)
    checks.append(serve.Check(
        "clean SIGTERM drain (exit 0)", all(c == 0 for c in exit_codes),
        f"exit codes {exit_codes}"))
    scheduled = sum(p["ledger"].scheduled for p in phases)
    out.update(
        repetitions=len(phases), traced_repetitions=2 * args.trace,
        checks=_check_rows(checks),
        notes=[n for p in phases for n in serve.health_notes(p)],
        attempted=scheduled + len(checks),
        failed=scheduled - sum(p["ok"] for p in phases)
        + sum(1 for c in checks if not c.ok),
        per_layer=per_layer,
        phases={f"{i}:{p['name']}": {key: p[key] for key in (
            "ok", "errors", "unanswered", "on_time", "daemon_cpu_s",
            "p99_ms", "gen_late_p99_ms", "gen_cpu_share", "hist_p99_ms")}
            for i, p in enumerate(phases)})
    if not args.trace:
        los, his = phases[0::2], phases[1::2]
        out["end_to_end"] = {
            "work_per_s": estimate(
                (h["ok"] / h["ledger"].wall_s for h in his), "higher"),
            "cpu_ms_per_kwork": estimate(
                (h["daemon_cpu_s"] / max(h["ok"], 1) * 1e6 for h in his),
                "lower"),
            "p50_ms": estimate(
                percentile(p["latencies_ms"], 50.0) for p in los),
            "p90_ms": {**estimate(tail(p["latencies_ms"], cap=90.0)["value"]
                                  for p in los), "percentile": 90.0},
            "on_time_share": estimate(
                h["on_time"] / h["ledger"].scheduled for h in his),
            "peak_rss_mb": {"value": rss, "n": 1},
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.time() when the parent started us")
    args = parser.parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None \
        else time.time()

    apply_thread_pins()
    sys.path.insert(0, str(SRC))
    run = run_serve if args.workload == "serve_open" else run_in_process
    result = run(args, lambda: time.time() - spawned_at)

    blas = numeric_envelope()
    if blas["blas"]["threads"] != 1:
        raise HarnessError(
            f"BLAS runs {blas['blas']['threads']} threads despite the pins")
    if args.trace and not args.setup_only:
        from layers import per_layer_units

        units = per_layer_units()
        unknown = set(result["per_layer"]) - set(units)
        if unknown:
            raise HarnessError(f"undeclared metrics: {sorted(unknown)}")
        # A layer the workload never entered reads 0, by name.
        result["per_layer"] = {
            name: float(result["per_layer"].get(name, 0.0))
            for name in units}
    result.update(workload=args.workload, seed=args.seed,
                  trace=args.trace, size=args.size, numeric=blas)
    sys.stdout.write("RESULT " + json.dumps(result, allow_nan=False) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except HarnessError as exc:
        print(f"perf harness: {exc}", file=sys.stderr)
        raise SystemExit(2)
