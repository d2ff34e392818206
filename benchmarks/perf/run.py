"""The perf ledger's one command.

    python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace T
        one workload, one run; the last stdout line is the result object
        BENCHMARK.json describes (end-to-end metrics with --trace 0,
        per-layer metrics with --trace 1)
    python3 benchmarks/perf/run.py [--seed N] [--seconds S] [--out FILE]
        every workload, untraced then traced, as one report
    python3 benchmarks/perf/run.py --smoke
        the same at toy size in well under a minute, validating the schema
    python3 benchmarks/perf/run.py --compare A.json B.json
        two reports, metric by metric against each metric's bound

This process never imports NumPy or the program: it pins the BLAS
threads, starts one fresh ``worker.py`` per measurement, and prints.
See README.md beside this file for what every name means.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from envelope import (ROOT, HarnessError, apply_thread_pins, host_envelope,
                      program_env, require_program)
from quant import estimate

HERE = Path(__file__).resolve().parent
WORKER_TIMEOUT_S = 170.0
#: Set-ups timed per run (the measuring worker's own plus this many
#: set-up-only workers); ``setup_s`` is their median.
EXTRA_SETUPS = 4


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               size: str = "full", setup_only: bool = False) -> dict:
    """Run ``worker.py`` once in its own session; returns its RESULT."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--size", size, "--spawned-at", repr(time.time())]
    if setup_only:
        command.append("--setup-only")
    proc = subprocess.Popen(command, cwd=ROOT, env=program_env(),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except BaseException:
        # Timeout or interrupt: take the worker's whole session down
        # (it may own a daemon), then wait for it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    lines = [ln for ln in stdout.splitlines() if ln.startswith("RESULT ")]
    if proc.returncode != 0 or not lines:
        raise HarnessError(
            f"worker for {workload} exited {proc.returncode} "
            f"without a result")
    return json.loads(lines[-1][len("RESULT "):])


def measure(workload: str, seed: int, seconds: float, trace: int,
            size: str = "full", extra_setups: int = EXTRA_SETUPS) -> dict:
    """One measurement: the worker's result plus the set-up median."""
    result = run_worker(workload, seed, seconds, trace, size)
    setups = [result["setup_s"]] + [
        run_worker(workload, seed, seconds, trace, size,
                   setup_only=True)["setup_s"]
        for _ in range(extra_setups)]
    result["setup_s"] = estimate(setups)
    return result


def contract_line(result: dict, spec: dict) -> dict:
    """The driver-facing object: correct, attempted, failed, metrics."""
    if result["trace"]:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = result["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: s["value"]
                  for name, s in result["end_to_end"].items()}
        values["setup_s"] = result["setup_s"]["value"]
    if set(values) != set(units):
        raise HarnessError(
            f"metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
    return {
        "correct": all(c["ok"] for c in result["checks"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def describe(result: dict, spec: dict, out=sys.stdout) -> None:
    """Human-readable account of one result, above the contract line."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    head = (f"{result['workload']} seed={result['seed']} "
            f"trace={result['trace']} size={result['size']} "
            f"repetitions={result['repetitions']}"
            f"+{result['traced_repetitions']} traced")
    print(head, file=out)
    for check in result["checks"]:
        mark = "ok  " if check["ok"] else "FAIL"
        print(f"  check {mark} {check['name']}"
              + (f" [{check['detail']}]" if check["detail"] else ""),
              file=out)
    for note in result.get("notes", []):
        print(f"  note  {note}", file=out)
    rows = dict(result.get("end_to_end", {}), setup_s=result["setup_s"]) \
        if not result["trace"] else {}
    for name, s in rows.items():
        spread = (f"  median {s['median']:.6g}  q1 {s['q1']:.6g}"
                  f"  q3 {s['q3']:.6g}") if "q1" in s else ""
        print(f"  {name:<18} {s['value']:.6g} {units[name]}{spread}"
              f"  n={s['n']}", file=out)
    for name, value in result.get("per_layer", {}).items():
        if value:
            print(f"  {name:<42} {value:.6g} {units[name]}", file=out)


def suite(seed: int, seconds: float, size: str, out_path: str | None,
          spec: dict) -> int:
    """Every workload untraced and traced, as one report."""
    report = {"envelope": {**host_envelope(), "seed": seed,
                           "seconds": seconds, "size": size},
              "workloads": {}}
    ok = True
    extra = 0 if size == "toy" else EXTRA_SETUPS
    for w in spec["workloads"]:
        name = w["name"]
        # The toy daemon phases still need a schedule to run against.
        secs = seconds if size == "full" else \
            (4.0 if name == "serve_open" else 0.0)
        untraced = measure(name, seed, secs, 0, size, extra)
        traced = measure(name, seed, secs, 1, size, 0)
        for result in (untraced, traced):
            describe(result, spec)
            line = contract_line(result, spec)
            ok = ok and line["correct"] and line["failed"] == 0
        report["envelope"]["numeric"] = untraced["numeric"]
        report["workloads"][name] = {
            "end_to_end": dict(untraced["end_to_end"],
                               setup_s=untraced["setup_s"]),
            "per_layer": traced["per_layer"],
            "checks": untraced["checks"] + traced["checks"],
            "notes": untraced.get("notes", []) + traced.get("notes", []),
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "repetitions": untraced["repetitions"],
        }
    text = json.dumps(report, indent=1, allow_nan=False)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
        print(f"report written to {out_path}")
    if size == "toy":
        validate_report(json.loads(text), spec)
        print("smoke: schema valid, strict JSON")
    return 0 if ok else 1


def validate_report(report: dict, spec: dict) -> None:
    """Every declared workload and metric present, every value finite."""
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        entry = report["workloads"].get(w["name"])
        if entry is None:
            raise HarnessError(f"report lacks workload {w['name']}")
        if set(entry["end_to_end"]) != e2e:
            raise HarnessError(
                f"{w['name']}: end-to-end metrics differ: "
                f"{sorted(set(entry['end_to_end']) ^ e2e)}")
        if set(entry["per_layer"]) != layers:
            raise HarnessError(
                f"{w['name']}: per-layer metrics differ: "
                f"{sorted(set(entry['per_layer']) ^ layers)}")
        for name, s in entry["end_to_end"].items():
            if not s["value"] > 0:
                raise HarnessError(f"{w['name']}.{name} is not positive")
    for key in ("host_fingerprint", "nproc", "python", "git_sha", "seed",
                "harness_version", "thread_pins", "numeric"):
        if key not in report["envelope"]:
            raise HarnessError(f"envelope lacks {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.compare:
        from compare import compare_reports

        return compare_reports(*args.compare, spec)
    require_program()
    apply_thread_pins()
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    if args.smoke:
        return suite(args.seed, seconds, "toy", args.out, spec)
    if args.workload is None:
        return suite(args.seed, seconds, "full", args.out, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise HarnessError(f"unknown workload {args.workload!r}")
    result = measure(args.workload, args.seed, seconds, args.trace,
                     extra_setups=0 if args.trace else EXTRA_SETUPS)
    print("envelope " + json.dumps(
        {**host_envelope(), "seed": args.seed, "numeric": result["numeric"],
         "repetitions": result["repetitions"]}))
    describe(result, spec)
    line = contract_line(result, spec)
    print(json.dumps(line, allow_nan=False))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except HarnessError as exc:
        print(f"perf harness: {exc}", file=sys.stderr)
        raise SystemExit(2)
