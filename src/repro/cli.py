"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       run a scenario described by a JSON file (see ``template``)
              and print its summary, optionally saving the full logs.
``compare``   run one canonical multi-flow scenario per scheme and print
              a side-by-side summary table.
``template``  emit a scenario-description JSON template to stdout.
``info``      list registered schemes, traces, queue disciplines,
              scenario families and the shipped pretrained models.
``models``    model-artifact integrity: ``verify`` the checksummed
              manifest (non-zero exit on any damaged bundle — the CI
              gate), ``info`` per-bundle status, ``regenerate`` rebuild
              bundles deterministically from the analytic reference.
``train``     run (or resume) Astraea training with periodic atomic
              checkpoints; ``--resume DIR`` continues bit-exactly from
              the last checkpoint in DIR.
``faults``    inspect or exercise link-fault schedules: print a sampled
              schedule, or run a robustness scenario under one scheme
              and print its summary.
``serve``     run the asyncio inference-serving daemon: length-prefixed
              JSON over loopback TCP, requests batched into the 5 ms
              window of the shared service, admission control, graceful
              drain on SIGTERM, a ``stats`` verb exporting counters and
              latency quantiles, and ``--shards N`` process fan-out
              (flow-id hash -> shard).
``bench``     benchmark sweeps; ``bench robustness`` runs the
              scheme x fault-kind x engine recovery sweep and writes the
              JSON artifact plus markdown table under
              ``benchmarks/results/``; ``bench scenarios`` sweeps
              schemes x workload families (incast, asymmetric-rtt,
              background-udp from the scenario registry) on both
              engines and writes JFI x utilization per cell into
              ``BENCH_scenarios.json``; ``bench scaling`` measures the
              serial-vs-parallel speedup of the small sweep and writes
              ``BENCH_parallel.json``; ``bench engine`` measures the
              fluid engine's vectorized fast path against the per-tick
              reference (ticks/s, episode wall-clock, equivalence) and
              writes ``BENCH_engine.json``; ``bench serve`` drives a
              live daemon with an asyncio load generator over a sweep
              of concurrent-flow counts and writes actions/s plus
              p50/p99/p999 latency into ``BENCH_serve.json``;
              ``bench socket`` exercises the loopback-UDP datapath
              (wire segments/s, goodput efficiency under a seeded 5%
              loss schedule, post-fault recovery time) and writes
              ``BENCH_socket.json`` (``--smoke`` is the gating CI
              reliability check); ``bench train`` measures training
              rollout throughput (serial vs batched vs batched+workers)
              with the embedded equivalence verdict in
              ``BENCH_train.json``; ``bench fleet`` runs the sharded
              fleet scaling sweep (10 -> 10,000 flows across many
              bottlenecks, serial vs sharded legs, bit-identical
              aggregate verdict) and writes ``BENCH_fleet.json``.

Sweep-shaped commands accept ``--workers N`` (default: the
``REPRO_WORKERS`` environment variable, else serial) to fan tasks out
over a spawn-context process pool; results are bit-identical to the
serial path at any worker count.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import persist
from .config import LinkConfig, ScenarioConfig


def _cmd_run(args: argparse.Namespace) -> int:
    from .env import run_scenario
    from .metrics import summarize

    scenario = persist.load_scenario(args.scenario)
    result = run_scenario(scenario)
    schemes = ",".join(sorted({f.cc for f in scenario.flows}))
    summary = summarize(result, schemes, penalty_s=scenario.duration_s)
    for key, value in summary.as_dict().items():
        print(f"{key:20s} {value}")
    if args.plot:
        from .analysis import flow_timelines

        print()
        print(flow_timelines(result, ascii_only=args.ascii))
    if args.out:
        path = persist.save_result(result, args.out)
        print(f"full logs saved to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .bench import print_table
    from .bench.runners import run_scheme_trials, summarize_trials
    from .netsim import staggered_flows

    link = LinkConfig(bandwidth_mbps=args.bandwidth, rtt_ms=args.rtt,
                      buffer_bdp=args.buffer)
    rows = []
    for cc in args.schemes.split(","):
        cc = cc.strip()
        flows = staggered_flows(args.flows, cc=cc,
                                interval_s=args.interval,
                                duration_s=args.flow_duration)
        scenario = ScenarioConfig(link=link, flows=flows,
                                  duration_s=args.duration)
        results = run_scheme_trials(scenario, args.trials,
                                    workers=args.workers)
        s = summarize_trials(results, cc, penalty_s=args.duration)
        rows.append([s.scheme, s.utilization, s.mean_jain, s.mean_rtt_ms,
                     s.mean_loss_rate, s.convergence_time_s,
                     s.stability_mbps])
        print(f"ran {cc}", file=sys.stderr)
    print_table(
        f"{args.flows} flows on {args.bandwidth:g} Mbps / {args.rtt:g} ms "
        f"/ {args.buffer:g} BDP",
        ["scheme", "util", "Jain", "RTT (ms)", "loss", "conv (s)",
         "stab (Mbps)"],
        rows,
    )
    return 0


def _cmd_template(args: argparse.Namespace) -> int:
    from .netsim import staggered_flows

    scenario = ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0),
        flows=staggered_flows(3, cc="astraea", interval_s=20.0,
                              duration_s=60.0),
        duration_s=100.0,
    )
    print(json.dumps(persist.scenario_to_dict(scenario), indent=2))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from .cc import available
    from .core.policy import DEFAULT_POLICY_NAMES, default_policy_path
    from .netsim.qdisc import _QDISC_FACTORIES
    from .netsim.traces import _TRACE_FACTORIES

    print("congestion controllers:")
    for name in available():
        print(f"  {name}")
    print("capacity traces:")
    for name in sorted(_TRACE_FACTORIES):
        print(f"  {name}")
    print("queue disciplines:")
    for name in sorted(_QDISC_FACTORIES):
        print(f"  {name}")
    print("scenario families:")
    from .scenarios import describe_families

    for line in describe_families().splitlines():
        print(f"  {line}")
    print("pretrained models:")
    for scheme in DEFAULT_POLICY_NAMES:
        path = default_policy_path(scheme)
        if not path.exists():
            state = "absent"
        else:
            from .core.artifacts import validate_bundle_file
            from .errors import ModelError

            try:
                validate_bundle_file(path)
                state = "present"
            except ModelError:
                state = "DAMAGED — run 'repro models verify'"
        print(f"  {scheme}: {path.name} ({state})")
    return 0


def _cmd_models_verify(args: argparse.Namespace) -> int:
    from .core.artifacts import verify_models

    report = verify_models(args.models_dir)
    for check in report.checks:
        line = f"  {check.name:32s} {check.status}"
        if check.detail:
            line += f"  ({check.detail})"
        print(line)
    if not report.ok:
        names = ", ".join(c.name for c in report.failures)
        print(f"FAILED: {len(report.failures)} artifact(s) not ok: {names}",
              file=sys.stderr)
        print("run 'python -m repro models regenerate' to rebuild",
              file=sys.stderr)
        return 1
    print(f"ok: {len(report.checks)} artifact(s) verified")
    return 0


def _cmd_models_info(args: argparse.Namespace) -> int:
    from .core.artifacts import load_manifest, models_dir
    from .errors import ModelError

    directory = models_dir(args.models_dir)
    print(f"models directory: {directory}")
    try:
        doc = load_manifest(args.models_dir)
    except ModelError as exc:
        print(f"manifest: unavailable ({exc})")
        return 1
    for name, entry in doc["artifacts"].items():
        present = (directory / name).exists()
        print(f"  {name}")
        print(f"    sha256  {entry['sha256']}")
        print(f"    size    {entry.get('size_bytes', '?')} bytes "
              f"({'present' if present else 'MISSING'})")
        for key in ("teacher", "samples", "epochs", "seed", "mae"):
            if key in entry:
                print(f"    {key:7s} {entry[key]}")
    return 0


def _cmd_models_regenerate(args: argparse.Namespace) -> int:
    from .core.artifacts import manifest_entry, models_dir, update_manifest
    from .core.distill import REGEN_RECIPES, regenerate_default_bundle
    from .core.policy import clear_policy_cache
    from .errors import ModelError

    names = args.names or sorted(REGEN_RECIPES)
    unknown = [n for n in names if n not in REGEN_RECIPES]
    if unknown:
        print(f"no regeneration recipe for: {', '.join(unknown)} "
              f"(known: {', '.join(sorted(REGEN_RECIPES))})",
              file=sys.stderr)
        return 2
    directory = models_dir(args.models_dir)
    entries = {}
    for name in names:
        print(f"regenerating {name} ...", file=sys.stderr)
        try:
            _, report = regenerate_default_bundle(
                name, directory / name, epochs=args.epochs, seed=args.seed)
        except ModelError as exc:
            print(f"failed to regenerate {name}: {exc}", file=sys.stderr)
            return 1
        entries[name] = manifest_entry(directory / name, **report)
        print(f"  {report['samples']} samples, mae {report['mae']:.4f}")
    update_manifest(entries, args.models_dir)
    clear_policy_cache()   # repaired files must be re-resolvable at once
    print(f"manifest updated: {len(entries)} artifact(s)")
    return _cmd_models_verify(args)


def _cmd_train(args: argparse.Namespace) -> int:
    from .config import TrainingConfig, replace
    from .core.train import train_astraea
    from .errors import ReproError

    cfg = TrainingConfig()
    overrides = {}
    for name in ("episodes", "episode_duration_s", "checkpoint_every",
                 "fault_prob", "seed"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.small:
        overrides.setdefault("episodes", 4)
        overrides.update(episode_duration_s=overrides.get(
                             "episode_duration_s", 4.0),
                         hidden_layers=(8, 8), batch_size=16,
                         warmup_transitions=60, update_steps=1,
                         checkpoint_every=overrides.get(
                             "checkpoint_every", 2))
    if overrides:
        cfg = replace(cfg, **overrides)
    try:
        bundle, history = train_astraea(
            cfg, eval_every=args.eval_every, verbose=True,
            checkpoint_dir=args.checkpoint_dir, resume_from=args.resume,
            checkpoint_keep=args.checkpoint_keep, workers=args.workers)
    except ReproError as exc:
        print(f"training failed: {exc}", file=sys.stderr)
        return 1
    n_failed = len(history.failed_episodes)
    print(f"trained {cfg.episodes} episode(s) in {history.wall_time_s:.1f} s"
          f" ({n_failed} quarantined), best episode {history.best_episode}")
    if args.out:
        path = bundle.save(args.out)
        print(f"policy bundle saved to {path}")
    if args.history_out:
        from pathlib import Path

        doc = {k: v for k, v in history.__dict__.items()}
        path = Path(args.history_out)
        path.write_text(json.dumps(doc, indent=2))
        print(f"training history saved to {path}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .bench.scenarios import ROBUSTNESS_KINDS, robustness_scenario
    from .errors import ReproError
    from .netsim.faults import FaultSchedule

    if args.kind == "sample":
        schedule = FaultSchedule.sample(args.duration, seed=args.seed)
        print(schedule.describe())
        return 0
    if args.kind not in ROBUSTNESS_KINDS:
        print(f"unknown fault kind {args.kind!r} "
              f"(known: sample, {', '.join(ROBUSTNESS_KINDS)})",
              file=sys.stderr)
        return 2
    try:
        scenario = robustness_scenario(args.cc, kind=args.kind,
                                       quick=args.quick, seed=args.seed)
    except ReproError as exc:
        print(f"cannot build scenario: {exc}", file=sys.stderr)
        return 1
    print(scenario.faults.describe())
    if args.describe_only:
        return 0
    from .env import run_scenario
    from .metrics import summarize

    result = run_scenario(scenario)
    summary = summarize(result, args.cc, penalty_s=scenario.duration_s)
    for key, value in summary.as_dict().items():
        print(f"{key:20s} {value}")
    return 0


def _cmd_bench_robustness(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.robustness import (
        ALL_SCHEMES,
        ENGINES,
        FAULT_KINDS,
        SMALL_KINDS,
        SMALL_SCHEMES,
        markdown_report,
        run_robustness_sweep,
    )
    from .errors import ReproError

    def split(value, default):
        if value is None or value == "all":
            return default
        return tuple(v.strip() for v in value.split(",") if v.strip())

    if args.small:
        # The smoke subset, but explicit axis flags still win — e.g.
        # `--small --engines socket` runs the small matrix on the
        # loopback-UDP engine.
        schemes = split(args.schemes, SMALL_SCHEMES)
        kinds = split(args.kinds, SMALL_KINDS)
        engines = split(args.engines, ("fluid",))
        trials = 1
    else:
        schemes = split(args.schemes, ALL_SCHEMES)
        kinds = split(args.kinds, FAULT_KINDS)
        engines = split(args.engines, ENGINES)
        trials = args.trials

    def progress(done, total, cell):
        print(f"[{done}/{total}] {cell.engine}/{cell.scheme}/{cell.kind}: "
              f"recovered {cell.recovered}/{cell.trials}", file=sys.stderr)

    try:
        payload = run_robustness_sweep(
            schemes=schemes, kinds=kinds, engines=engines, trials=trials,
            quick=not args.full, threshold=args.threshold,
            progress=progress, workers=args.workers, policy=args.policy)
    except ReproError as exc:
        print(f"robustness sweep failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # No partial artifacts: the sweep either completes and writes
        # both files, or leaves the output directory untouched.
        print("robustness sweep interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    report = markdown_report(payload)
    exp_id = "robustness_small" if args.small else "robustness"
    if args.out_dir:
        out = Path(args.out_dir)
        json_path = reporting.write_results_file(out / f"{exp_id}.json",
                                                 payload)
        md_path = persist.write_text_atomic(out / f"{exp_id}.md",
                                            report + "\n")
    else:
        json_path = reporting.save_results(exp_id, payload)
        md_path = reporting.save_markdown(exp_id, report)
    print(report)
    print(f"\nJSON artifact: {json_path}\nmarkdown table: {md_path}",
          file=sys.stderr)
    return 0


def _cmd_bench_scenarios(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.robustness import ALL_SCHEMES, ENGINES
    from .bench.scenariobench import (
        BENCH_ID,
        SMALL_SCHEMES,
        SWEEP_FAMILIES,
        markdown_report,
        run_scenario_sweep,
    )
    from .errors import ReproError

    def split(value, default):
        if value is None or value == "all":
            return default
        return tuple(v.strip() for v in value.split(",") if v.strip())

    if args.small:
        # The smoke subset, but explicit axis flags still win.
        schemes = split(args.schemes, SMALL_SCHEMES)
        families = split(args.families, SWEEP_FAMILIES)
        engines = split(args.engines, ENGINES)
        trials = 1
    else:
        schemes = split(args.schemes, ALL_SCHEMES)
        families = split(args.families, SWEEP_FAMILIES)
        engines = split(args.engines, ENGINES)
        trials = args.trials

    def progress(done, total, cell):
        print(f"[{done}/{total}] {cell.engine}/{cell.scheme}/{cell.family}: "
              f"jfi={cell.jfi:.3f} util={cell.utilization:.3f}",
              file=sys.stderr)

    try:
        payload = run_scenario_sweep(
            schemes=schemes, families=families, engines=engines,
            trials=trials, quick=not args.full, progress=progress,
            workers=args.workers)
    except ReproError as exc:
        print(f"scenario sweep failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # No partial artifacts: the sweep either completes and writes
        # both files, or leaves the output directory untouched.
        print("scenario sweep interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    report = markdown_report(payload)
    if args.out_dir:
        out = Path(args.out_dir)
        json_path = reporting.write_results_file(out / f"{BENCH_ID}.json",
                                                 payload)
        md_path = persist.write_text_atomic(out / f"{BENCH_ID}.md",
                                            report + "\n")
    else:
        json_path = reporting.save_results(BENCH_ID, payload)
        md_path = reporting.save_markdown(BENCH_ID, report)
    print(report)
    print(f"\nJSON artifact: {json_path}\nmarkdown table: {md_path}",
          file=sys.stderr)
    return 0


def _cmd_bench_scaling(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.robustness import SMALL_KINDS, SMALL_SCHEMES
    from .bench.scaling import BENCH_ID, run_scaling_benchmark
    from .errors import ReproError

    def split(value, default):
        if value is None or value == "all":
            return default
        return tuple(v.strip() for v in value.split(",") if v.strip())

    try:
        payload = run_scaling_benchmark(
            workers=args.workers,
            schemes=split(args.schemes, SMALL_SCHEMES),
            kinds=split(args.kinds, SMALL_KINDS),
            engines=split(args.engines, ("fluid",)),
            trials=args.trials)
    except ReproError as exc:
        print(f"scaling benchmark failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("scaling benchmark interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    if args.out_dir:
        path = reporting.write_results_file(
            Path(args.out_dir) / f"{BENCH_ID}.json", payload)
    else:
        path = reporting.save_results(BENCH_ID, payload)
    print(f"{payload['cells']} cell(s), {payload['workers']} worker(s) on "
          f"{payload['cpu_count']} CPU(s): serial {payload['serial_s']:.2f}s"
          f" vs parallel {payload['parallel_s']:.2f}s "
          f"(speedup {payload['speedup']:.2f}x, deterministic="
          f"{payload['deterministic']})")
    print(f"JSON artifact: {path}", file=sys.stderr)
    return 0


def _cmd_bench_engine(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.engine import (
        BENCH_ID,
        check_equivalence,
        run_engine_benchmark,
    )
    from .errors import ReproError

    if args.check_only:
        verdict = check_equivalence()
        if verdict["passed"]:
            print(f"fast path equals reference on the pinned scenario "
                  f"({verdict['rows']} log rows, max delta "
                  f"{verdict['max_delta']:.3g} <= {verdict['tolerance']:g})")
            return 0
        print(f"ENGINE DIVERGENCE: {verdict}", file=sys.stderr)
        return 1

    if args.small:
        flow_counts = (2, 8)
        duration_s = 5.0
    else:
        flow_counts = (1, 2, 8, 16)
        duration_s = args.duration
    if args.flows:
        flow_counts = tuple(int(v) for v in args.flows.split(",") if v.strip())

    try:
        payload = run_engine_benchmark(
            flow_counts=flow_counts, duration_s=duration_s,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    except ReproError as exc:
        print(f"engine benchmark failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("engine benchmark interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    if args.out_dir:
        path = reporting.write_results_file(
            Path(args.out_dir) / f"{BENCH_ID}.json", payload)
    else:
        path = reporting.save_results(BENCH_ID, payload)

    from .bench import print_table
    print_table(
        "Engine fast path vs per-tick reference",
        ["flows", "fast ticks/s", "reference ticks/s", "speedup"],
        [[row["n_flows"], row["fast"]["ticks_per_s"],
          row["reference"]["ticks_per_s"], row["speedup"]]
         for row in payload["ticks_per_s"]],
    )
    ep = payload["episode"]
    eq = payload["equivalence"]
    print(f"\nepisode ({ep['n_flows']} flows, {ep['duration_s']:g}s): "
          f"fast {ep['fast']['elapsed_s']:.2f}s vs reference "
          f"{ep['reference']['elapsed_s']:.2f}s "
          f"(speedup {ep['speedup']:.2f}x)")
    print(f"equivalence: passed={eq['passed']} "
          f"max_delta={eq['max_delta']:.3g} over {eq['rows']} rows")
    print(f"JSON artifact: {path}", file=sys.stderr)
    return 0 if eq["passed"] else 1


def _cmd_bench_train(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.trainbench import (
        BENCH_ID,
        check_equivalence,
        run_train_benchmark,
    )
    from .errors import ReproError

    if args.check_only:
        verdict = check_equivalence()
        if verdict["passed"]:
            print(f"batched rollout equals the per-flow reference on the "
                  f"pinned episode ({verdict['rows']} transitions, "
                  f"{verdict['update_bursts']} update bursts, max delta "
                  f"{verdict['max_delta']:g} <= {verdict['tolerance']:g})")
            return 0
        print(f"TRAIN-PATH DIVERGENCE: {verdict}", file=sys.stderr)
        return 1

    if args.small:
        duration_s, episodes = 3.0, 2
    else:
        duration_s, episodes = args.duration, args.episodes

    try:
        payload = run_train_benchmark(
            n_flows=args.flows, duration_s=duration_s, episodes=episodes,
            workers=args.workers,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    except ReproError as exc:
        print(f"train benchmark failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("train benchmark interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    if args.out_dir:
        path = reporting.write_results_file(
            Path(args.out_dir) / f"{BENCH_ID}.json", payload)
    else:
        path = reporting.save_results(BENCH_ID, payload)

    from .bench import print_table
    serial = payload["modes"]["serial"]["steps_per_s"]
    print_table(
        "Training rollouts: batched fast path vs per-flow reference",
        ["mode", "episodes/s", "steps/s", "speedup"],
        [[mode, row["episodes_per_s"], row["steps_per_s"],
          row["steps_per_s"] / serial if serial else None]
         for mode, row in payload["modes"].items()],
    )
    eq = payload["equivalence"]
    print(f"\nequivalence: passed={eq['passed']} "
          f"max_delta={eq['max_delta']:g} over {eq['rows']} transitions, "
          f"{eq['update_bursts']} update bursts")
    print(f"JSON artifact: {path}", file=sys.stderr)
    return 0 if eq["passed"] else 1


def _cmd_bench_fleet(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.fleetbench import (
        BENCH_ID,
        FLEET_POINTS,
        SMALL_POINTS,
        fleet_table_rows,
        run_fleet_benchmark,
    )
    from .errors import ReproError
    from .fleet import check_equivalence

    if args.check_only:
        verdict = check_equivalence(workers=args.workers)
        if verdict["passed"]:
            fleets = "; ".join(
                f"{spec['cc']} {spec['n_shards']} shards x "
                f"{spec['flows_per_shard']} flows, seed {spec['seed']}"
                for spec in verdict["specs"])
            print(f"fleet aggregates identical for workers "
                  f"{verdict['workers_compared']} on the pinned fleets "
                  f"({fleets})")
            return 0
        print(f"FLEET DIVERGENCE: {verdict}", file=sys.stderr)
        return 1

    points = SMALL_POINTS if args.small else FLEET_POINTS
    if args.points:
        try:
            points = tuple(
                tuple(int(v) for v in pair.split("x"))
                for pair in args.points.split(",") if pair.strip())
            if any(len(p) != 2 for p in points):
                raise ValueError(points)
        except ValueError:
            print(f"--points must look like '4x25,25x40', got "
                  f"{args.points!r}", file=sys.stderr)
            return 2

    try:
        payload = run_fleet_benchmark(
            points=points, cc=args.cc, seed=args.seed, workers=args.workers,
            small=args.small,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    except ReproError as exc:
        print(f"fleet benchmark failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("fleet benchmark interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    if args.out_dir:
        path = reporting.write_results_file(
            Path(args.out_dir) / f"{BENCH_ID}.json", payload)
    else:
        path = reporting.save_results(BENCH_ID, payload)

    from .bench import print_table
    print_table(
        "Fleet scaling: flow-ticks per wall-second, serial vs sharded",
        ["shards x flows", "flows", "serial ft/s", "sharded ft/s",
         "speedup", "jain", "util"],
        fleet_table_rows(payload),
    )
    eq = payload["equivalence"]
    gate = payload["speedup_gate"]
    print(f"\nequivalence: {eq['verdict']} for workers "
          f"{eq['workers_compared']}")
    if gate["applicable"]:
        print(f"speedup gate (>= {gate['required_speedup']:g}x at >= "
              f"{gate['min_flows']} flows): met={gate['met']} "
              f"(best {gate['best_speedup']:.2f}x on "
              f"{gate['cpu_count']} CPUs)")
    else:
        print(f"speedup gate not applicable on this host "
              f"({gate['cpu_count']} CPU(s) < {gate['min_cores']} or no "
              f">= {gate['min_flows']}-flow point measured)")
    print(f"JSON artifact: {path}", file=sys.stderr)
    return 0 if eq["passed"] else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .service.daemon import serve_main

    deadline = args.deadline if args.deadline and args.deadline > 0 \
        else None
    fallback = None if args.fallback == "none" else args.fallback
    try:
        return serve_main(
            host=args.host, port=args.port, scheme=args.scheme,
            batch_window_s=args.window, deadline_s=deadline,
            fallback=fallback, max_inflight=args.max_inflight,
            shards=args.shards, max_restarts=args.max_restarts)
    except ReproError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 130


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.serve import (
        BENCH_ID,
        DEFAULT_LEVELS,
        SMALL_LEVELS,
        run_serve_benchmark,
    )
    from .errors import ReproError

    if args.small:
        levels, duration = SMALL_LEVELS, 0.6
    else:
        levels, duration = DEFAULT_LEVELS, args.duration
    if args.levels:
        levels = tuple(int(v) for v in args.levels.split(",") if v.strip())
    connect = None
    if args.connect:
        connect = []
        for part in args.connect.split(","):
            host, _, port = part.strip().rpartition(":")
            connect.append((host or "127.0.0.1", int(port)))
    try:
        payload = run_serve_benchmark(
            levels, duration_s=duration, mtp_s=args.mtp,
            shards=args.shards, scheme=args.scheme, window_s=args.window,
            deadline_s=args.deadline if args.deadline > 0 else None,
            max_inflight=args.max_inflight,
            conns_per_shard=args.conns_per_shard, timeout=args.timeout,
            connect=connect,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    except ReproError as exc:
        print(f"serve benchmark failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("serve benchmark interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    if args.out_dir:
        path = reporting.write_results_file(
            Path(args.out_dir) / f"{BENCH_ID}.json", payload)
    else:
        path = reporting.save_results(BENCH_ID, payload)

    from .bench import print_table
    print_table(
        "Serving daemon under closed-loop load "
        f"({payload['config']['shards']} shard(s), "
        f"{payload['config']['window_s'] * 1e3:g} ms window)",
        ["flows", "actions/s", "p50 (ms)", "p99 (ms)", "p999 (ms)",
         "batch", "unanswered"],
        [[row["n_flows"], row["actions_per_s"],
          row["latency"]["p50_s"] * 1e3, row["latency"]["p99_s"] * 1e3,
          row["latency"]["p999_s"] * 1e3,
          row["daemon"]["mean_batch_size"], row["unanswered"]]
         for row in payload["levels"]],
    )
    if payload["clean_shutdown"] is not None:
        print(f"\ndaemon shutdown clean: {payload['clean_shutdown']}")
    print(f"JSON artifact: {path}", file=sys.stderr)
    return 0


def _cmd_bench_socket(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import reporting
    from .bench.socketbench import (
        BENCH_ID,
        run_socket_benchmark,
        run_socket_smoke,
    )
    from .errors import ReproError

    if args.smoke:
        try:
            verdict = run_socket_smoke(seed=args.seed)
        except ReproError as exc:
            print(f"socket smoke failed: {exc}", file=sys.stderr)
            return 1
        loss, rec = verdict["loss"], verdict["recovery"]
        print(f"loss transfer: payload_ok={loss['payload_ok']} "
              f"({loss['n_segments']} segments, "
              f"{loss['retransmits']} retransmits, "
              f"{loss['duplicates']} duplicates)")
        print(f"recovery ({rec['scheme']}/{rec['kind']}): "
              f"recovered={rec['recovered']} "
              f"t_rec={rec['recovery_time_s']}s corrupt={rec['corrupt']}")
        if not verdict["ok"]:
            print("SOCKET SMOKE FAILED", file=sys.stderr)
            return 1
        return 0

    try:
        payload = run_socket_benchmark(
            small=args.small, seed=args.seed,
            progress=lambda msg: print(f"  {msg}", file=sys.stderr))
    except ReproError as exc:
        print(f"socket benchmark failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("socket benchmark interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    if args.out_dir:
        path = reporting.write_results_file(
            Path(args.out_dir) / f"{BENCH_ID}.json", payload)
    else:
        path = reporting.save_results(BENCH_ID, payload)

    from .bench import print_table
    print_table(
        "Socket datapath: delivered goodput vs emulated capacity",
        ["bandwidth (Mbps)", "achieved (Mbps)", "efficiency",
         "wire segs/s", "pkts/seg", "retransmits"],
        [[row["bandwidth_mbps"], row["achieved_mbps"], row["efficiency"],
          row["wire_segs_per_wall_s"], row["pkts_per_seg"],
          row["retransmits"]]
         for row in payload["throughput"]],
    )
    loss, rec = payload["loss"], payload["recovery"]
    print(f"\n5% seeded loss: payload_ok={loss['payload_ok']} "
          f"goodput efficiency {loss['goodput_efficiency']:.3f} "
          f"({loss['retransmits']} retransmits / "
          f"{loss['n_segments']} segments)")
    print(f"recovery ({rec['scheme']}/{rec['kind']}): "
          f"recovered={rec['recovered']} t_rec={rec['recovery_time_s']}s "
          f"baseline {rec['baseline_mbps']:.2f} Mbps")
    print(f"JSON artifact: {path}", file=sys.stderr)
    ok = loss["payload_ok"] and rec["corrupt"] == 0
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario JSON file")
    p_run.add_argument("scenario", help="path to a scenario JSON")
    p_run.add_argument("--out", default=None,
                       help="save the full per-interval logs here")
    p_run.add_argument("--plot", action="store_true",
                       help="render per-flow throughput timelines")
    p_run.add_argument("--ascii", action="store_true",
                       help="use plain-ASCII sparklines")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare schemes side by side")
    p_cmp.add_argument("--schemes", default="astraea,cubic,bbr,vegas")
    p_cmp.add_argument("--bandwidth", type=float, default=100.0)
    p_cmp.add_argument("--rtt", type=float, default=30.0)
    p_cmp.add_argument("--buffer", type=float, default=1.0)
    p_cmp.add_argument("--flows", type=int, default=3)
    p_cmp.add_argument("--interval", type=float, default=20.0)
    p_cmp.add_argument("--flow-duration", type=float, default=60.0)
    p_cmp.add_argument("--duration", type=float, default=100.0)
    p_cmp.add_argument("--trials", type=int, default=1)
    p_cmp.add_argument("--workers", type=int, default=None,
                       help="process-pool size for the trials "
                            "(default: $REPRO_WORKERS, else serial)")
    p_cmp.set_defaults(func=_cmd_compare)

    p_tpl = sub.add_parser("template", help="print a scenario template")
    p_tpl.set_defaults(func=_cmd_template)

    p_info = sub.add_parser("info", help="list schemes/traces/models")
    p_info.set_defaults(func=_cmd_info)

    p_models = sub.add_parser(
        "models", help="model-artifact integrity (verify/info/regenerate)")
    models_sub = p_models.add_subparsers(dest="models_command", required=True)

    p_verify = models_sub.add_parser(
        "verify", help="check every bundle against the manifest")
    p_verify.add_argument("--models-dir", default=None,
                          help="override the models directory")
    p_verify.set_defaults(func=_cmd_models_verify)

    p_minfo = models_sub.add_parser(
        "info", help="per-bundle manifest details")
    p_minfo.add_argument("--models-dir", default=None)
    p_minfo.set_defaults(func=_cmd_models_info)

    p_regen = models_sub.add_parser(
        "regenerate",
        help="rebuild bundles deterministically from the analytic "
             "reference and restamp the manifest")
    p_regen.add_argument("names", nargs="*",
                         help="bundle filenames (default: all recipes)")
    p_regen.add_argument("--models-dir", default=None)
    p_regen.add_argument("--epochs", type=int, default=3000)
    p_regen.add_argument("--seed", type=int, default=0)
    p_regen.set_defaults(func=_cmd_models_regenerate)

    p_train = sub.add_parser(
        "train", help="run or resume Astraea training with checkpoints")
    p_train.add_argument("--episodes", type=int, default=None)
    p_train.add_argument("--episode-duration-s", type=float, default=None,
                         dest="episode_duration_s")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--fault-prob", type=float, default=None,
                         dest="fault_prob",
                         help="probability an episode carries a sampled "
                              "link-fault schedule")
    p_train.add_argument("--small", action="store_true",
                         help="tiny smoke-test configuration")
    p_train.add_argument("--eval-every", type=int, default=25)
    p_train.add_argument("--checkpoint-dir", default=None,
                         help="write periodic atomic checkpoints here")
    p_train.add_argument("--checkpoint-every", type=int, default=None,
                         dest="checkpoint_every")
    p_train.add_argument("--checkpoint-keep", type=int, default=1,
                         dest="checkpoint_keep",
                         help="retain the last N checkpoint payloads "
                              "(rotation; default 1)")
    p_train.add_argument("--workers", type=int, default=None,
                         help="process-pool size for the periodic eval "
                              "pass (default: $REPRO_WORKERS, else serial)")
    p_train.add_argument("--resume", default=None, metavar="DIR",
                         help="resume bit-exactly from the checkpoint in "
                              "DIR (also keeps checkpointing there)")
    p_train.add_argument("--out", default=None,
                         help="save the best policy bundle here")
    p_train.add_argument("--history-out", default=None,
                         help="save the training history JSON here")
    p_train.set_defaults(func=_cmd_train)

    p_faults = sub.add_parser(
        "faults", help="inspect or run link-fault schedules")
    p_faults.add_argument("kind", nargs="?", default="sample",
                          help="'sample' to print a random schedule, or a "
                               "robustness-scenario kind (blackout, flap, "
                               "loss-burst, delay-spike, reorder, mixed)")
    p_faults.add_argument("--cc", default="astraea",
                          help="scheme to run under the fault")
    p_faults.add_argument("--seed", type=int, default=0)
    p_faults.add_argument("--duration", type=float, default=90.0,
                          help="schedule duration for 'sample'")
    p_faults.add_argument("--quick", action="store_true",
                          help="30 s scenario instead of 90 s")
    p_faults.add_argument("--describe-only", action="store_true",
                          help="print the schedule without running")
    p_faults.set_defaults(func=_cmd_faults)

    p_serve = sub.add_parser(
        "serve",
        help="run the asyncio inference-serving daemon (SIGTERM drains)")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8731,
                         help="base TCP port; 0 picks ephemeral ports "
                              "(announced as 'LISTENING host port' lines)")
    p_serve.add_argument("--scheme", default="astraea",
                         help="policy bundle to serve")
    p_serve.add_argument("--window", type=float, default=0.005,
                         help="batching window in seconds (default 5 ms)")
    p_serve.add_argument("--deadline", type=float, default=0.050,
                         help="per-request queue deadline in seconds "
                              "(0 disables)")
    p_serve.add_argument("--fallback", default="analytic",
                         choices=("analytic", "none"),
                         help="degraded-mode answer for bad states and "
                              "deadline misses")
    p_serve.add_argument("--max-inflight", type=int, default=4096,
                         dest="max_inflight",
                         help="admission-control ceiling per shard")
    p_serve.add_argument("--shards", type=int, default=1,
                         help="daemon processes; flow-id hash routes "
                              "each flow to one shard (port+index)")
    p_serve.add_argument("--max-restarts", type=int, default=5,
                         dest="max_restarts",
                         help="consecutive crash-restarts per shard "
                              "before the supervisor abandons it")
    p_serve.set_defaults(func=_cmd_serve)

    p_bench = sub.add_parser(
        "bench", help="benchmark sweeps (robustness report)")
    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    p_rob = bench_sub.add_parser(
        "robustness",
        help="recovery metrics per (scheme, fault kind, engine)")
    p_rob.add_argument("--schemes", default=None,
                       help="comma-separated scheme names (default: all)")
    p_rob.add_argument("--kinds", default=None,
                       help="comma-separated fault kinds (default: all 5)")
    p_rob.add_argument("--engines", default=None,
                       help="comma-separated engines: fluid, packet, socket "
                            "(default: fluid,packet)")
    p_rob.add_argument("--trials", type=int, default=2,
                       help="seeds per (scheme, fault, engine) cell")
    p_rob.add_argument("--threshold", type=float, default=0.9,
                       help="recovered = throughput back at this fraction "
                            "of the pre-fault steady state")
    p_rob.add_argument("--small", action="store_true",
                       help="CI smoke subset: 2 schemes x 3 faults, fluid "
                            "engine, 1 trial (explicit --schemes/--kinds/"
                            "--engines still override)")
    p_rob.add_argument("--full", action="store_true",
                       help="full 90 s scenarios instead of quick 30 s")
    p_rob.add_argument("--out-dir", default=None,
                       help="write artifacts here instead of "
                            "benchmarks/results/")
    p_rob.add_argument("--workers", type=int, default=None,
                       help="process-pool size for the sweep cells "
                            "(default: $REPRO_WORKERS, else serial)")
    p_rob.add_argument("--policy", default=None,
                       help="model-bundle path substituted into every "
                            "matching-scheme flow (learned schemes only; "
                            "diff a candidate bundle against the shipped "
                            "one)")
    p_rob.set_defaults(func=_cmd_bench_robustness)

    p_scn = bench_sub.add_parser(
        "scenarios",
        help="JFI x utilization per (scheme, workload family, engine) "
             "over the incast/asymmetric-rtt/background-udp families "
             "(writes BENCH_scenarios.json)")
    p_scn.add_argument("--schemes", default=None,
                       help="comma-separated scheme names (default: all)")
    p_scn.add_argument("--families", default=None,
                       help="comma-separated registry family names "
                            "(default: incast,asymmetric-rtt,"
                            "background-udp; see 'repro info')")
    p_scn.add_argument("--engines", default=None,
                       help="comma-separated engines: fluid, packet, socket "
                            "(default: fluid,packet)")
    p_scn.add_argument("--trials", type=int, default=2,
                       help="seeds per (scheme, family, engine) cell")
    p_scn.add_argument("--small", action="store_true",
                       help="CI smoke subset: 3 schemes x 3 families on "
                            "both engines, 1 trial (explicit --schemes/"
                            "--families/--engines still override)")
    p_scn.add_argument("--full", action="store_true",
                       help="full-length scenarios instead of quick ones")
    p_scn.add_argument("--out-dir", default=None,
                       help="write artifacts here instead of "
                            "benchmarks/results/")
    p_scn.add_argument("--workers", type=int, default=None,
                       help="process-pool size for the sweep cells "
                            "(default: $REPRO_WORKERS, else serial)")
    p_scn.set_defaults(func=_cmd_bench_scenarios)

    p_scale = bench_sub.add_parser(
        "scaling",
        help="serial-vs-parallel speedup of the small robustness sweep "
             "(writes BENCH_parallel.json)")
    p_scale.add_argument("--schemes", default=None,
                         help="comma-separated scheme names "
                              "(default: the CI smoke subset)")
    p_scale.add_argument("--kinds", default=None,
                         help="comma-separated fault kinds "
                              "(default: the CI smoke subset)")
    p_scale.add_argument("--engines", default=None,
                         help="comma-separated engines (default: fluid)")
    p_scale.add_argument("--trials", type=int, default=1)
    p_scale.add_argument("--workers", type=int, default=None,
                         help="pool size of the parallel leg "
                              "(default: $REPRO_WORKERS, else 2)")
    p_scale.add_argument("--out-dir", default=None,
                         help="write the artifact here instead of "
                              "benchmarks/results/")
    p_scale.set_defaults(func=_cmd_bench_scaling)

    p_eng = bench_sub.add_parser(
        "engine",
        help="fluid-engine fast path vs per-tick reference "
             "(writes BENCH_engine.json)")
    p_eng.add_argument("--flows", default=None,
                       help="comma-separated flow counts for the ticks/s "
                            "sweep (default: 1,2,8,16)")
    p_eng.add_argument("--duration", type=float, default=30.0,
                       help="simulated seconds per measurement (default 30)")
    p_eng.add_argument("--small", action="store_true",
                       help="CI smoke subset: 2 and 8 flows, 5 s episodes")
    p_eng.add_argument("--check-only", action="store_true",
                       help="only run the pinned fast-vs-reference "
                            "equivalence scenario; non-zero exit on any "
                            "divergence, no artifact written")
    p_eng.add_argument("--out-dir", default=None,
                       help="write the artifact here instead of "
                            "benchmarks/results/")
    p_eng.set_defaults(func=_cmd_bench_engine)

    p_train = bench_sub.add_parser(
        "train",
        help="training-rollout throughput: serial vs batched vs "
             "batched+workers (writes BENCH_train.json)")
    p_train.add_argument("--flows", type=int, default=8,
                         help="agent flows per episode (default 8)")
    p_train.add_argument("--duration", type=float, default=10.0,
                         help="simulated seconds per episode (default 10)")
    p_train.add_argument("--episodes", type=int, default=3,
                         help="episodes per mode (default 3)")
    p_train.add_argument("--workers", type=int, default=2,
                         help="pool size of the batched+workers mode "
                              "(default 2)")
    p_train.add_argument("--small", action="store_true",
                         help="CI smoke subset: 2 episodes of 3 s")
    p_train.add_argument("--check-only", action="store_true",
                         help="only run the pinned serial-vs-batched "
                              "equivalence episode; non-zero exit on any "
                              "divergence, no artifact written")
    p_train.add_argument("--out-dir", default=None,
                         help="write the artifact here instead of "
                              "benchmarks/results/")
    p_train.set_defaults(func=_cmd_bench_train)

    p_fleet = bench_sub.add_parser(
        "fleet",
        help="fleet scaling sweep: flows per wall-second 10 -> 10k, "
             "serial vs sharded (writes BENCH_fleet.json)")
    p_fleet.add_argument("--points", default=None,
                         help="comma-separated shard-count x flows-per-"
                              "shard pairs, e.g. '4x25,25x40' "
                              "(default: the 10 -> 10,000 ladder)")
    p_fleet.add_argument("--cc", default="cubic",
                         help="scheme every fleet flow runs (default cubic)")
    p_fleet.add_argument("--seed", type=int, default=0,
                         help="fleet seed (default 0)")
    p_fleet.add_argument("--workers", type=int, default=2,
                         help="pool size of the sharded leg (default 2)")
    p_fleet.add_argument("--small", action="store_true",
                         help="CI smoke subset: the 10- and 100-flow points")
    p_fleet.add_argument("--check-only", action="store_true",
                         help="only run the pinned serial-vs-sharded "
                              "equivalence fleets (cubic and astraea); "
                              "non-zero exit unless the aggregates are "
                              "identical, no artifact written")
    p_fleet.add_argument("--out-dir", default=None,
                         help="write the artifact here instead of "
                              "benchmarks/results/")
    p_fleet.set_defaults(func=_cmd_bench_fleet)

    p_srv = bench_sub.add_parser(
        "serve",
        help="closed-loop load sweep against a live serving daemon "
             "(writes BENCH_serve.json)")
    p_srv.add_argument("--levels", default=None,
                       help="comma-separated concurrent-flow counts "
                            "(default: 8,64,256,1024)")
    p_srv.add_argument("--duration", type=float, default=3.0,
                       help="seconds of load per level (default 3)")
    p_srv.add_argument("--mtp", type=float, default=0.020,
                       help="per-flow request cadence in seconds")
    p_srv.add_argument("--shards", type=int, default=1,
                       help="daemon shard processes to spawn")
    p_srv.add_argument("--scheme", default="astraea")
    p_srv.add_argument("--window", type=float, default=0.005,
                       help="daemon batching window in seconds")
    p_srv.add_argument("--deadline", type=float, default=0.050,
                       help="daemon per-request deadline (0 disables)")
    p_srv.add_argument("--max-inflight", type=int, default=4096,
                       dest="max_inflight")
    p_srv.add_argument("--conns-per-shard", type=int, default=8,
                       dest="conns_per_shard",
                       help="client connections multiplexing the flows")
    p_srv.add_argument("--timeout", type=float, default=30.0,
                       help="per-request client timeout in seconds")
    p_srv.add_argument("--connect", default=None,
                       help="comma-separated host:port of an already-"
                            "running daemon (default: spawn one)")
    p_srv.add_argument("--small", action="store_true",
                       help="CI smoke subset: 4/16/64 flows, 0.6 s "
                            "levels")
    p_srv.add_argument("--out-dir", default=None,
                       help="write the artifact here instead of "
                            "benchmarks/results/")
    p_srv.set_defaults(func=_cmd_bench_serve)

    p_sock = bench_sub.add_parser(
        "socket",
        help="loopback-UDP datapath: wire rate, goodput under 5% loss, "
             "post-fault recovery (writes BENCH_socket.json)")
    p_sock.add_argument("--seed", type=int, default=1,
                        help="impairment-schedule seed")
    p_sock.add_argument("--small", action="store_true",
                        help="CI subset: 2 bandwidth levels, short runs")
    p_sock.add_argument("--smoke", action="store_true",
                        help="gating check only: byte-exact 5%%-loss "
                             "transfer + finite recovery; no artifact")
    p_sock.add_argument("--out-dir", default=None,
                        help="write the artifact here instead of "
                             "benchmarks/results/")
    p_sock.set_defaults(func=_cmd_bench_socket)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
