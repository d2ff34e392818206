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
              frames over loopback TCP (binary ``act``, JSON otherwise;
              a pre-binary client cannot ``act``), the shared 5 ms
              batching window, admission control, graceful SIGTERM
              drain, a ``stats`` verb (counters, latency quantiles) and
              ``--shards N`` process fan-out (flow-id hash -> shard).
``bench``     benchmarks, one subcommand per entry of the registry in
              ``repro/bench/registry.py`` (``repro bench --help`` lists
              them); each writes a strict-JSON artifact under
              ``benchmarks/results/`` or ``--out-dir``.

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
    from .errors import ReproError
    from .netsim.faults import FaultSchedule
    from .scenarios import ROBUSTNESS_KINDS, robustness_scenario

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


def _cmd_bench(args: argparse.Namespace) -> int:
    """Drive one registry entry (:class:`repro.bench.registry.Bench`)."""
    from pathlib import Path

    from .bench import reporting
    from .bench.registry import parse_list_flags
    from .errors import ReproError

    bench = args.bench
    try:
        parse_list_flags(bench, args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        if bench.gate and getattr(args, bench.gate):
            ok, message = bench.check(args)
            print(message, file=sys.stdout if ok else sys.stderr)
            return 0 if ok else 1
        payload = bench.run(
            args, lambda line: print(line, file=sys.stderr))
    except ReproError as exc:
        print(f"{bench.title} failed: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # No partial artifacts: the bench either completes and writes
        # its files, or leaves the output directory untouched.
        print(f"{bench.title} interrupted; no artifacts written",
              file=sys.stderr)
        return 130
    stem = bench.small_id if bench.small_id and args.small else bench.bench_id
    out = Path(args.out_dir) if args.out_dir else reporting.RESULTS_DIR
    json_path = reporting.write_results_file(out / f"{stem}.json", payload)
    artifacts = f"JSON artifact: {json_path}"
    if bench.markdown:
        md_path = persist.write_text_atomic(
            out / f"{stem}.md", bench.markdown(payload) + "\n")
        artifacts = f"\n{artifacts}\nmarkdown table: {md_path}"
    print(bench.render(payload))
    print(artifacts, file=sys.stderr)
    return 0 if bench.ok is None or bench.ok(payload) else 1


def _add_bench_parsers(p_bench: argparse.ArgumentParser) -> None:
    """Attach one sub-parser per registered bench (imports them all)."""
    from .bench.registry import Flag, load_benches

    bench_sub = p_bench.add_subparsers(dest="bench_command", required=True)
    for bench in load_benches():
        p = bench_sub.add_parser(bench.name, help=bench.help)
        for item in bench.flags:
            kwargs = item.kwargs
            if item is Flag.OUT_DIR:
                what = "artifacts" if bench.markdown else "the artifact"
                kwargs = {**kwargs, "help": f"write {what} here instead "
                                            "of benchmarks/results/"}
            p.add_argument(*item.names, **kwargs)
        p.set_defaults(func=_cmd_bench, bench=bench)


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The full parser; given the ``argv`` about to be parsed, the bench
    sub-parsers attach only if the command is ``bench`` — they import
    every bench module, which ``repro serve`` startup must not pay."""
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
        "bench", help="benchmarks and their equivalence gates")
    if argv is None or argv[:1] == ["bench"]:
        _add_bench_parsers(p_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
