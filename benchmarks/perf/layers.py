"""Which public callables the traced run wraps, and the metric names
their span totals are published under.

Span names are ``<layer module>.<callable>``; a per-layer metric is a
span name plus a quantity (``self_s``, ``calls``, or a derived rate).
The list is the contract ``BENCHMARK.json`` declares: a traced run emits
every name, with 0 where the workload bypasses the layer — which is the
"this workload must not move when that layer changes" half of every
prediction in the README's interaction table.
"""

from __future__ import annotations

from spans import Tracer


def _rows(_self, x, *_args, **_kwargs) -> int:
    """Rows of one forward call (a bare vector is a batch of one)."""
    shape = getattr(x, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _flow_ticks(engine, _dt, n_ticks) -> int:
    return int(n_ticks) * len(engine.flow_ids)


#: (span name, module, attribute path, work counter) — in-process layers.
#: ``build_driver`` is listed twice because ``env.episode`` binds its own
#: reference with a from-import.
INPROC_SPANS = (
    ("netsim.fluid.advance_block", "repro.netsim.fluid",
     "FluidNetwork.advance_block", _flow_ticks),
    ("netsim.fluid.set_cwnd", "repro.netsim.fluid",
     "FluidNetwork.set_cwnd", None),
    ("netsim.fluid.add_flows", "repro.netsim.fluid",
     "FluidNetwork.add_flows", None),
    ("netsim.stats.collect", "repro.netsim.stats",
     "FlowMonitor.collect", None),
    ("env.multiflow.step_block", "repro.env.multiflow",
     "ScenarioDriver.step_block", None),
    ("env.multiflow.collect_due", "repro.env.multiflow",
     "ScenarioDriver.collect_due", None),
    ("env.multiflow.finish_flow", "repro.env.multiflow",
     "ScenarioDriver.finish_flow", None),
    ("env.multiflow.build_driver", "repro.env.multiflow",
     "build_driver", None),
    ("env.multiflow.build_driver", "repro.env.episode",
     "build_driver", None),
    ("core.state.update", "repro.core.state",
     "LocalStateBlock.update", None),
    ("core.policy.act", "repro.core.policy", "PolicyBundle.act", None),
    ("rl.nn.infer", "repro.rl.nn", "MLP.infer", _rows),
    ("rl.nn.infer_rows", "repro.rl.nn", "MLP.infer_rows", _rows),
    ("rl.nn.forward", "repro.rl.nn", "MLP.forward", None),
    ("rl.nn.backward", "repro.rl.nn", "MLP.backward", None),
    ("rl.td3.update", "repro.rl.td3", "TD3Learner.update", None),
    ("rl.replay.sample", "repro.rl.replay", "ReplayBuffer.sample", None),
    ("rl.replay.add_batch", "repro.rl.replay",
     "ReplayBuffer.add_batch", None),
    ("core.learner.act_batch", "repro.core.learner",
     "Learner.act_batch", None),
    ("core.learner.update_burst", "repro.core.learner",
     "Learner.update_burst", None),
    ("core.learner.flush_transitions", "repro.core.learner",
     "Learner.flush_transitions", None),
    ("env.episode.run_training_episode", "repro.env.episode",
     "run_training_episode", None),
    ("fleet.run_fleet", "repro.fleet.runner", "run_fleet", None),
    ("scenarios.build_scenario", "repro.scenarios", "build_scenario", None),
    ("metrics.fairness.add", "repro.metrics.fairness",
     "FairnessAccumulator.add", None),
    ("metrics.fairness.merge", "repro.metrics.fairness",
     "FairnessAccumulator.merge", None),
)

#: The daemon process: wire codec, service queue, stacked forward.
DAEMON_SPANS = (
    ("service.daemon.read_frame", "repro.service.daemon",
     "read_frame", None),
    ("service.daemon.decode_body", "repro.service.daemon",
     "decode_body", None),
    ("service.daemon.encode_frame", "repro.service.daemon",
     "encode_frame", None),
    ("service.inference.submit", "repro.service.inference",
     "BatchedInferenceService.submit", None),
    ("service.inference.flush", "repro.service.inference",
     "BatchedInferenceService.flush", None),
    ("rl.nn.infer", "repro.rl.nn", "MLP.infer", _rows),
)

#: Quantities published per span, beyond ``self_s``.  A derived rate is
#: (numerator key, denominator key, scale).
_DERIVED = {
    "us_per_call": ("self_s", "calls", 1e6),
    "ms_per_call": ("self_s", "calls", 1e3),
    "rows_per_call": ("units", "calls", 1.0),
    "ns_per_flow_tick": ("self_s", "units", 1e9),
}

#: span name -> quantities (``self_s`` first when published).
SPAN_QUANTITIES = {
    "netsim.fluid.advance_block": ("self_s", "calls", "ns_per_flow_tick"),
    "netsim.fluid.set_cwnd": ("self_s", "calls"),
    "netsim.fluid.add_flows": ("self_s",),
    "netsim.stats.collect": ("self_s", "calls", "us_per_call"),
    "env.multiflow.step_block": ("self_s",),
    "env.multiflow.collect_due": ("self_s",),
    "env.multiflow.finish_flow": ("self_s", "calls"),
    "env.multiflow.build_driver": ("self_s",),
    "cc.on_interval": ("self_s", "calls", "us_per_call"),
    "core.state.update": ("self_s",),
    "core.policy.act": ("self_s",),
    "rl.nn.infer": ("self_s", "calls", "rows_per_call"),
    "rl.nn.infer_rows": ("self_s", "calls", "rows_per_call"),
    "rl.nn.forward": ("self_s",),
    "rl.nn.backward": ("self_s",),
    "rl.td3.update": ("self_s", "calls", "ms_per_call"),
    "rl.replay.sample": ("self_s",),
    "rl.replay.add_batch": ("self_s",),
    "core.learner.act_batch": ("self_s", "calls"),
    "core.learner.update_burst": ("self_s", "calls"),
    "core.learner.flush_transitions": ("self_s",),
    "env.episode.run_training_episode": ("self_s",),
    "fleet.run_fleet": ("self_s",),
    "scenarios.build_scenario": ("self_s",),
    "metrics.fairness.add": ("self_s",),
    "metrics.fairness.merge": ("self_s",),
    "service.daemon.read_frame": ("self_s", "calls"),
    "service.daemon.decode_body": ("self_s", "us_per_call"),
    "service.daemon.encode_frame": ("self_s", "us_per_call"),
    "service.inference.submit": ("self_s", "us_per_call"),
    "service.inference.flush": ("self_s", "calls"),
}

_UNITS = {"self_s": "s", "calls": "count", "us_per_call": "us",
          "ms_per_call": "ms", "rows_per_call": "count",
          "ns_per_flow_tick": "ns"}

#: Per-layer metrics that do not come from a span: name -> unit.
OTHER_METRICS = {
    "parallel.w2.speedup": "ratio",
    "parallel.w2.overhead_s": "s",
    "parallel.w2.identical": "count",
    "service.daemon.other_cpu_s": "s",
    "service.inference.forward_passes": "count",
    "service.inference.mean_batch_size": "count",
    "service.inference.forward_cpu_s": "s",
    "service.inference.fallback_share": "share",
    "service.inference.deadline_misses": "count",
    "service.daemon.admission_rejected": "count",
    "service.daemon.hist_p99_ms": "ms",
    "service.daemon.p99_ms_lo": "ms",
    "service.daemon.p50_ms_hi": "ms",
    "service.daemon.p99_ms_hi": "ms",
    "service.daemon.client_act_us": "us",
    "harness.gen_late_p99_ms_lo": "ms",
    "harness.gen_late_p99_ms_hi": "ms",
    "harness.gen_cpu_share_lo": "share",
    "harness.gen_cpu_share_hi": "share",
    "harness.trace_overhead_share": "share",
    "harness.traced_coverage_share": "share",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in publication order."""
    out = {}
    for span, quantities in SPAN_QUANTITIES.items():
        for quantity in quantities:
            out[f"{span}.{quantity}"] = _UNITS[quantity]
    out.update(OTHER_METRICS)
    return out


def install_inproc(tracer: Tracer, cc: str | None = None) -> None:
    """Wrap every in-process layer; ``cc`` names the scheme whose
    concrete controller class gets the ``cc.on_interval`` span."""
    for name, module, path, units in INPROC_SPANS:
        tracer.install_path(name, module, path, units)
    if cc is not None:
        from repro.cc import create

        tracer.install("cc.on_interval", type(create(cc)), "on_interval")


def install_daemon(tracer: Tracer) -> None:
    for name, module, path, units in DAEMON_SPANS:
        tracer.install_path(name, module, path, units)


def span_metrics(totals: dict[str, dict], per: float = 1.0) -> dict:
    """Per-layer metric values from span totals.

    Totals (``self_s``, ``calls``) are divided by ``per`` — the number
    of traced repetitions — so a value means "per repetition" whatever
    the run length; derived rates are ratios and need no scaling.
    """
    out = {}
    for span, quantities in SPAN_QUANTITIES.items():
        t = totals.get(span)
        if t is None:
            continue
        for quantity in quantities:
            if quantity in _DERIVED:
                num, den, scale = _DERIVED[quantity]
                value = scale * t[num] / t[den] if t[den] else 0.0
            else:
                value = t[quantity] / per
            out[f"{span}.{quantity}"] = value
    return out
