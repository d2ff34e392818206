"""Wrappers change nothing but the clock: results are bit-identical
with them installed, and gone without a trace after uninstall."""

import json

import pytest

import layers
from compare import verdict
from envelope import ROOT, HarnessError, apply_thread_pins
from spans import Tracer


def _fleet_fingerprint(cc: str) -> dict:
    from repro.fleet import FleetSpec, runner

    spec = FleetSpec(cc=cc, n_shards=2, flows_per_shard=5, quick=True,
                     epochs=2, seed=3)
    return runner.run_fleet(spec, workers=1).fingerprint()


def _patched_attributes() -> list:
    from importlib import import_module

    out = []
    for _, module, path, _ in layers.INPROC_SPANS + layers.DAEMON_SPANS:
        owner = import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        out.append(owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
    return out


@pytest.mark.parametrize("cc", ["cubic", "astraea"])
def test_fleet_results_identical_with_and_without_wrappers(cc):
    plain = _fleet_fingerprint(cc)
    originals = _patched_attributes()
    tracer = Tracer()
    layers.install_inproc(tracer, cc)
    try:
        traced = _fleet_fingerprint(cc)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(a is b for a, b in zip(_patched_attributes(), originals))
    assert _fleet_fingerprint(cc) == plain
    spans = tracer.snapshot()
    assert spans["fleet.run_fleet"]["calls"] == 1
    assert spans["cc.on_interval"]["calls"] \
        == spans["netsim.stats.collect"]["calls"] > 0
    assert (spans["rl.nn.infer"]["calls"] > 0) == (cc == "astraea")


def test_training_episode_identical_with_and_without_wrappers():
    import inproc

    def episode_facts():
        workload = inproc.TrainWorkload(seed=5, toy=True)
        workload.setup()
        rep = workload.repetition()
        return rep.facts, [p.tobytes() for p in
                           workload.learner.td3.actor.parameters()]

    plain = episode_facts()
    tracer = Tracer()
    layers.install_inproc(tracer)
    try:
        traced = episode_facts()
    finally:
        tracer.uninstall()
    assert traced == plain
    spans = tracer.snapshot()
    assert spans["rl.td3.update"]["calls"] > 0
    assert spans["rl.nn.backward"]["calls"] > 0


def test_daemon_wrappers_install_and_restore():
    originals = _patched_attributes()
    tracer = Tracer()
    layers.install_daemon(tracer)
    from repro.service import daemon

    frame = daemon.encode_frame({"op": "ping", "id": 1})
    assert daemon.decode_body(frame[4:]) == {"op": "ping", "id": 1}
    tracer.uninstall()
    assert all(a is b for a, b in zip(_patched_attributes(), originals))
    spans = tracer.snapshot()
    assert spans["service.daemon.encode_frame"]["calls"] == 1
    assert spans["service.daemon.decode_body"]["calls"] == 1


def test_benchmark_json_declares_exactly_the_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == layers.per_layer_units()
    assert spec["paths"] == ["benchmarks/perf"]
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}


def test_pins_refuse_to_follow_numpy():
    import numpy  # noqa: F401

    with pytest.raises(HarnessError):
        apply_thread_pins()


def test_compare_verdicts():
    a = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    assert verdict(a, {"value": 89.0, "q1": 88.0, "q3": 90.0},
                   "higher", 0.08)[1] == "REGRESSION"
    assert verdict(a, {"value": 112.0, "q1": 111.0, "q3": 113.0},
                   "higher", 0.08)[1] == "better"
    assert verdict(a, {"value": 101.0, "q1": 100.0, "q3": 102.0},
                   "higher", 0.08)[1] == "same"
    # Overlapping quartile ranges wider than the bound cannot resolve
    # a change of the bound's size.
    wide = {"value": 100.0, "q1": 90.0, "q3": 110.0}
    assert verdict(wide, {"value": 103.0, "q1": 93.0, "q3": 113.0},
                   "lower", 0.08)[1] == "unresolved"
    assert verdict(a, {"value": 110.0, "q1": 109.0, "q3": 111.0},
                   "lower", 0.08)[1] == "REGRESSION"
