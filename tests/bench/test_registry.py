"""The ``repro bench`` contract, asserted once for every registered bench.

What ``cli._cmd_bench`` owns — artifact write, progress sink, error and
interrupt mapping, verdict -> exit code, list-flag usage errors — is
checked here against each :class:`~repro.bench.registry.Bench` entry
with ``run`` stubbed (the real ones take seconds to minutes and have
their own tests); the stub returns the bench's committed artifact, so
every ``render``/``ok`` also runs against a real payload.
"""

from __future__ import annotations

import copy
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.bench import reporting
from repro.bench.registry import load_benches
from repro.cli import build_parser, main
from repro.errors import ConfigError

BENCHES = load_benches()
SRC_DIR = Path(__file__).resolve().parents[2] / "src"


def by(predicate):
    return pytest.mark.parametrize(
        "bench", [b for b in BENCHES if predicate(b)], ids=lambda b: b.name)


every_bench = by(lambda b: True)


def sample_payload(bench) -> dict:
    """A real payload of this bench: its committed artifact."""
    if bench.name == "scaling":     # BENCH_parallel.json is not committed
        return {"bench": bench.bench_id, "workers": 2, "cpu_count": 2,
                "cells": 6, "trials": 1, "schemes": ["cubic", "bbr"],
                "kinds": ["blackout"], "engines": ["fluid"],
                "serial_s": 2.0, "parallel_s": 1.0, "speedup": 2.0,
                "deterministic": True, "cell_elapsed_serial_s": [0.3] * 6,
                "cell_elapsed_parallel_s": [0.3] * 6}
    return reporting.load_results(bench.small_id or bench.bench_id)


def argv(bench, out_dir, *extra) -> list[str]:
    has_small = any(f.names == ("--small",) for f in bench.flags)
    return ["bench", bench.name, *(["--small"] if has_small else []),
            "--out-dir", str(out_dir), *extra]


def stub(monkeypatch, bench, **fields) -> None:
    """Swap fields of the entry ``load_benches`` will hand the parser."""
    module = sys.modules[bench.run.__module__]
    monkeypatch.setattr(module, "BENCH", replace(bench, **fields))


def raising(exc):
    def run(args, progress):
        raise exc
    return run


def test_every_subcommand_is_registered_once():
    names = [b.name for b in BENCHES]
    assert names == ["robustness", "scenarios", "scaling", "train",
                     "fleet", "serve", "socket"]
    assert len({b.bench_id for b in BENCHES}) == len(BENCHES)


@every_bench
def test_run_writes_strict_artifact_and_prints_table(
        bench, tmp_path, capsys, monkeypatch):
    payload = sample_payload(bench)

    def run(args, progress):
        progress("stage one")
        return payload

    stub(monkeypatch, bench, run=run)
    assert main(argv(bench, tmp_path)) == 0
    stem = bench.small_id or bench.bench_id
    doc = reporting.loads_strict((tmp_path / f"{stem}.json").read_text())
    assert doc == payload
    # robustness, scenarios and socket payloads have never carried it.
    assert ("bench" in doc) == (bench.name in {"scaling", "train", "fleet",
                                               "serve"})
    twin = tmp_path / f"{stem}.md"
    if bench.markdown:
        assert twin.read_text() == bench.markdown(payload) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{stem}.json"] + ([twin.name] if bench.markdown else []))
    captured = capsys.readouterr()
    assert captured.out == bench.render(payload) + "\n"
    assert "stage one\n" in captured.err
    assert f"JSON artifact: {tmp_path / stem}.json" in captured.err


@every_bench
def test_repro_error_is_rc_1_and_writes_nothing(
        bench, tmp_path, capsys, monkeypatch):
    stub(monkeypatch, bench, run=raising(ConfigError("boom")))
    assert main(argv(bench, tmp_path)) == 1
    assert f"{bench.title} failed: boom" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@every_bench
def test_interrupt_is_rc_130_and_writes_nothing(
        bench, tmp_path, capsys, monkeypatch):
    stub(monkeypatch, bench, run=raising(KeyboardInterrupt()))
    out = tmp_path / "out"
    assert main(argv(bench, out)) == 130
    assert "no artifacts written" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@by(lambda b: b.ok is not None)
def test_failing_payload_verdict_is_rc_1(bench, tmp_path, monkeypatch):
    payload = copy.deepcopy(sample_payload(bench))
    assert bench.ok(payload)
    if "equivalence" in payload:
        payload["equivalence"]["passed"] = False
    else:
        payload["loss"]["payload_ok"] = False
    stub(monkeypatch, bench, run=lambda args, progress: payload)
    assert main(argv(bench, tmp_path)) == 1
    # The artifact is still written: it records the failed verdict.
    assert (tmp_path / f"{bench.bench_id}.json").exists()


@by(lambda b: b.check is not None)
def test_gate_flag_runs_check_only(bench, tmp_path, capsys, monkeypatch):
    flag = "--" + bench.gate.replace("_", "-")
    stub(monkeypatch, bench, run=raising(AssertionError("run called")),
         check=lambda args: (True, "all equal"))
    assert main(argv(bench, tmp_path, flag)) == 0
    assert capsys.readouterr().out == "all equal\n"
    stub(monkeypatch, bench, run=raising(AssertionError("run called")),
         check=lambda args: (False, "DIVERGED"))
    assert main(argv(bench, tmp_path, flag)) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "DIVERGED" in captured.err
    assert not any(tmp_path.iterdir())


LIST_FLAGS = [(b, f.names[0]) for b in BENCHES for f in b.flags if f.parse]


def test_five_benches_take_list_valued_flags():
    assert {b.name for b, _ in LIST_FLAGS} == {
        "robustness", "scenarios", "scaling", "fleet", "serve"}


@pytest.mark.parametrize(
    "bench,flag,value",
    [(b, flag, ",") for b, flag in LIST_FLAGS]
    + [(b, flag, value) for b in BENCHES for flag, value in {
        "serve": [("--levels", "x"), ("--connect", "host:notaport")],
        "fleet": [("--points", "nope"), ("--points", "1x2x3")],
    }.get(b.name, [])],
    ids=lambda v: getattr(v, "name", v))
def test_bad_list_flag_is_rc_2(bench, flag, value, tmp_path, capsys,
                               monkeypatch):
    stub(monkeypatch, bench, run=raising(AssertionError("run called")))
    assert main(argv(bench, tmp_path, flag, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{flag} must look like ") and repr(value) in err
    assert not any(tmp_path.iterdir())


def test_bench_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        build_parser().parse_args(["bench", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert all(f"\n    {b.name} " in out for b in BENCHES)


def test_non_bench_commands_import_no_bench_module():
    # `repro serve` is spawned per serving-benchmark job; the seven bench
    # modules must stay off its (and every other command's) import path.
    code = ("import sys, repro.cli; repro.cli.main(['template']); "
            "assert not [m for m in sys.modules "
            "if m.startswith('repro.bench')]")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": str(SRC_DIR)},
                   stdout=subprocess.DEVNULL)
    assert build_parser(["serve"]).parse_args(["serve"]).port == 8731
