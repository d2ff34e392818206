"""Robustness sweep: aggregation, golden regression, report and CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.bench.robustness as robustness_mod
from repro.bench.robustness import (
    ALL_SCHEMES,
    FAULT_KINDS,
    TABLE_HEADERS,
    RecoveryCell,
    aggregate_reports,
    markdown_report,
    run_cell,
    run_robustness_sweep,
    strip_timing_fields,
    table_rows,
    validate_sweep_axes,
)
from repro.cc import available
from repro.cli import main
from repro.env import run_engine_scenario
from repro.errors import ConfigError
from repro.metrics.recovery import NEVER_RECOVERED, RecoveryReport, recovery_report
from repro.scenarios import robustness_scenario


def make_report(recovery=1.0, jain=2.0, rtt=5.0, lost=10.0):
    return RecoveryReport(
        fault_start_s=12.0, fault_end_s=12.9, baseline_mbps=99.0,
        threshold=0.9, recovery_time_s=recovery, jain_reconvergence_s=jain,
        peak_rtt_overshoot_ms=rtt, goodput_lost_mbit=lost)


class TestAggregation:
    def test_means_over_finite_trials_only(self):
        reports = [make_report(recovery=2.0),
                   make_report(recovery=NEVER_RECOVERED)]
        cell = aggregate_reports("cubic", "blackout", "fluid", reports)
        assert cell.trials == 2
        assert cell.recovered == 1
        # The sentinel is excluded, not averaged into infinity.
        assert cell.recovery_time_s == pytest.approx(2.0)

    def test_all_sentinel_yields_nan_mean(self):
        reports = [make_report(recovery=NEVER_RECOVERED)] * 3
        cell = aggregate_reports("reno", "blackout", "packet", reports)
        assert cell.recovered == 0
        assert np.isnan(cell.recovery_time_s)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate_reports("cubic", "blackout", "fluid", [])

    def test_round_trips_through_json(self):
        cell = aggregate_reports("bbr", "flap", "fluid", [make_report()])
        doc = json.loads(json.dumps(cell.as_dict()))
        assert doc["scheme"] == "bbr"
        assert doc["recovered"] == 1


class TestSweepPlumbing:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigError):
            run_robustness_sweep(schemes=("cubic",), kinds=("meteor",),
                                 engines=("fluid",), trials=1)

    def test_unknown_engine_rejected(self):
        sc = robustness_scenario("cubic", kind="blackout", quick=True)
        with pytest.raises(ConfigError):
            run_engine_scenario(sc, "quantum")

    def test_unknown_scheme_rejected_before_any_cell_runs(self):
        # A typo must die up front listing the known values, not minutes
        # into the sweep inside cc.create of the first affected cell.
        with pytest.raises(ConfigError, match=r"cubci.*known.*cubic"):
            run_robustness_sweep(schemes=("cubic", "cubci"),
                                 kinds=("blackout",), engines=("fluid",),
                                 trials=1)

    def test_unknown_engine_rejected_up_front(self):
        with pytest.raises(ConfigError, match=r"quantum.*known.*fluid"):
            run_robustness_sweep(schemes=("cubic",), kinds=("blackout",),
                                 engines=("fluid", "quantum"), trials=1)

    def test_validate_sweep_axes_accepts_known_values(self):
        validate_sweep_axes(ALL_SCHEMES, FAULT_KINDS, ("fluid", "packet"))
        validate_sweep_axes(ALL_SCHEMES, FAULT_KINDS, ("fluid",),
                            families=("incast", "robustness"))

    def test_validate_sweep_axes_rejects_unknown_family(self):
        with pytest.raises(ConfigError,
                           match=r"unknown scenario families.*incats"):
            validate_sweep_axes(("cubic",), ("blackout",), ("fluid",),
                                families=("incast", "incats"))

    def test_run_cell_goes_through_the_registry(self, monkeypatch):
        # The robustness sweep must build its scenarios through the
        # scenario registry (one construction path for every sweep),
        # not a private constructor.
        import repro.scenarios.registry as registry_mod

        seen = []
        original = registry_mod.ScenarioFamily.build

        def spying(self, *args, **kwargs):
            seen.append(self.name)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(registry_mod.ScenarioFamily, "build", spying)
        run_cell("cubic", "blackout", "fluid", trials=1, quick=True)
        assert seen == ["robustness"]

    def test_all_schemes_matches_registry(self):
        # The sweep's scheme list must not silently drift from the
        # registry: the report claims to cover every registered scheme
        # (minus the helpers — the reference-kernel alias and the
        # cross-traffic source, which are not comparable CC schemes).
        helpers = {"astraea-ref", "constant-rate"}
        assert sorted(ALL_SCHEMES) == sorted(set(available()) - helpers)

    def test_run_cell_policy_substitutes_matching_flows_only(self,
                                                             monkeypatch):
        # --policy diffs a candidate bundle against the shipped one on
        # the identical fault grid: every flow of the target scheme gets
        # the bundle path, cross-traffic flows stay untouched.
        from types import SimpleNamespace

        seen = []

        def capture(scenario, engine):
            seen.append(scenario)
            return "stub-result"

        stub = SimpleNamespace(recovered=True, recovery_time_s=1.0,
                               jain_reconvergence_s=1.0,
                               peak_rtt_overshoot_ms=0.0,
                               goodput_lost_mbit=0.0, baseline_mbps=10.0)
        monkeypatch.setattr(robustness_mod, "run_engine_scenario", capture)
        monkeypatch.setattr(robustness_mod, "recovery_report",
                            lambda result, faults, threshold: stub)
        cell = robustness_mod.run_cell("astraea", "blackout", "fluid",
                                       trials=1,
                                       policy="models/candidate.npz")
        assert cell.trials == 1 and cell.recovered == 1
        targets = [f for f in seen[0].flows if f.cc == "astraea"]
        others = [f for f in seen[0].flows if f.cc != "astraea"]
        assert targets
        assert all(f.cc_kwargs.get("policy") == "models/candidate.npz"
                   for f in targets)
        assert all("policy" not in f.cc_kwargs for f in others)

    def test_sweep_payload_shape_and_progress(self):
        seen = []
        payload = run_robustness_sweep(
            schemes=("cubic",), kinds=("blackout",), engines=("fluid",),
            trials=1, quick=True,
            progress=lambda done, total, cell: seen.append((done, total)))
        assert seen == [(1, 1)]
        assert payload["schemes"] == ["cubic"]
        (cell,) = payload["cells"]
        assert cell["scheme"] == "cubic"
        assert cell["trials"] == 1
        json.dumps(payload)  # artifact must be serialisable as-is

    def test_sweep_records_wall_clock_instrumentation(self):
        payload = run_robustness_sweep(
            schemes=("cubic",), kinds=("blackout",), engines=("fluid",),
            trials=1, quick=True)
        assert payload["workers"] == 1
        assert payload["elapsed_s"] > 0
        assert all(c["elapsed_s"] > 0 for c in payload["cells"])

    def test_strip_timing_fields_removes_only_timing(self):
        payload = run_robustness_sweep(
            schemes=("cubic",), kinds=("blackout",), engines=("fluid",),
            trials=1, quick=True)
        stripped = strip_timing_fields(payload)
        assert "elapsed_s" not in stripped
        assert "workers" not in stripped
        assert all("elapsed_s" not in c for c in stripped["cells"])
        assert stripped["cells"][0]["recovery_time_s"] == \
            payload["cells"][0]["recovery_time_s"]


class TestParallelSweep:
    """The parallel-layer determinism contract at the sweep level."""

    ARGS = dict(schemes=("cubic", "bbr"), kinds=("blackout", "flap"),
                engines=("fluid",), trials=1, quick=True)

    def test_workers2_payload_identical_to_serial(self):
        serial = run_robustness_sweep(workers=0, **self.ARGS)
        pooled = run_robustness_sweep(workers=2, **self.ARGS)
        assert strip_timing_fields(pooled) == strip_timing_fields(serial)

    def test_parallel_progress_monotone_done_count(self):
        seen = []
        run_robustness_sweep(
            workers=2, progress=lambda done, total, cell:
            seen.append((done, total, cell.scheme)), **self.ARGS)
        assert [d for d, _, _ in seen] == [1, 2, 3, 4]
        assert all(t == 4 for _, t, _ in seen)

    def test_worker_exception_names_the_failing_cell(self, monkeypatch):
        from repro.errors import TaskError

        def boom(scheme, kind, engine, **kwargs):
            raise RuntimeError("cell exploded")

        # Serial path so the monkeypatch reaches the worker function.
        monkeypatch.setattr(robustness_mod, "run_cell", boom)
        with pytest.raises(TaskError) as info:
            run_robustness_sweep(schemes=("cubic",), kinds=("blackout",),
                                 engines=("fluid",), trials=1, workers=0)
        assert info.value.context == "cell fluid/cubic/blackout"
        assert info.value.cause_type == "RuntimeError"


class TestGoldenRegression:
    """Pin the recovery metrics of one canonical run.

    (scheme=cubic, fault=blackout, seed=0, quick, fluid engine): any
    change to the fault layer, the fluid engine, the scenario family or
    the metric definitions shows up here first.  Update the constants
    deliberately when semantics change on purpose.
    """

    GOLDEN = {
        "fault_start_s": 12.0,
        "fault_end_s": 12.9,
        "baseline_mbps": 99.8222222222222,
        "recovery_time_s": 6.35,
        "jain_reconvergence_s": 0.05000000000000071,
        "peak_rtt_overshoot_ms": 14.221163411822397,
        "goodput_lost_mbit": 430.47132640963287,
    }

    @pytest.fixture(scope="class")
    def report(self):
        sc = robustness_scenario("cubic", kind="blackout", quick=True,
                                 seed=0)
        return recovery_report(run_engine_scenario(sc, "fluid"), sc.faults)

    @pytest.mark.parametrize("field", sorted(GOLDEN))
    def test_pinned_value(self, report, field):
        assert getattr(report, field) == \
            pytest.approx(self.GOLDEN[field], rel=1e-6, abs=1e-9)

    def test_recovered(self, report):
        assert report.recovered


class TestReportRendering:
    def payload(self):
        cells = [
            RecoveryCell(scheme="cubic", kind="blackout", engine="fluid",
                         trials=2, recovered=2, recovery_time_s=6.35,
                         jain_reconvergence_s=0.05,
                         peak_rtt_overshoot_ms=14.2,
                         goodput_lost_mbit=430.5, baseline_mbps=99.8),
            RecoveryCell(scheme="bbr", kind="flap", engine="packet",
                         trials=2, recovered=1,
                         recovery_time_s=float("nan"),
                         jain_reconvergence_s=float("nan"),
                         peak_rtt_overshoot_ms=3.0,
                         goodput_lost_mbit=120.0, baseline_mbps=95.0),
        ]
        return {"schemes": ["cubic", "bbr"], "kinds": ["blackout", "flap"],
                "engines": ["fluid", "packet"], "trials": 2, "quick": True,
                "threshold": 0.9, "cells": [c.as_dict() for c in cells]}

    def test_rows_sorted_and_fractional_recovered(self):
        rows = table_rows(self.payload())
        assert [r[0] for r in rows] == ["bbr", "cubic"]
        assert rows[0][3] == "1/2"
        assert len(rows[0]) == len(TABLE_HEADERS)

    def test_markdown_report_is_a_table(self):
        text = markdown_report(self.payload())
        assert text.startswith("# Robustness report")
        assert "| scheme | fault | engine |" in text
        assert "| --- |" in text
        assert "cubic" in text and "blackout" in text
        assert "90%" in text  # threshold surfaced in prose


class TestCli:
    def test_bench_robustness_small_writes_artifacts(self, tmp_path, capsys):
        rc = main(["bench", "robustness", "--small",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "robustness_small.json").read_text())
        md = (tmp_path / "robustness_small.md").read_text()
        # >= 2 schemes x 2 fault kinds with finite recovery entries.
        assert len(payload["schemes"]) >= 2
        assert len(payload["kinds"]) >= 2
        assert len(payload["cells"]) == \
            len(payload["schemes"]) * len(payload["kinds"])
        assert all(np.isfinite(c["recovery_time_s"])
                   for c in payload["cells"])
        for cell in payload["cells"]:
            assert f"| {cell['scheme']} |" in md
        assert "# Robustness report" in capsys.readouterr().out

    def test_bench_robustness_scheme_subset(self, tmp_path):
        rc = main(["bench", "robustness", "--schemes", "cubic",
                   "--kinds", "blackout", "--engines", "fluid",
                   "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "robustness.json").read_text())
        assert payload["schemes"] == ["cubic"]
        assert payload["kinds"] == ["blackout"]
        assert payload["trials"] == 1

    def test_bench_robustness_rejects_unknown_kind(self, tmp_path, capsys):
        rc = main(["bench", "robustness", "--schemes", "cubic",
                   "--kinds", "meteor", "--engines", "fluid",
                   "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "unknown fault kind" in capsys.readouterr().err

    def test_bench_robustness_rejects_unknown_scheme(self, tmp_path, capsys):
        rc = main(["bench", "robustness", "--schemes", "cubci",
                   "--kinds", "blackout", "--engines", "fluid",
                   "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown schemes" in err and "cubci" in err
        assert not any(tmp_path.iterdir())  # nothing ran, nothing written

    def test_bench_robustness_rejects_unknown_engine(self, tmp_path, capsys):
        rc = main(["bench", "robustness", "--schemes", "cubic",
                   "--kinds", "blackout", "--engines", "quantum",
                   "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "unknown engines" in capsys.readouterr().err

    def test_bench_robustness_artifact_records_workers(self, tmp_path):
        rc = main(["bench", "robustness", "--schemes", "cubic",
                   "--kinds", "blackout", "--engines", "fluid",
                   "--trials", "1", "--workers", "0",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        payload = json.loads((tmp_path / "robustness.json").read_text())
        assert payload["workers"] == 0
        assert payload["elapsed_s"] > 0


class TestPacketEngineCell:
    def test_cubic_blackout_on_packet_engine(self):
        cell = run_cell("cubic", "blackout", "packet", trials=1, quick=True)
        assert cell.engine == "packet"
        assert cell.recovered == 1
        assert np.isfinite(cell.recovery_time_s)
        assert cell.baseline_mbps > 50.0  # two flows share a 100 Mbps link

    def test_kind_list_is_the_five_primitives(self):
        assert set(FAULT_KINDS) == \
            {"blackout", "flap", "loss-burst", "delay-spike", "reorder"}
