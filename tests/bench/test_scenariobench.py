"""Scenario sweep: axis validation, golden regression, report and CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bench.scenariobench import (
    SMALL_SCHEMES,
    SWEEP_FAMILIES,
    TABLE_HEADERS,
    ScenarioCell,
    markdown_report,
    run_scenario_cell,
    run_scenario_sweep,
    table_rows,
    validate_scenario_axes,
)
from repro.bench.robustness import strip_timing_fields
from repro.cli import main
from repro.errors import ConfigError


class TestAxisValidation:
    def test_accepts_the_default_axes(self):
        validate_scenario_axes(SMALL_SCHEMES, SWEEP_FAMILIES,
                               ("fluid", "packet"))

    def test_unknown_family_rejected_up_front(self):
        with pytest.raises(ConfigError,
                           match=r"incats.*known.*incast"):
            run_scenario_sweep(schemes=("cubic",), families=("incats",),
                               engines=("fluid",), trials=1)

    def test_unknown_scheme_rejected_up_front(self):
        with pytest.raises(ConfigError, match=r"cubci.*known.*cubic"):
            run_scenario_sweep(schemes=("cubci",), families=("incast",),
                               engines=("fluid",), trials=1)

    def test_unknown_engine_rejected_up_front(self):
        with pytest.raises(ConfigError, match=r"quantum.*known.*fluid"):
            run_scenario_sweep(schemes=("cubic",), families=("incast",),
                               engines=("quantum",), trials=1)

    def test_traced_family_rejected_on_packet_engine(self):
        # fig13/fig15 drive a capacity trace, which only the fluid
        # engine models; asking for them on the packet engine must die
        # up front, not inside the first affected cell.
        with pytest.raises(ConfigError, match="capacity trace"):
            validate_scenario_axes(("cubic",), ("fig13",),
                                   ("fluid", "packet"))
        validate_scenario_axes(("cubic",), ("fig13",), ("fluid",))


class TestSweepPlumbing:
    ARGS = dict(schemes=("cubic",), families=("background-udp",),
                engines=("fluid",), trials=1, quick=True)

    def test_payload_shape_and_progress(self):
        seen = []
        payload = run_scenario_sweep(
            progress=lambda done, total, cell: seen.append((done, total)),
            **self.ARGS)
        assert seen == [(1, 1)]
        assert payload["families"] == ["background-udp"]
        (cell,) = payload["cells"]
        assert cell["scheme"] == "cubic"
        assert cell["family"] == "background-udp"
        assert cell["engine"] == "fluid"
        assert 0.0 <= cell["jfi"] <= 1.0
        assert 0.0 <= cell["utilization"] <= 1.05
        json.dumps(payload)  # artifact must be serialisable as-is

    def test_workers2_payload_identical_to_serial(self):
        serial = run_scenario_sweep(workers=0, **self.ARGS)
        pooled = run_scenario_sweep(workers=2, **self.ARGS)
        assert strip_timing_fields(pooled) == strip_timing_fields(serial)

    def test_cell_excludes_cross_traffic_from_jfi(self):
        # background-udp runs two identical foreground flows plus the
        # blaster at 30% of capacity; with the blaster excluded the two
        # foreground flows split the residual evenly -> JFI ~ 1.  Were
        # the blaster counted, its unequal share would drag JFI down.
        cell = run_scenario_cell("cubic", "background-udp", "fluid",
                                 trials=1, quick=True)
        assert cell.jfi > 0.98
        assert cell.utilization > 0.9


class TestGoldenRegression:
    """Pin JFI x utilization of one seed of each new family.

    (seed=0, quick, fluid engine, 1 trial) for cubic and astraea: any
    change to the builders, the fluid engine, the fairness metrics or
    the foreground-flow selection shows up here first.  Update the
    constants deliberately when semantics change on purpose.
    """

    GOLDEN = {
        ("cubic", "incast"): (0.9106505509007985, 0.7823136157292783),
        ("cubic", "asymmetric-rtt"): (0.3717807505386271,
                                      0.9999626161542975),
        ("cubic", "background-udp"): (1.0, 0.9999999999999997),
        ("astraea", "incast"): (0.7371745516875159, 0.7614848319389016),
        ("astraea", "asymmetric-rtt"): (0.7674916544639092,
                                        0.9995332293827779),
        ("astraea", "background-udp"): (1.0, 0.9998797899252411),
    }

    @pytest.fixture(scope="class")
    def cells(self):
        return {key: run_scenario_cell(key[0], key[1], "fluid", trials=1,
                                       quick=True)
                for key in self.GOLDEN}

    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_pinned_cell(self, cells, key):
        jfi, utilization = self.GOLDEN[key]
        assert cells[key].jfi == pytest.approx(jfi, rel=1e-6, abs=1e-9)
        assert cells[key].utilization == pytest.approx(utilization,
                                                       rel=1e-6, abs=1e-9)

    def test_astraea_fairer_than_cubic_under_rtt_asymmetry(self, cells):
        # The paper's headline claim, reproduced on a family its own
        # evaluation does not contain.
        assert cells[("astraea", "asymmetric-rtt")].jfi > \
            cells[("cubic", "asymmetric-rtt")].jfi + 0.2


class TestReportRendering:
    def payload(self):
        cells = [
            ScenarioCell(scheme="cubic", family="incast", engine="fluid",
                         trials=2, jfi=0.91, utilization=0.78,
                         mean_rtt_ms=11.5, mean_loss_rate=0.003),
            ScenarioCell(scheme="astraea", family="background-udp",
                         engine="packet", trials=2, jfi=0.99,
                         utilization=1.0, mean_rtt_ms=49.0,
                         mean_loss_rate=0.0),
        ]
        return {"schemes": ["cubic", "astraea"],
                "families": ["incast", "background-udp"],
                "engines": ["fluid", "packet"], "trials": 2, "quick": True,
                "cells": [c.as_dict() for c in cells]}

    def test_rows_sorted_family_major(self):
        rows = table_rows(self.payload())
        assert [r[1] for r in rows] == ["background-udp", "incast"]
        assert len(rows[0]) == len(TABLE_HEADERS)

    def test_markdown_report_is_a_table(self):
        text = markdown_report(self.payload())
        assert text.startswith("# Scenario report")
        assert "| scheme | family | engine |" in text
        assert "| --- |" in text
        assert "incast" in text and "background-udp" in text
        assert "foreground" in text  # JFI scope surfaced in prose


class TestCli:
    def test_bench_scenarios_single_cell(self, tmp_path, capsys):
        rc = main(["bench", "scenarios", "--schemes", "cubic",
                   "--families", "background-udp", "--engines", "fluid",
                   "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        payload = json.loads(
            (tmp_path / "BENCH_scenarios.json").read_text())
        assert payload["schemes"] == ["cubic"]
        assert payload["families"] == ["background-udp"]
        (cell,) = payload["cells"]
        assert 0.0 <= cell["jfi"] <= 1.0
        assert "# Scenario report" in capsys.readouterr().out

    def test_bench_scenarios_rejects_unknown_family(self, tmp_path, capsys):
        rc = main(["bench", "scenarios", "--schemes", "cubic",
                   "--families", "wormhole", "--engines", "fluid",
                   "--trials", "1", "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown scenario families" in err and "wormhole" in err
        assert not any(tmp_path.iterdir())  # nothing ran, nothing written

    @pytest.mark.slow
    def test_bench_scenarios_small_covers_acceptance_matrix(
            self, tmp_path, capsys):
        # The acceptance criterion of the CI smoke step: >= 3 schemes x
        # 3 new families on both engines, strict-JSON artifact, every
        # cell with JFI in [0, 1] and utilization in [0, 1.05].
        rc = main(["bench", "scenarios", "--small",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        from repro.bench.reporting import loads_strict

        payload = loads_strict(
            (tmp_path / "BENCH_scenarios.json").read_text())
        assert len(payload["schemes"]) >= 3
        assert set(payload["families"]) == set(SWEEP_FAMILIES)
        assert set(payload["engines"]) == {"fluid", "packet"}
        assert len(payload["cells"]) == (len(payload["schemes"])
                                         * len(payload["families"])
                                         * len(payload["engines"]))
        md = (tmp_path / "BENCH_scenarios.md").read_text()
        for cell in payload["cells"]:
            assert 0.0 <= cell["jfi"] <= 1.0, cell
            assert 0.0 <= cell["utilization"] <= 1.05, cell
            assert np.isfinite(cell["mean_rtt_ms"]), cell
            assert f"| {cell['scheme']} |" in md
