"""Sharded fleet runner: spec validation, determinism, quarantine."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError, ShardFailureWarning, SimulationError
from repro.fleet import FleetSpec, check_equivalence, run_fleet
from repro.fleet import runner as fleet_runner
from repro.scenarios import build_scenario, fleet_shard_seed


def small_spec(**changes) -> FleetSpec:
    base = dict(cc="cubic", n_shards=3, flows_per_shard=4, seed=11,
                quick=True, epochs=2)
    base.update(changes)
    return FleetSpec(**base)


class TestFleetSpec:
    def test_defaults_valid(self):
        spec = FleetSpec()
        assert spec.total_flows == spec.n_shards * spec.flows_per_shard

    @pytest.mark.parametrize("changes", [
        {"n_shards": 0},
        {"n_shards": -1},
        {"n_shards": 5000},
        {"n_shards": 2.5},
        {"n_shards": True},
        {"flows_per_shard": 0},
        {"flows_per_shard": 20_000},
        {"seed": -1},
        {"seed": "x"},
        {"epochs": 0},
        {"cc": ""},
        {"cc": 7},
    ])
    def test_invalid_specs_are_typed(self, changes):
        with pytest.raises(ConfigError):
            small_spec(**changes)

    def test_total_flow_cap(self):
        with pytest.raises(ConfigError, match="cap"):
            FleetSpec(n_shards=4000, flows_per_shard=1000)

    def test_shard_seed_is_stable_and_distinct(self):
        spec = small_spec()
        seeds = [spec.shard_seed(i) for i in range(spec.n_shards)]
        assert seeds == [fleet_shard_seed(spec.seed, i)
                         for i in range(spec.n_shards)]
        assert len(set(seeds)) == spec.n_shards
        with pytest.raises(ConfigError):
            spec.shard_seed(spec.n_shards)
        with pytest.raises(ConfigError):
            spec.shard_seed(-1)

    def test_dict_round_trip(self):
        spec = small_spec()
        assert FleetSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            FleetSpec.from_dict({"cc": "cubic", "bogus": 1})

    def test_with_revalidates(self):
        spec = small_spec()
        assert spec.with_(n_shards=5).n_shards == 5
        with pytest.raises(ConfigError):
            spec.with_(n_shards=0)


class TestFleetScenarioFamily:
    def test_shards_differ_but_are_deterministic(self):
        a0 = build_scenario("fleet", cc="cubic", seed=3, shard_index=0)
        a0b = build_scenario("fleet", cc="cubic", seed=3, shard_index=0)
        a1 = build_scenario("fleet", cc="cubic", seed=3, shard_index=1)
        assert a0 == a0b
        assert a0.link != a1.link or a0.flows != a1.flows

    def test_quick_shrinks_time_only(self):
        quick = build_scenario("fleet", cc="cubic", seed=3, quick=True,
                               shard_index=2)
        full = build_scenario("fleet", cc="cubic", seed=3, quick=False,
                              shard_index=2)
        assert quick.duration_s < full.duration_s
        assert quick.link == full.link

    def test_invalid_params_are_typed(self):
        with pytest.raises(ConfigError):
            build_scenario("fleet", cc="cubic", n_flows=0)
        with pytest.raises(ConfigError):
            build_scenario("fleet", cc="cubic", shard_index=-1)


class TestRunFleet:
    @pytest.fixture(scope="class")
    def serial_result(self):
        return run_fleet(small_spec(), workers=1)

    def test_aggregates_are_sane(self, serial_result):
        spec = serial_result.spec
        assert serial_result.total_flows == spec.total_flows
        assert 0.0 < serial_result.jain <= 1.0
        assert 0.0 < serial_result.utilization <= 1.05
        assert serial_result.total_ticks > 0
        assert not serial_result.failures

    def test_shard_records_are_sufficient_stats(self, serial_result):
        for record in serial_result.shards:
            assert record["ok"]
            assert set(record["stats"]) == {
                "count", "total", "sum_sq", "capacity", "batches"}
            assert len(record["epoch_goodput_mbps"]) == \
                serial_result.spec.epochs
            assert record["shard_seed"] == \
                serial_result.spec.shard_seed(record["index"])

    def test_serial_rerun_is_bit_identical(self, serial_result):
        again = run_fleet(small_spec(), workers=1)
        assert again.fingerprint() == serial_result.fingerprint()

    def test_pool_matches_serial_bit_identically(self, serial_result):
        pooled = run_fleet(small_spec(), workers=2)
        assert pooled.fingerprint() == serial_result.fingerprint()
        assert pooled.workers == 2

    def test_check_equivalence_verdict(self):
        spec = small_spec(n_shards=2, flows_per_shard=3)
        verdict = check_equivalence(spec)
        assert verdict["passed"]
        assert verdict["verdict"] == "identical"
        assert verdict["workers_compared"] == [1, 2]
        assert verdict["specs"] == [spec.as_dict()]

    def test_default_gate_pins_a_classical_and_a_learned_fleet(self):
        # The astraea leg is what holds the driver's stacked decision
        # pass to the any-worker-count bit-identity contract.
        verdict = check_equivalence()
        assert [s["cc"] for s in verdict["specs"]] == ["cubic", "astraea"]
        assert verdict["passed"]
        assert "diverging_fields" not in verdict


class TestQuarantine:
    def _failing_inner(self, bad_indices):
        real = fleet_runner._run_shard_inner

        def inner(spec, index, started):
            if index in bad_indices:
                raise SimulationError(f"injected failure in shard {index}")
            return real(spec, index, started)

        return inner

    def test_failed_shard_is_quarantined_and_named(self, monkeypatch):
        monkeypatch.setattr(fleet_runner, "_run_shard_inner",
                            self._failing_inner({1}))
        spec = small_spec()
        with pytest.warns(ShardFailureWarning) as caught:
            result = run_fleet(spec, workers=1)
        message = str(caught[0].message)
        assert "shard 1" in message
        assert str(spec.seed) in message
        assert str(spec.shard_seed(1)) in message
        assert len(result.failures) == 1
        assert result.failures[0]["index"] == 1
        assert result.failures[0]["error"] == "SimulationError"
        # Healthy shards still aggregate.
        assert result.total_flows == \
            (spec.n_shards - 1) * spec.flows_per_shard
        assert 0.0 < result.jain <= 1.0

    def test_strict_mode_raises(self, monkeypatch):
        monkeypatch.setattr(fleet_runner, "_run_shard_inner",
                            self._failing_inner({1}))
        with pytest.raises(SimulationError, match="quarantined"):
            run_fleet(small_spec(), workers=1, strict=True)

    def test_all_shards_failing_raises(self, monkeypatch):
        monkeypatch.setattr(fleet_runner, "_run_shard_inner",
                            self._failing_inner({0, 1, 2}))
        with pytest.warns(ShardFailureWarning), \
                pytest.raises(SimulationError, match="every fleet shard"):
            run_fleet(small_spec(), workers=1)


class TestProgress:
    def test_progress_fires_per_shard(self):
        seen = []
        run_fleet(small_spec(), workers=1,
                  progress=lambda done, total, index, rec:
                  seen.append((done, total, index)))
        assert [d for d, _t, _i in seen] == [1, 2, 3]
        assert all(t == 3 for _d, t, _i in seen)
        assert sorted(i for _d, _t, i in seen) == [0, 1, 2]
