"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro import persist
from repro.cli import build_parser, main


class TestTemplate:
    def test_emits_valid_scenario(self, capsys):
        assert main(["template"]) == 0
        out = capsys.readouterr().out
        scenario = persist.scenario_from_dict(json.loads(out))
        assert scenario.link.bandwidth_mbps == 100.0
        assert len(scenario.flows) == 3


class TestInfo:
    def test_lists_everything(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for needle in ("astraea", "cubic", "lte", "codel",
                       "astraea_pretrained"):
            assert needle in out


class TestRun:
    def test_runs_scenario_file(self, tmp_path, capsys):
        scenario_path = tmp_path / "s.json"
        main(["template"])
        template = capsys.readouterr().out
        data = json.loads(template)
        data["duration_s"] = 6.0
        for f in data["flows"]:
            f["cc"] = "cubic"
            f["duration_s"] = 5.0
            f["start_s"] = 0.0
        scenario_path.write_text(json.dumps(data))
        out_path = tmp_path / "result.json"
        assert main(["run", str(scenario_path), "--out",
                     str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "mean_jain" in out
        assert out_path.exists()
        loaded = persist.load_result(out_path)
        assert len(loaded.flows) == 3


class TestCompare:
    def test_two_scheme_table(self, capsys):
        assert main(["compare", "--schemes", "cubic,vegas",
                     "--duration", "8", "--flow-duration", "6",
                     "--interval", "1", "--flows", "2"]) == 0
        out = capsys.readouterr().out
        assert "cubic" in out and "vegas" in out
        assert "Jain" in out


class TestModels:
    @pytest.fixture
    def stamped_dir(self, tmp_path):
        """A models dir with one valid, manifest-listed bundle."""
        from repro.core.artifacts import manifest_entry, update_manifest
        from repro.core.policy import PolicyBundle, new_actor

        PolicyBundle(actor=new_actor(seed=1)).save(
            tmp_path / "astraea_pretrained.npz")
        update_manifest(
            {"astraea_pretrained.npz":
             manifest_entry(tmp_path / "astraea_pretrained.npz")}, tmp_path)
        return tmp_path

    def test_verify_clean_exits_zero(self, stamped_dir, capsys):
        assert main(["models", "verify", "--models-dir",
                     str(stamped_dir)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_verify_corrupt_exits_nonzero_naming_file(self, stamped_dir,
                                                      capsys):
        path = stamped_dir / "astraea_pretrained.npz"
        path.write_bytes(path.read_bytes()[:1000])
        assert main(["models", "verify", "--models-dir",
                     str(stamped_dir)]) == 1
        captured = capsys.readouterr()
        assert "astraea_pretrained.npz" in captured.err
        assert "regenerate" in captured.err

    def test_info_prints_digests(self, stamped_dir, capsys):
        assert main(["models", "info", "--models-dir",
                     str(stamped_dir)]) == 0
        out = capsys.readouterr().out
        assert "sha256" in out and "astraea_pretrained.npz" in out

    def test_regenerate_restores_manifest_clean_state(self, tmp_path,
                                                      capsys):
        # Start from a *corrupt* artifact: regenerate must repair it and
        # leave verify green.
        (tmp_path / "astraea_alt_homogeneous.npz").write_bytes(b"garbage")
        assert main(["models", "regenerate", "astraea_alt_homogeneous.npz",
                     "--models-dir", str(tmp_path), "--epochs", "3"]) == 0
        assert main(["models", "verify", "--models-dir",
                     str(tmp_path)]) == 0
        from repro.core.policy import PolicyBundle

        bundle = PolicyBundle.load(tmp_path / "astraea_alt_homogeneous.npz")
        assert bundle.scheme == "astraea"

    def test_regenerate_unknown_name_exits_two(self, tmp_path, capsys):
        assert main(["models", "regenerate", "nope.npz",
                     "--models-dir", str(tmp_path)]) == 2


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8731
        assert args.scheme == "astraea"
        assert args.window == pytest.approx(0.005)
        assert args.deadline == pytest.approx(0.050)
        assert args.fallback == "analytic"
        assert args.shards == 1

    def test_serve_rejects_unknown_fallback(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--fallback", "magic"])


class TestSocketParser:
    def test_serve_max_restarts_default_and_override(self):
        args = build_parser().parse_args(["serve"])
        assert args.max_restarts == 5
        args = build_parser().parse_args(["serve", "--max-restarts", "0"])
        assert args.max_restarts == 0

    def test_bench_socket_defaults(self):
        args = build_parser().parse_args(["bench", "socket"])
        assert args.seed == 1
        assert not args.small
        assert not args.smoke
        assert args.func is not None

    def test_bench_socket_smoke_and_small(self):
        args = build_parser().parse_args(
            ["bench", "socket", "--smoke", "--seed", "3"])
        assert args.smoke and args.seed == 3
        args = build_parser().parse_args(
            ["bench", "socket", "--small", "--out-dir", "/tmp/x"])
        assert args.small and args.out_dir == "/tmp/x"

    def test_bench_robustness_accepts_socket_engine(self):
        args = build_parser().parse_args(
            ["bench", "robustness", "--small", "--engines", "socket"])
        assert args.engines == "socket"


class TestTrainBenchParser:
    def test_bench_train_defaults(self):
        args = build_parser().parse_args(["bench", "train"])
        assert args.flows == 8
        assert args.episodes == 3
        assert args.workers == 2
        assert not args.small
        assert not args.check_only
        assert args.func is not None

    def test_bench_train_check_only_and_small(self):
        args = build_parser().parse_args(["bench", "train", "--check-only"])
        assert args.check_only
        args = build_parser().parse_args(
            ["bench", "train", "--small", "--out-dir", "/tmp/x"])
        assert args.small and args.out_dir == "/tmp/x"

    def test_bench_robustness_accepts_policy_override(self):
        args = build_parser().parse_args(
            ["bench", "robustness", "--schemes", "astraea",
             "--policy", "models/candidate.npz"])
        assert args.policy == "models/candidate.npz"
