"""Policy bundles: serialisation, default loading, caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.policy import (
    MODELS_DIR,
    PolicyBundle,
    clear_policy_cache,
    default_policy_path,
    load_default_policy,
    new_actor,
)
from repro.core.state import LOCAL_FEATURES
from repro.errors import ModelError


class TestBundleRoundtrip:
    def test_save_load(self, tmp_path):
        actor = new_actor(seed=3)
        bundle = PolicyBundle(actor=actor, metadata={"note": "test"})
        path = bundle.save(tmp_path / "b.npz")
        loaded = PolicyBundle.load(path)
        x = np.random.default_rng(0).normal(size=(4, actor.in_dim))
        assert np.allclose(actor.forward(x), loaded.actor.forward(x))
        assert loaded.history == bundle.history
        assert loaded.alpha == bundle.alpha
        assert loaded.metadata == {"note": "test"}

    def test_act_returns_clipped_scalar(self, tmp_path):
        bundle = PolicyBundle(actor=new_actor(seed=0))
        a = bundle.act(np.zeros(bundle.actor.in_dim))
        assert -1.0 < a < 1.0

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ModelError):
            PolicyBundle.load(tmp_path / "nope.npz")


#: Batch heights on both sides of every BLAS blocking threshold the
#: fleet crosses (a 400-flow shard is the benchmark's pass).
ROW_COUNTS = (1, 2, 7, 8, 64, 400)


class TestStackedForwardIsRowExact:
    """The fleet's one-forward-per-pass rests on this: if a future NumPy
    collapses the 3-D matmul of ``infer_rows`` into one gemm, rows start
    to differ from per-flow inference in the last ulp and every pinned
    rollout digest moves."""

    @pytest.mark.parametrize(
        "path", sorted(MODELS_DIR.glob("*.npz")), ids=lambda p: p.stem)
    def test_every_shipped_bundle(self, path):
        bundle = PolicyBundle.load(path)
        actor = bundle.actor
        rng = np.random.default_rng(12)
        for n in ROW_COUNTS:
            x = rng.uniform(0.0, 6.0, size=(n, actor.in_dim))
            rows = actor.infer_rows(x)
            actions = bundle.act_batch(x)
            assert rows.shape == (n, actor.out_dim)
            assert actions.shape == (n,)
            for i in range(n):
                assert np.array_equal(rows[i:i + 1], actor.infer(x[i]))
                assert actions[i] == bundle.act(x[i])


def starved_frame() -> np.ndarray:
    """One MTP frame of a 400-flow fleet's starved flow (a share of
    ≈ 0.26 Mbps): relative cwnd, loss and pacing sit at the clip
    ceiling 6.0 and the latency ratio reads 3.0."""
    frame = np.array([0.9945, 0.0013, 3.0, 0.05, 6.0, 6.0, 1.0, 6.0])
    assert len(frame) == LOCAL_FEATURES
    return frame


class TestRepeatedColumns:
    """``decide_columns`` hands ``act_batch`` the transpose of a
    ``(in_dim, flows)`` state block in which many flows' columns are
    byte-identical; every action must still be ``act``'s for that row
    alone."""

    def test_shipped_bundle(self, monkeypatch):
        bundle = load_default_policy("astraea")
        actor = bundle.actor
        frames = actor.in_dim // LOCAL_FEATURES
        rng = np.random.default_rng(13)
        starved = np.tile(starved_frame(), frames)
        columns = [starved] * 30 + list(
            rng.uniform(0.0, 6.0, size=(12, actor.in_dim)))
        columns += columns[30:36]
        stack = np.array(columns).T[:, rng.permutation(len(columns))]
        x = np.ascontiguousarray(stack.T)
        seen = []
        forward = actor._forward_rows
        monkeypatch.setattr(actor, "_forward_rows",
                            lambda rows: seen.append(len(rows))
                            or forward(rows))
        actions = bundle.act_batch(x)
        assert seen == [13]
        assert [a.hex() for a in actions.tolist()] == \
            [bundle.act(row).hex() for row in x]


class TestDefaults:
    def test_default_paths(self):
        assert default_policy_path("astraea").name == \
            "astraea_pretrained.npz"
        with pytest.raises(ModelError):
            default_policy_path("carrier-pigeon")

    def test_loader_caches(self):
        clear_policy_cache()
        first = load_default_policy("astraea")
        second = load_default_policy("astraea")
        assert first is second
        clear_policy_cache()

    def test_orca_default_may_be_absent(self):
        clear_policy_cache()
        bundle = load_default_policy("orca")
        assert bundle is None or bundle.scheme == "orca"
        clear_policy_cache()


class TestNewActor:
    def test_shape_matches_paper(self):
        actor = new_actor()
        assert actor.in_dim == 40      # 8 features x w=5
        assert actor.out_dim == 1
        hidden = tuple(l.W.shape[1] for l in actor.layers[:-1])
        assert hidden == (256, 128, 64)
        assert actor.output == "tanh"
