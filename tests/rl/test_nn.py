"""NumPy network library: gradient correctness and state management."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TrainingConfig, replace
from repro.core.policy import load_default_policy
from repro.core.state import LOCAL_FEATURES
from repro.env.pool import FrozenPolicy
from repro.errors import ModelError
from repro.rl.nn import ALIGNMENT, MLP, Linear, aligned_zeros
from repro.rl.td3 import TD3Learner


def numeric_grad(f, param, eps=1e-6):
    grad = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = param[idx]
        param[idx] = orig + eps
        up = f()
        param[idx] = orig - eps
        down = f()
        param[idx] = orig
        grad[idx] = (up - down) / (2 * eps)
    return grad


class TestGradients:
    @pytest.mark.parametrize("output", ["linear", "tanh"])
    def test_full_gradient_check(self, output):
        rng = np.random.default_rng(0)
        net = MLP(4, (8, 6), 2, output=output, seed=1)
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(3, 2))   # fixed loss weights

        def loss():
            return float(np.sum(w * net.forward(x)))

        net.zero_grad()
        net.forward(x)
        grad_in = net.backward(w)
        for layer in net.layers:
            assert np.allclose(layer.dW, numeric_grad(loss, layer.W),
                               atol=1e-5)
            assert np.allclose(layer.db, numeric_grad(loss, layer.b),
                               atol=1e-5)
        # Input gradient too.
        num_in = numeric_grad(loss, x)
        assert np.allclose(grad_in, num_in, atol=1e-5)

    def test_gradients_accumulate(self):
        net = MLP(3, (4,), 1, seed=0)
        x = np.ones((2, 3))
        net.forward(x)
        net.backward(np.ones((2, 1)))
        once = net.layers[0].dW.copy()
        net.forward(x)
        net.backward(np.ones((2, 1)))
        assert np.allclose(net.layers[0].dW, 2 * once)
        net.zero_grad()
        assert np.all(net.layers[0].dW == 0)


class TestBackwardTrims:
    """``params=False`` / ``input_grad=False`` skip work, never change
    what the rest of the pass computes."""

    def backward(self, hidden, output, **kwargs):
        rng = np.random.default_rng(4)
        net = MLP(5, hidden, 2, output=output, seed=2)
        for layer in net.layers:   # stale grads: accumulation shows too
            layer.dW[:] = rng.normal(size=layer.dW.shape)
            layer.db[:] = rng.normal(size=layer.db.shape)
        net.forward(rng.normal(size=(7, 5)))
        grad_in = net.backward(rng.normal(size=(7, 2)), **kwargs)
        return grad_in, [g.copy() for g in net.gradients()]

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 6)])
    @pytest.mark.parametrize("output", ["linear", "tanh"])
    def test_params_false_leaves_grads_and_returns_the_same_input_grad(
            self, hidden, output):
        full_in, _ = self.backward(hidden, output)
        stale = MLP(5, hidden, 2, output=output, seed=2)
        trimmed_in, grads = self.backward(hidden, output, params=False)
        np.testing.assert_array_equal(trimmed_in, full_in)
        rng = np.random.default_rng(4)
        for layer, dW, db in zip(stale.layers, grads[::2], grads[1::2]):
            np.testing.assert_array_equal(
                dW, rng.normal(size=layer.dW.shape))
            np.testing.assert_array_equal(
                db, rng.normal(size=layer.db.shape))

    @pytest.mark.parametrize("hidden", [(), (8,), (8, 6)])
    @pytest.mark.parametrize("output", ["linear", "tanh"])
    def test_input_grad_false_yields_identical_param_grads(self, hidden,
                                                           output):
        _, full = self.backward(hidden, output)
        trimmed_in, grads = self.backward(hidden, output, input_grad=False)
        assert trimmed_in is None
        for a, b in zip(full, grads):
            np.testing.assert_array_equal(a, b)


class TestStorageOffset:
    def test_forward_does_not_depend_on_alignment(self):
        """The per-row forward reads the weights in the same order at any
        offset: only its speed depends on the alignment."""
        rng = np.random.default_rng(3)
        net = MLP(40, (256, 128, 64), 1, output="tanh", seed=4)
        x = rng.uniform(0.0, 3.0, (33, 40))
        want = net.infer_rows(x)
        for offset in (8, 16, 32, 48):
            for layer in net.layers:
                for name in ("W", "b"):
                    a = getattr(layer, name)
                    raw = np.empty(a.nbytes + 128, dtype=np.uint8)
                    start = -raw.ctypes.data % 64 + offset
                    moved = raw[start:start + a.nbytes].view(np.float64) \
                        .reshape(a.shape)
                    moved[...] = a
                    setattr(layer, name, moved)
            assert net.infer_rows(x).tobytes() == want.tobytes()

    def test_forward_does_not_depend_on_input_alignment(self):
        """Input rows at any 8-byte offset from a cache line give the
        same bits: the workspace output is aligned, the input is not."""
        net = MLP(40, (256, 128, 64), 1, output="tanh", seed=4)
        x = np.random.default_rng(5).uniform(0.0, 3.0, (33, 40))
        want = net.infer_rows(x)
        for offset in range(0, ALIGNMENT, 8):
            raw = aligned_zeros(x.size + ALIGNMENT // 8)
            moved = raw.view(np.uint8)[offset:offset + x.nbytes] \
                .view(np.float64).reshape(x.shape)
            moved[...] = x
            assert moved.ctypes.data % ALIGNMENT == offset
            assert net.infer_rows(moved).tobytes() == want.tobytes()
            for i in (0, 17, 32):
                assert net.infer_rows(moved[i]).tobytes() \
                    == want[i:i + 1].tobytes()


def _misaligned(arrays) -> list[int]:
    """Start offsets (mod :data:`ALIGNMENT`) of the arrays that are off
    a cache line."""
    return [a.ctypes.data % ALIGNMENT for a in arrays
            if a.ctypes.data % ALIGNMENT]


def _net_arrays(net: MLP) -> list[np.ndarray]:
    return [a for layer in net.layers
            for a in (layer.W, layer.b, layer.dW, layer.db)]


def _adam_arrays(opt) -> list[np.ndarray]:
    return [*opt._m, *opt._v, *(a for pair in opt._scratch for a in pair)]


class TestAlignedStorage:
    """Every parameter, gradient and Adam array starts on a cache line,
    however the net came to be."""

    @pytest.mark.parametrize("shape", [1, 7, (3, 5), (4, 1, 9)])
    def test_aligned_zeros(self, shape):
        a = aligned_zeros(shape)
        assert a.shape == ((shape,) if isinstance(shape, int) else shape)
        assert a.dtype == np.float64 and a.flags.c_contiguous
        assert a.ctypes.data % ALIGNMENT == 0
        assert not a.any()

    def test_construction_clone_and_set_state(self):
        net = MLP(40, (256, 128, 64), 1, output="tanh", seed=4)
        other = MLP(40, (256, 128, 64), 1, output="tanh", seed=5)
        other.set_state(net.get_state())
        for m in (net, net.clone(), other):
            assert _misaligned(_net_arrays(m)) == []

    def test_init_draw_is_unchanged(self):
        """Aligned storage holds the very ``rng.normal`` draw."""
        layer = Linear(5, 3, np.random.default_rng(2))
        want = np.random.default_rng(2).normal(0.0, np.sqrt(2.0 / 5),
                                               size=(5, 3))
        assert layer.W.tobytes() == want.tobytes()

    def test_td3_nets_and_adam_moments(self):
        cfg = replace(TrainingConfig(), hidden_layers=(16, 16))
        td3 = TD3Learner(8, 4, cfg=cfg, seed=1)
        td3.load_state_dict(td3.state_dict())
        for name in td3.NETS:
            assert _misaligned(_net_arrays(getattr(td3, name))) == []
        for opt in (td3.actor_opt, td3.critic_opt):
            assert _misaligned(_adam_arrays(opt)) == []

    def test_shipped_policy_and_frozen_policy(self):
        bundle = load_default_policy()
        assert bundle is not None
        assert _misaligned(_net_arrays(bundle.actor)) == []
        cfg = replace(TrainingConfig(), hidden_layers=(16, 16))
        state = MLP(LOCAL_FEATURES * cfg.history_length, cfg.hidden_layers,
                    1, output="tanh", seed=3).get_state()
        frozen = FrozenPolicy(cfg, state, warm=True)
        assert _misaligned(_net_arrays(frozen.actor)) == []


class TestShapesAndErrors:
    def test_forward_shape(self):
        net = MLP(5, (7,), 3, seed=0)
        assert net.forward(np.zeros((4, 5))).shape == (4, 3)
        assert net.forward(np.zeros(5)).shape == (1, 3)

    def test_rejects_wrong_input_dim(self):
        net = MLP(5, (7,), 3, seed=0)
        with pytest.raises(ModelError):
            net.forward(np.zeros((1, 4)))

    def test_backward_before_forward(self):
        net = MLP(2, (3,), 1, seed=0)
        with pytest.raises(ModelError):
            net.backward(np.zeros((1, 1)))

    def test_rejects_unknown_output(self):
        with pytest.raises(ModelError):
            MLP(2, (3,), 1, output="sigmoid")

    def test_rejects_bad_dims(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ModelError):
            Linear(0, 3, rng)

    def test_tanh_output_bounded(self):
        net = MLP(3, (8,), 1, output="tanh", seed=0)
        out = net.forward(np.random.default_rng(0).normal(size=(50, 3)) * 100)
        assert np.all(np.abs(out) <= 1.0)


class TestState:
    def test_roundtrip(self):
        a = MLP(3, (5,), 2, seed=0)
        b = MLP(3, (5,), 2, seed=99)
        b.set_state(a.get_state())
        x = np.random.default_rng(1).normal(size=(4, 3))
        assert np.allclose(a.forward(x), b.forward(x))

    def test_clone_is_independent(self):
        a = MLP(3, (5,), 2, output="tanh", seed=0)
        b = a.clone()
        x = np.random.default_rng(1).normal(size=(2, 3))
        assert np.allclose(a.forward(x), b.forward(x))
        a.layers[0].W += 1.0
        assert not np.allclose(a.forward(x), b.forward(x))

    def test_set_state_shape_mismatch(self):
        a = MLP(3, (5,), 2, seed=0)
        b = MLP(3, (6,), 2, seed=0)
        with pytest.raises(ModelError):
            a.set_state(b.get_state())

    def test_set_state_length_mismatch(self):
        a = MLP(3, (5,), 2, seed=0)
        with pytest.raises(ModelError):
            a.set_state(a.get_state()[:-1])

    def test_polyak_update(self):
        a = MLP(3, (5,), 2, seed=0)
        b = MLP(3, (5,), 2, seed=7)
        before = b.layers[0].W.copy()
        b.polyak_update_from(a, tau=0.5)
        expected = 0.5 * a.layers[0].W + 0.5 * before
        assert np.allclose(b.layers[0].W, expected)

    @settings(max_examples=10, deadline=None)
    @given(tau=st.floats(min_value=0.0, max_value=1.0))
    def test_property_polyak_convex(self, tau):
        a = MLP(2, (3,), 1, seed=0)
        b = MLP(2, (3,), 1, seed=7)
        lo = np.minimum(a.layers[0].W, b.layers[0].W)
        hi = np.maximum(a.layers[0].W, b.layers[0].W)
        b.polyak_update_from(a, tau=tau)
        assert np.all(b.layers[0].W >= lo - 1e-12)
        assert np.all(b.layers[0].W <= hi + 1e-12)


class TestInfer:
    """The no-grad fast forward used on serving and action-selection paths."""

    @pytest.mark.parametrize("output", ["linear", "tanh"])
    def test_matches_forward_bitwise(self, output):
        rng = np.random.default_rng(3)
        net = MLP(in_dim=5, hidden=(16, 8), out_dim=2, output=output, seed=3)
        x = rng.normal(size=(7, 5))
        assert np.array_equal(net.infer(x), net.forward(x))

    def test_single_vector_promoted_to_batch(self):
        net = MLP(in_dim=4, hidden=(8,), out_dim=1, seed=0)
        out = net.infer(np.zeros(4))
        assert out.shape == (1, 1)

    def test_rejects_wrong_input_dim(self):
        net = MLP(in_dim=4, hidden=(8,), out_dim=1, seed=0)
        with pytest.raises(ModelError):
            net.infer(np.zeros(3))

    def test_does_not_disturb_backprop_caches(self):
        # A training step may interleave with inference (e.g. serving a
        # policy mid-update); infer must leave forward's caches intact so
        # the subsequent backward is unchanged.
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 5))
        grad_out = rng.normal(size=(6, 2))

        ref = MLP(in_dim=5, hidden=(16,), out_dim=2, seed=5)
        ref.forward(x)
        ref.backward(grad_out)
        want = [(l.dW.copy(), l.db.copy()) for l in ref.layers]

        net = MLP(in_dim=5, hidden=(16,), out_dim=2, seed=5)
        net.forward(x)
        net.infer(rng.normal(size=(3, 5)))  # interleaved inference
        net.backward(grad_out)
        for layer, (dW, db) in zip(net.layers, want):
            assert np.array_equal(layer.dW, dW)
            assert np.array_equal(layer.db, db)

    def test_backward_before_forward_still_rejected_after_infer(self):
        net = MLP(in_dim=4, hidden=(8,), out_dim=1, seed=0)
        net.infer(np.zeros(4))
        with pytest.raises(ModelError):
            net.backward(np.zeros((1, 1)))


class TestInferRows:
    """The row-exact kernel: stacking must not perturb any row."""

    @pytest.mark.parametrize("output", ["linear", "tanh"])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 64, 400])
    def test_row_bitwise_equals_single_infer(self, output, n):
        net = MLP(in_dim=40, hidden=(256, 128, 64), out_dim=3,
                  output=output, seed=3)
        x = np.random.default_rng(n).normal(size=(n, 40))
        rows = net.infer_rows(x)
        assert rows.shape == (n, 3)
        for i in range(n):
            assert np.array_equal(rows[i:i + 1], net.infer(x[i]))
            assert np.array_equal(rows[i:i + 1], net.infer_rows(x[i]))

    def test_single_vector_promoted_to_batch(self):
        net = MLP(in_dim=4, hidden=(8,), out_dim=1, seed=0)
        assert net.infer_rows(np.zeros(4)).shape == (1, 1)

    def test_rejects_wrong_input_dim(self):
        net = MLP(in_dim=4, hidden=(8,), out_dim=1, seed=0)
        with pytest.raises(ModelError):
            net.infer_rows(np.zeros((2, 3)))

    @pytest.mark.parametrize("output", ["linear", "tanh"])
    def test_result_is_not_the_workspace(self, output):
        """A later call (wider or narrower) leaves an earlier result be."""
        net = MLP(in_dim=6, hidden=(16, 8), out_dim=2, output=output,
                  seed=1)
        rng = np.random.default_rng(2)
        first = net.infer_rows(rng.normal(size=(5, 6)))
        kept = first.copy()
        for n in (5, 3, 40):
            net.infer_rows(rng.normal(size=(n, 6)))
            assert first.tobytes() == kept.tobytes()

    def test_linear_output_is_owned(self):
        net = MLP(in_dim=6, hidden=(16,), out_dim=2, seed=1)
        out = net.infer_rows(np.ones((4, 6)))
        assert out.flags.owndata and out.base is None
        assert out.flags.c_contiguous and out.shape == (4, 2)

    @pytest.mark.parametrize("output", ["linear", "tanh"])
    def test_workspace_growth_stays_row_exact(self, output):
        net = MLP(in_dim=40, hidden=(256, 128, 64), out_dim=1,
                  output=output, seed=6)
        rng = np.random.default_rng(7)
        for n in (3, 500, 7):
            x = rng.normal(size=(n, 40))
            rows = net.infer_rows(x)
            assert net._rows[0].shape[0] >= n
            for i in range(n):
                assert rows[i:i + 1].tobytes() == net.infer(x[i]).tobytes()
