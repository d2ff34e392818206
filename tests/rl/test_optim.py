"""Optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.rl.optim import SGD, Adam


class TestAdam:
    def test_minimises_quadratic(self):
        x = np.array([5.0, -3.0])
        g = np.zeros(2)
        opt = Adam([x], [g], lr=0.1)
        for _ in range(500):
            g[:] = 2 * x  # d/dx of x^2
            opt.step()
        assert np.allclose(x, 0.0, atol=1e-2)

    def test_clip_norm_bounds_step(self):
        x = np.array([0.0])
        g = np.array([1e9])
        opt = Adam([x], [g], lr=0.1, clip_norm=1.0)
        opt.step()
        # First Adam step magnitude is bounded near lr regardless of clip,
        # but the internal moments must not explode.
        assert np.isfinite(x).all()
        assert abs(x[0]) <= 0.2

    def test_rejects_bad_lr(self):
        with pytest.raises(ModelError):
            Adam([np.zeros(1)], [np.zeros(1)], lr=0.0)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ModelError):
            Adam([np.zeros(2)], [np.zeros(3)])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ModelError):
            Adam([np.zeros(2)], [])


class ReferenceAdam:
    """The Adam step as a formula of whole arrays (allocating)."""

    def __init__(self, params, grads, lr, clip_norm):
        self.params, self.grads, self.lr = params, grads, lr
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8
        self.clip_norm = clip_norm
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        scale = 1.0
        norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in self.grads))
        if norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, self.grads, self.m, self.v):
            grad = g * scale
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad ** 2
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


@pytest.mark.parametrize("grad_scale", [1.0, 50.0])
def test_in_place_step_equals_the_formula_bitwise(grad_scale):
    """Over 50 steps, with the clip scale idle (small gradients) and
    active (large ones), including zero and negative-zero gradients."""
    rng = np.random.default_rng(8)
    shapes = [(6, 5), (5,), (5, 1), (1,)]
    start = [rng.normal(size=s) for s in shapes]
    ours = [p.copy() for p in start]
    theirs = [p.copy() for p in start]
    g_ours = [np.zeros(s) for s in shapes]
    g_theirs = [np.zeros(s) for s in shapes]
    opt = Adam(ours, g_ours, lr=3e-3, clip_norm=10.0)
    ref = ReferenceAdam(theirs, g_theirs, lr=3e-3, clip_norm=10.0)
    clipped = 0
    for _ in range(50):
        for a, b in zip(g_ours, g_theirs):
            a[:] = rng.normal(size=a.shape) * grad_scale
            a[rng.random(a.shape) < 0.1] = -0.0
            b[:] = a
        clipped += np.sqrt(sum(float(np.sum(g ** 2))
                               for g in g_ours)) > 10.0
        opt.step()
        ref.step()
        for a, b in zip(ours + opt._m + opt._v, theirs + ref.m + ref.v):
            assert a.tobytes() == b.tobytes()
    assert (clipped > 25) == (grad_scale > 1.0)


class TestSGD:
    def test_minimises_quadratic(self):
        x = np.array([5.0])
        g = np.zeros(1)
        opt = SGD([x], [g], lr=0.1)
        for _ in range(200):
            g[:] = 2 * x
            opt.step()
        assert abs(x[0]) < 1e-3

    def test_momentum_accelerates(self):
        def run(momentum):
            x = np.array([5.0])
            g = np.zeros(1)
            opt = SGD([x], [g], lr=0.01, momentum=momentum)
            for _ in range(50):
                g[:] = 2 * x
                opt.step()
            return abs(x[0])

        assert run(0.9) < run(0.0)

    def test_rejects_bad_lr(self):
        with pytest.raises(ModelError):
            SGD([np.zeros(1)], [np.zeros(1)], lr=-1.0)
