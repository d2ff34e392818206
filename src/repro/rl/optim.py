"""Optimisers for the NumPy network library."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .nn import aligned_zeros


class Adam:
    """Adam (Kingma & Ba) over a fixed list of parameter arrays.

    The optimiser binds to live parameter and gradient arrays once; calling
    :meth:`step` applies one update in place.  Optional global-norm gradient
    clipping stabilises the early critic updates.
    """

    def __init__(self, params: list[np.ndarray], grads: list[np.ndarray],
                 lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, clip_norm: float | None = 10.0):
        if lr <= 0:
            raise ModelError("learning rate must be positive")
        if len(params) != len(grads):
            raise ModelError("params and grads must align")
        for p, g in zip(params, grads):
            if p.shape != g.shape:
                raise ModelError("param/grad shape mismatch")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.clip_norm = clip_norm
        # Moments and scratch on cache lines, like the parameters.
        self._m = [aligned_zeros(p.shape) for p in params]
        self._v = [aligned_zeros(p.shape) for p in params]
        # Two scratch arrays per parameter: a step allocates nothing.
        self._scratch = [(aligned_zeros(p.shape), aligned_zeros(p.shape))
                         for p in params]
        self._t = 0

    def step(self) -> None:
        """Apply one Adam update using the currently accumulated gradients.

        Per parameter, in place::

            grad = g * scale
            m = beta1 * m + (1 - beta1) * grad
            v = beta2 * v + (1 - beta2) * grad ** 2
            p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)

        every operation rounded as that formula rounds it (a product's
        operands may swap: IEEE multiplication commutes exactly).
        """
        self._t += 1
        scale = 1.0
        if self.clip_norm is not None:
            total = 0.0
            for g, (a, _b) in zip(self.grads, self._scratch):
                total += float(np.sum(np.multiply(g, g, out=a)))
            norm = np.sqrt(total)
            if norm > self.clip_norm:
                scale = self.clip_norm / (norm + 1e-12)
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        # Unscaled, each ``a`` still holds the norm's ``g * g``.
        squared = self.clip_norm is not None and scale == 1.0
        for p, g, m, v, (a, b) in zip(self.params, self.grads, self._m,
                                      self._v, self._scratch):
            # g * 1.0 is g, bit for bit.
            grad = g if scale == 1.0 else np.multiply(g, scale, out=b)
            # (v before m: the two moments share no operand.)
            if not squared:
                np.multiply(grad, grad, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            m *= self.beta1
            m += np.multiply(grad, 1.0 - self.beta1, out=a)
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            p -= a

    def get_state(self, out: dict | None = None) -> dict:
        """Copies of the optimiser internals (moments, step count, LR),
        written into ``out`` (an earlier result) when given.

        Divergence rollbacks and training checkpoints must restore the
        moments along with the parameters: a poisoned first moment would
        re-inject the divergence on the very next step, and a reset step
        count would silently re-warm the bias correction.
        """
        out = out or {"m": [np.empty_like(m) for m in self._m],
                      "v": [np.empty_like(v) for v in self._v]}
        for dst, src in zip(out["m"] + out["v"], self._m + self._v,
                            strict=True):
            np.copyto(dst, src)
        out["t"], out["lr"] = self._t, self.lr
        return out

    def set_state(self, state: dict) -> None:
        """Restore :meth:`get_state` output in place."""
        if len(state["m"]) != len(self._m) or len(state["v"]) != len(self._v):
            raise ModelError("optimizer state does not match this optimizer")
        for dst, src in zip(self._m, state["m"]):
            if dst.shape != src.shape:
                raise ModelError("optimizer moment shape mismatch")
            dst[:] = src
        for dst, src in zip(self._v, state["v"]):
            if dst.shape != src.shape:
                raise ModelError("optimizer moment shape mismatch")
            dst[:] = src
        self._t = int(state["t"])
        self.lr = float(state["lr"])


class SGD:
    """Plain (optionally momentum) SGD, mainly for tests and ablations."""

    def __init__(self, params: list[np.ndarray], grads: list[np.ndarray],
                 lr: float = 1e-2, momentum: float = 0.0):
        if lr <= 0:
            raise ModelError("learning rate must be positive")
        self.params = params
        self.grads = grads
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p) for p in params]

    def step(self) -> None:
        for p, g, v in zip(self.params, self.grads, self._velocity):
            v *= self.momentum
            v -= self.lr * g
            p += v
