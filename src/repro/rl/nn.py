"""Minimal neural-network layer library (NumPy, explicit backprop).

No deep-learning framework is available offline, so the actor and critic
networks of §3.4 are implemented directly: fully-connected layers with He
or Xavier initialisation, ReLU hidden activations and an optional ``tanh``
output, with hand-written forward/backward passes.  The networks are the
3-layer MLPs the paper specifies (256/128/64 hidden units).

Every parameter, gradient and workspace array starts on a 64-byte
cache-line boundary (:func:`aligned_zeros`): a per-row BLAS ``gemv``
over a weight matrix that straddles cache lines runs ×1.7 slower, with
bit-equal results, so alignment is set here rather than left to the
heap.

Gradient correctness is checked against numerical differentiation in
``tests/rl/test_nn.py``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError

#: Byte alignment of every array this module allocates (one cache line).
ALIGNMENT = 64


def aligned_zeros(shape: int | tuple[int, ...]) -> np.ndarray:
    """Zeroed C-contiguous float64 storage starting on an
    :data:`ALIGNMENT`-byte boundary (``np.zeros`` gets ``malloc``'s 16)."""
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    nbytes = 8 * int(np.prod(shape, dtype=np.int64))
    raw = np.zeros(nbytes + ALIGNMENT, dtype=np.uint8)
    start = -raw.ctypes.data % ALIGNMENT
    return raw[start:start + nbytes].view(np.float64).reshape(shape)


class Linear:
    """Affine layer ``y = x W + b`` with cached input for backprop."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 scale: str = "he"):
        if in_dim <= 0 or out_dim <= 0:
            raise ModelError("layer dimensions must be positive")
        if scale == "he":
            std = np.sqrt(2.0 / in_dim)
        elif scale == "xavier":
            std = np.sqrt(1.0 / in_dim)
        elif scale == "small":
            std = 1e-3
        else:
            raise ModelError(f"unknown init scale {scale!r}")
        self.W = aligned_zeros((in_dim, out_dim))
        self.W[...] = rng.normal(0.0, std, size=(in_dim, out_dim))
        self.b = aligned_zeros(out_dim)
        self.dW = aligned_zeros(self.W.shape)
        self.db = aligned_zeros(out_dim)
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W + self.b

    def backward(self, grad_out: np.ndarray, params: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulate ``dW``/``db`` (unless ``params`` is False) and
        return the input gradient (``None`` when ``input_grad`` is
        False)."""
        if self._x is None:
            raise ModelError("backward called before forward")
        if params:
            self.dW += self._x.T @ grad_out
            self.db += grad_out.sum(axis=0)
        return grad_out @ self.W.T if input_grad else None

    def zero_grad(self) -> None:
        self.dW[:] = 0.0
        self.db[:] = 0.0


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class MLP:
    """Multi-layer perceptron with ReLU hidden layers.

    ``output`` selects the output nonlinearity: ``"tanh"`` for the actor
    (actions in (-1, 1)), ``"linear"`` for critics.
    """

    def __init__(self, in_dim: int, hidden: tuple[int, ...], out_dim: int,
                 output: str = "linear", seed: int = 0):
        if output not in ("linear", "tanh"):
            raise ModelError(f"unknown output activation {output!r}")
        rng = np.random.default_rng(seed)
        dims = [in_dim, *hidden, out_dim]
        self.layers = [
            Linear(dims[i], dims[i + 1], rng,
                   scale="he" if i < len(dims) - 2 else "small")
            for i in range(len(dims) - 1)
        ]
        self.output = output
        self.in_dim = in_dim
        self.out_dim = out_dim
        self._hidden_pre: list[np.ndarray] = []
        self._out: np.ndarray | None = None
        #: :meth:`infer_rows`' per-layer ``(cap, 1, width)`` outputs.
        self._rows: list[np.ndarray] = []

    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; caches activations for a subsequent backward."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ModelError(
                f"expected input dim {self.in_dim}, got {x.shape[1]}")
        self._hidden_pre = []
        h = x
        for layer in self.layers[:-1]:
            pre = layer.forward(h)
            self._hidden_pre.append(pre)
            h = _relu(pre)
        out = self.layers[-1].forward(h)
        if self.output == "tanh":
            out = np.tanh(out)
        self._out = out
        return out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward: no activation caching, no grad support.

        Numerically identical to :meth:`forward` but touches none of the
        backprop caches, so it is safe to interleave with a training
        forward/backward pair and is measurably cheaper on the hot serving
        and action-selection paths.  Accepts a single state vector or a
        batch; always returns a 2-D ``(batch, out_dim)`` array like
        :meth:`forward`.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ModelError(
                f"expected input dim {self.in_dim}, got {x.shape[-1]}")
        h = x
        for layer in self.layers[:-1]:
            h = np.maximum(h @ layer.W + layer.b, 0.0)
        out = h @ self.layers[-1].W + self.layers[-1].b
        if self.output == "tanh":
            out = np.tanh(out)
        return out

    def infer_rows(self, x: np.ndarray) -> np.ndarray:
        """Row-exact inference: row ``i`` of a batched call is bitwise
        identical to inferring row ``i`` alone, and to ``infer(x[i])``.

        BLAS ``@`` picks different kernels (blocking, FMA grouping) per
        matrix height, so :meth:`infer` on a stacked batch can differ
        from per-row calls in the last ulp — enough to diverge a chaotic
        rollout.  Here every row stays its own ``1 x K`` matrix: a 3-D
        ``np.matmul`` loops, in C, the very BLAS call :meth:`infer`
        makes for a single state, once per row, so the equivalence is
        structural.  Use it wherever stacked and per-flow action
        selection must agree bit for bit (the training act path, the
        fleet decision pass); a pinned rollout must never stack its
        rows into one gemm.

        Each layer writes into a resident aligned workspace (grown
        geometrically, never shrunk), then adds the bias and applies
        the ReLU in place: the same ufuncs on the same operands as
        :meth:`infer`, without an allocation per layer.  The returned
        array is always a fresh one.  Not reentrant: two threads must
        not call it on one net at once.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ModelError(
                f"expected input dim {self.in_dim}, got {x.shape[-1]}")
        n = x.shape[0]
        if not self._rows or n > self._rows[0].shape[0]:
            cap = max(n, 2 * self._rows[0].shape[0] if self._rows else 0)
            self._rows = [aligned_zeros((cap, 1, layer.W.shape[1]))
                          for layer in self.layers]
        h = x[:, None, :]
        last = len(self.layers) - 1
        for k, (layer, buf) in enumerate(zip(self.layers, self._rows)):
            out = np.matmul(h, layer.W, out=buf[:n])
            out += layer.b
            if k < last:
                np.maximum(out, 0.0, out=out)
            h = out
        if self.output == "tanh":
            return np.tanh(h[:, 0, :])
        return h[:, 0, :].copy()

    def backward(self, grad_out: np.ndarray, params: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        """Backprop ``dLoss/dOutput``; returns ``dLoss/dInput``.

        Parameter gradients accumulate into each layer's ``dW``/``db``.
        ``params=False`` leaves them untouched (a pass that only wants
        the input gradient); ``input_grad=False`` skips the first
        layer's input gradient and returns ``None`` (a pass that only
        wants the parameter gradients).  Neither changes what the other
        computes, bit for bit.
        """
        if self._out is None:
            raise ModelError("backward called before forward")
        grad = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if self.output == "tanh":
            grad = grad * (1.0 - self._out ** 2)
        layers = self.layers
        for k in range(len(layers) - 1, -1, -1):
            grad = layers[k].backward(grad, params, input_grad or k > 0)
            if k:
                grad = grad * (self._hidden_pre[k - 1] > 0)
        return grad

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    # ------------------------------------------------------------------

    def parameters(self) -> list[np.ndarray]:
        """Live references to every parameter array."""
        out = []
        for layer in self.layers:
            out.extend((layer.W, layer.b))
        return out

    def gradients(self) -> list[np.ndarray]:
        """Live references to every gradient array, aligned with parameters."""
        out = []
        for layer in self.layers:
            out.extend((layer.dW, layer.db))
        return out

    def get_state(self) -> list[np.ndarray]:
        """Copies of all parameters (for targets and serialisation)."""
        return [p.copy() for p in self.parameters()]

    def set_state(self, state: list[np.ndarray]) -> None:
        """Load parameters from :meth:`get_state` output."""
        params = self.parameters()
        if len(state) != len(params):
            raise ModelError(
                f"state has {len(state)} arrays, model needs {len(params)}")
        for p, s in zip(params, state):
            if p.shape != s.shape:
                raise ModelError(f"shape mismatch: {p.shape} vs {s.shape}")
            p[:] = s

    def polyak_update_from(self, source: "MLP", tau: float) -> None:
        """Soft target update: ``p_target <- tau p_source + (1-tau) p_target``."""
        for pt, ps in zip(self.parameters(), source.parameters()):
            pt *= 1.0 - tau
            pt += tau * ps

    def clone(self) -> "MLP":
        """An independent copy with identical parameters."""
        hidden = tuple(layer.W.shape[1] for layer in self.layers[:-1])
        copy = MLP(self.in_dim, hidden, self.out_dim, output=self.output)
        copy.set_state(self.get_state())
        return copy
