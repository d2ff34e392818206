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

    def forward(self, x: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
        """``x W + b``, into ``out`` if given, else a fresh array: the
        product, then the bias added in place (the ufuncs of
        ``x @ W + b``)."""
        self._x = x
        out = np.matmul(x, self.W, out=out)
        out += self.b
        return out

    def backward(self, grad_out: np.ndarray, params: bool = True,
                 input_grad: bool = True, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> np.ndarray | None:
        """Accumulate ``dW``/``db`` (unless ``params`` is False) and
        return the input gradient (``None`` when ``input_grad`` is
        False), into ``out`` if given, else a fresh array.  ``scratch``
        (``W.size`` floats or more), if given, holds the ``dW`` product,
        then the ``db`` sum, before each is added; without it they are
        fresh arrays, with the same bits."""
        if self._x is None:
            raise ModelError("backward called before forward")
        if params:
            dw = db = None
            if scratch is not None:
                dw = scratch[:self.W.size].reshape(self.W.shape)
                db = scratch[:self.b.size]
            self.dW += np.matmul(self._x.T, grad_out, out=dw)
            self.db += np.add.reduce(grad_out, axis=0, out=db)
        if not input_grad:
            return None
        return np.matmul(grad_out, self.W.T, out=out)

    def zero_grad(self) -> None:
        self.dW[:] = 0.0
        self.db[:] = 0.0


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
        self._out: np.ndarray | None = None
        #: :meth:`forward`'s grow-only aligned workspace: per layer its
        #: ``(cap, width)`` output (the pre-activation, ReLU'd in place),
        #: which :meth:`backward` then overwrites with the gradient at
        #: that activation.
        self._acts: list[np.ndarray] = []
        #: A flat aligned scratch (:meth:`_scratch`): in turn the ``dW``
        #: product, the ``db`` sum and the ReLU mask of each layer, or
        #: the product of a Polyak update that reads this net.
        self._product: np.ndarray | None = None
        #: :meth:`infer_rows`' per-layer ``(cap, 1, width)`` outputs.
        self._rows: list[np.ndarray] = []
        #: :meth:`_distinct_rows`' key weights: a fixed draw, unequal
        #: per input dimension so that rows which permute each other's
        #: entries rarely share a key (the key only groups; a byte
        #: check decides).
        self._probe = np.random.default_rng(0).uniform(0.5, 1.5, in_dim)

    # ------------------------------------------------------------------

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass; keeps the activations for a subsequent backward.

        Each layer writes into the net's workspace and takes its ReLU
        in place: the ufuncs of :meth:`infer` on the same operands,
        without an allocation per layer, so the output is bitwise
        :meth:`infer`'s.  It is a fresh array, never a view of the
        workspace.

        The workspace grows to the largest batch forwarded so far and
        stays with the net (``batch x sum of widths`` floats): it is
        for training batches.  A one-off pass over a large batch
        belongs to :meth:`infer`, which keeps nothing.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_dim:
            raise ModelError(
                f"expected input dim {self.in_dim}, got {x.shape[1]}")
        n = len(x)
        if not self._acts or n > len(self._acts[0]):
            # Grow-only: a smaller batch uses the first n rows, which
            # are C-contiguous and start on a cache line.
            self._acts = [aligned_zeros((n, layer.W.shape[1]))
                          for layer in self.layers]
        h = x
        for layer, act in zip(self.layers[:-1], self._acts):
            h = layer.forward(h, out=act[:n])
            np.maximum(h, 0.0, out=h)
        out = self.layers[-1].forward(h, out=self._acts[-1][:n])
        self._out = np.tanh(out) if self.output == "tanh" else out.copy()
        return self._out

    def _scratch(self, size: int) -> np.ndarray:
        """The flat scratch, grown to at least ``size`` floats."""
        if self._product is None or len(self._product) < size:
            self._product = aligned_zeros(size)
        return self._product

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Inference-only forward: no activation caching, no grad support.

        Numerically identical to :meth:`forward` but touches neither its
        workspace nor the backprop state, so it is safe to interleave
        with a training forward/backward pair, and reentrant (the serving
        paths use it).  Accepts a single state vector or a batch; always
        returns a 2-D ``(batch, out_dim)`` array like :meth:`forward`.
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

        Each distinct row is forwarded once and its output copied to
        every row that repeats it: identical bytes take the identical
        BLAS calls, so this changes no bit.  Rows are grouped by a
        probe key (:meth:`_distinct_rows`), and a grouping is used only
        if it reproduces ``x`` byte for byte; otherwise every row is
        forwarded.  The result is always a fresh, owned, C-contiguous
        array.  Not reentrant: two threads must not call it on one net
        at once.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ModelError(
                f"expected input dim {self.in_dim}, got {x.shape[-1]}")
        distinct, inverse = self._distinct_rows(x)
        if distinct is None:
            return self._forward_rows(x)
        return self._forward_rows(distinct)[inverse]

    def _distinct_rows(self, x: np.ndarray
                       ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """``(distinct, inverse)``, ``distinct`` free of repeated rows
        and ``distinct[inverse]`` byte-equal to ``x``, or ``(None,
        None)`` when every row is distinct or no such grouping is found.

        Rows are sorted (stably) by one float key each, ``x @ probe``,
        and a run of equal keys is taken for one row.  The key is never
        trusted: ``-0.0`` and ``0.0``, or two rows whose keys collide,
        share a key but not their bytes, and the byte check then sends
        the whole call down the every-row path.  A NaN key equals
        nothing, so such a row is a group of its own.
        """
        keys = x @ self._probe
        order = keys.argsort(kind="stable")
        keys = keys[order]
        new = keys[1:] != keys[:-1]
        if new.all():
            return None, None
        head = np.ones(len(keys), dtype=bool)  # sorted row starts a group
        head[1:] = new
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = head.cumsum() - 1
        distinct = x[order[head]]
        if not np.array_equal(distinct[inverse].view(np.uint64),
                              x.view(np.uint64)):
            return None, None
        return distinct, inverse

    def _forward_rows(self, x: np.ndarray) -> np.ndarray:
        """:meth:`infer_rows`' kernel on a validated ``(n, in_dim)``
        block: one ``1 x K`` BLAS call per row and layer.

        Each layer writes into a resident aligned workspace (as wide
        as the widest block so far, never shrunk), then adds the bias
        and applies the ReLU in place: the same ufuncs on the same
        operands as :meth:`infer`, without an allocation per layer.
        The returned array is always a fresh one.
        """
        n = x.shape[0]
        if not self._rows or n > self._rows[0].shape[0]:
            self._rows = [aligned_zeros((n, 1, layer.W.shape[1]))
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

        A backward consumes its forward: each hidden layer's gradient
        overwrites that layer's activations in the workspace once its
        ``dW`` product and its ReLU mask (``activation > 0``, which is
        ``pre-activation > 0``, as ``1.0`` / ``0.0`` in the scratch)
        have read them, and the mask multiplies the gradient in place.
        A second backward needs a new forward.  The returned input
        gradient is a fresh array.
        """
        if self._out is None:
            raise ModelError("backward called before forward")
        grad = np.atleast_2d(np.asarray(grad_out, dtype=float))
        if self.output == "tanh":
            grad = grad * (1.0 - self._out ** 2)
        n = len(grad)
        if n != len(self._out):
            raise ModelError(f"gradient has {n} rows, the forward had "
                             f"{len(self._out)}")
        self._out = None
        layers, acts = self.layers, self._acts
        scratch = self._scratch(max(
            max(layer.W.size for layer in layers),
            len(acts[0]) * max(layer.W.shape[0] for layer in layers)))
        for k in range(len(layers) - 1, 0, -1):
            width = layers[k].W.shape[0]
            below = acts[k - 1][:n]
            mask = scratch[:n * width].reshape(n, width)
            if params:
                layers[k].backward(grad, input_grad=False, scratch=scratch)
            np.greater(below, 0.0, out=mask)
            grad = layers[k].backward(grad, params=False, out=below)
            grad *= mask
        return layers[0].backward(grad, params, input_grad, scratch=scratch)

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
        # The product goes into the source net's scratch, which holds
        # nothing between its backward passes (a target net never
        # takes one, and needs no scratch of its own).
        sources = source.parameters()
        scratch = source._scratch(max(p.size for p in sources))
        for pt, ps in zip(self.parameters(), sources):
            pt *= 1.0 - tau
            pt += np.multiply(ps, tau, out=scratch[:ps.size].reshape(
                ps.shape))

    def clone(self) -> "MLP":
        """An independent copy with identical parameters."""
        rebuild, args = self.__reduce__()
        return rebuild(*args)

    def __reduce__(self):
        """Pickle the shape and the parameters only: the copy is built
        through the constructor, into aligned storage, with zero
        gradients and no caches or workspaces."""
        hidden = tuple(layer.W.shape[1] for layer in self.layers[:-1])
        return _rebuild, (self.in_dim, hidden, self.out_dim, self.output,
                          self.get_state())


def _rebuild(in_dim: int, hidden: tuple[int, ...], out_dim: int,
             output: str, state: list[np.ndarray]) -> MLP:
    net = MLP(in_dim, hidden, out_dim, output=output)
    net.set_state(state)
    return net
