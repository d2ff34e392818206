"""The replay buffer with a full next-state copy per row, as a test double.

:class:`ReferenceReplay` keeps all seven transition fields of every row
in its own preallocated circular array, ``next_local`` and
``next_global`` included.  It is the executable specification
:class:`repro.rl.replay.ReplayBuffer` is pinned against
(``tests/rl/test_replay_links.py``): fed the same stream, both must
report the same length and cursor, draw the same sampler stream and
return byte-equal batches and logical columns.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError


class ReferenceReplay:
    """Uniform circular replay buffer over fixed-width transitions."""

    def __init__(self, capacity: int, local_dim: int, global_dim: int,
                 action_dim: int = 1, seed: int = 0):
        if capacity <= 0:
            raise ModelError("capacity must be positive")
        if local_dim <= 0 or global_dim <= 0 or action_dim <= 0:
            raise ModelError("dimensions must be positive")
        self.capacity = capacity
        self.local_dim = local_dim
        self.global_dim = global_dim
        self.action_dim = action_dim
        self._local = np.zeros((capacity, local_dim))
        self._global = np.zeros((capacity, global_dim))
        self._action = np.zeros((capacity, action_dim))
        self._reward = np.zeros(capacity)
        self._next_local = np.zeros((capacity, local_dim))
        self._next_global = np.zeros((capacity, global_dim))
        self._done = np.zeros(capacity)
        self._size = 0
        self._cursor = 0
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return self._size

    def _check_width(self, name: str, value, dim: int,
                     batch: int | None = None) -> np.ndarray:
        """Validate one field against its buffer width.

        A wrong-width state would otherwise broadcast (width 1) or
        truncate silently into the preallocated row; raise instead,
        naming the offending field.
        """
        arr = np.asarray(value, dtype=float)
        if batch is None:
            flat = arr.reshape(-1)
            if flat.shape != (dim,):
                raise ModelError(
                    f"replay field {name!r} has shape {arr.shape}, "
                    f"expected ({dim},)")
            return flat
        if arr.ndim == 1 and dim == 1:
            arr = arr[:, None]
        if arr.shape != (batch, dim):
            raise ModelError(
                f"replay field {name!r} has shape "
                f"{np.asarray(value).shape}, expected ({batch}, {dim})")
        return arr

    def add(self, local, global_state, action, reward: float,
            next_local, next_global, done: bool) -> None:
        """Append one transition, overwriting the oldest when full."""
        i = self._cursor
        self._local[i] = self._check_width("local", local, self.local_dim)
        self._global[i] = self._check_width("global", global_state,
                                            self.global_dim)
        self._action[i] = self._check_width("action", action,
                                            self.action_dim)
        self._reward[i] = reward
        self._next_local[i] = self._check_width("next_local", next_local,
                                                self.local_dim)
        self._next_global[i] = self._check_width(
            "next_global", next_global, self.global_dim)
        self._done[i] = float(done)
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def add_batch(self, local, global_state, action, reward,
                  next_local, next_global, done) -> None:
        """Append a block of ``n`` transitions in one write.

        Equivalent to ``n`` sequential :meth:`add` calls — identical
        final contents, cursor and size — but the rows land via at most
        two slice assignments (the ring-buffer wraparound idiom).  When
        ``n >= capacity`` only the last ``capacity`` rows survive, just
        as they would have serially.
        """
        reward = np.asarray(reward, dtype=float).reshape(-1)
        n = reward.shape[0]
        if n == 0:
            return
        local = self._check_width("local", local, self.local_dim, n)
        global_state = self._check_width("global", global_state,
                                         self.global_dim, n)
        action = self._check_width("action", action, self.action_dim, n)
        next_local = self._check_width("next_local", next_local,
                                       self.local_dim, n)
        next_global = self._check_width("next_global", next_global,
                                        self.global_dim, n)
        done = np.asarray(done, dtype=float).reshape(-1)
        if done.shape[0] != n:
            raise ModelError(
                f"replay field 'done' has length {done.shape[0]}, "
                f"expected {n}")
        cap = self.capacity
        new_cursor = (self._cursor + n) % cap
        new_size = min(self._size + n, cap)
        # When n >= cap only the newest `cap` rows survive; the first of
        # them would have landed at (cursor + n - cap) % cap == new_cursor,
        # so the write is the same two-slice pattern from that start.
        skip = max(n - cap, 0)
        start = self._cursor if skip == 0 else new_cursor
        count = n - skip
        first = min(count, cap - start)
        fields = ((self._local, local), (self._global, global_state),
                  (self._action, action), (self._reward, reward),
                  (self._next_local, next_local),
                  (self._next_global, next_global), (self._done, done))
        for buf, src in fields:
            buf[start:start + first] = src[skip:skip + first]
            if first < count:
                buf[:count - first] = src[skip + first:]
        self._cursor = new_cursor
        self._size = new_size

    def sample(self, batch_size: int) -> dict[str, np.ndarray]:
        """Uniformly sample a batch of transitions (with replacement)."""
        if batch_size <= 0:
            raise ModelError(
                f"batch size must be positive, got {batch_size}")
        if self._size == 0:
            raise ModelError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, self._size, size=batch_size)
        return {
            "local": self._local[idx],
            "global": self._global[idx],
            "action": self._action[idx],
            "reward": self._reward[idx],
            "next_local": self._next_local[idx],
            "next_global": self._next_global[idx],
            "done": self._done[idx],
        }

    def columns(self) -> dict[str, np.ndarray]:
        """The seven fields of the stored rows, in slot order."""
        n = self._size
        return {"local": self._local[:n], "global": self._global[:n],
                "action": self._action[:n], "reward": self._reward[:n],
                "next_local": self._next_local[:n],
                "next_global": self._next_global[:n],
                "done": self._done[:n]}
