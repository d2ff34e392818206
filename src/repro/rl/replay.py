"""Experience replay memory (Appendix A, first optimisation).

Stores transition tuples ``(g, s, a, r, g', s', done)`` — the global state
feeds only the critic, the local state feeds the actor — in preallocated
circular NumPy buffers and samples uniform mini-batches.  ``add_batch``
writes whole transition blocks with the same two-slice wraparound idiom
the monitor ring buffers use (:mod:`repro.netsim.stats`), which is what
the batched rollout path flushes through.

Each observed state is stored once.  In training, an agent's next state
is, bit for bit, the state of its own transition one pass later, so a
row whose next state equals a newer row's state of the same write keeps
only that row's index (``_next``); a newer row outlives it in the ring.
Only the other rows — each agent's newest at a write, unrelated rows —
keep their next state, in a small side store whose slots are recycled.
Links are found by content: one hash per state, one sort, one bitwise
comparison per proposed pair.  The layout is private: :meth:`columns`
gives the seven logical fields, :meth:`state_arrays` /
:meth:`load_arrays` persist it.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..errors import ModelError


def _bits(a: np.ndarray) -> np.ndarray:
    """A float64 block as its bit patterns."""
    return np.ascontiguousarray(a).view(np.uint64)


class ReplayBuffer:
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
        self._done = np.zeros(capacity)
        #: Row ``i``'s next state is row ``_next[i]``'s state when that
        #: is >= 0, else slot ``~_next[i]`` of the explicit store.
        self._next = np.zeros(capacity, dtype=np.intp)
        self._clear_store()
        # The row hash's multipliers: any odd values do, since the hash
        # only proposes a link and a bitwise comparison decides.
        mult = np.random.default_rng(0x5EED).integers(
            0, 2 ** 64, local_dim + global_dim, dtype=np.uint64) | 1
        self._mult_local, self._mult_global = np.split(mult, [local_dim])
        self._size = 0
        self._cursor = 0
        self._rng = np.random.default_rng(seed)

    def _clear_store(self) -> None:
        """Empty the explicit store: its states and its free slots."""
        self._xlocal = np.zeros((0, self.local_dim))
        self._xglobal = np.zeros((0, self.global_dim))
        self._free: list[int] = []

    def __len__(self) -> int:
        return self._size

    @property
    def cursor(self) -> int:
        """The slot the next row lands in."""
        return self._cursor

    def _check_width(self, name: str, value, dim: int,
                     batch: int) -> np.ndarray:
        """Validate one field against its buffer width.

        A wrong-width state would otherwise broadcast (width 1) or
        truncate silently into the preallocated row; raise instead,
        naming the offending field.
        """
        arr = np.asarray(value, dtype=float)
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
        row = [np.asarray(v, dtype=float).reshape(1, -1) for v in
               (local, global_state, action, next_local, next_global)]
        self.add_batch(*row[:3], [float(reward)], *row[3:], [float(done)])

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
        cap, size, cursor = self.capacity, self._size, self._cursor
        # When n >= cap only the newest `cap` rows survive; the first of
        # them would have landed at (cursor + n - cap) % cap == the new
        # cursor, so the write is the same two-slice pattern from there.
        skip = max(n - cap, 0)
        start = cursor if skip == 0 else (cursor + n) % cap
        count = n - skip
        lost = size + count - cap
        if lost > 0:    # the oldest rows go, their explicit states too
            gone = self._next[(cursor - size + np.arange(lost)) % cap]
            self._free.extend((~gone[gone < 0]).tolist())
        first = min(count, cap - start)
        for buf, src in ((self._local, local), (self._global, global_state),
                         (self._action, action), (self._reward, reward),
                         (self._done, done)):
            buf[start:start + first] = src[skip:skip + first]
            if first < count:
                buf[:count - first] = src[skip + first:]
        self._cursor = (cursor + n) % cap
        self._size = min(size + n, cap)

        # Link each next state to the newest written row with an equal
        # hash, if that row is not older and equal bit for bit.
        slots = (start + np.arange(count)) % cap
        next_local, next_global = next_local[skip:], next_global[skip:]
        s_local, s_global = _bits(local[skip:]), _bits(global_state[skip:])
        n_local, n_global = _bits(next_local), _bits(next_global)
        state_hash = self._hash(s_local, s_global)
        next_hash = self._hash(n_local, n_global)
        order = np.argsort(state_hash, kind="stable")
        ranked = state_hash[order]
        at = np.searchsorted(ranked, next_hash, side="right") - 1
        to = order[at]
        ok = (ranked[at] == next_hash) & (to >= np.arange(count))
        i = np.flatnonzero(ok)
        ok[i] = (s_local[to[i]] == n_local[i]).all(axis=1) \
            & (s_global[to[i]] == n_global[i]).all(axis=1)
        self._next[slots[ok]] = slots[to[ok]]
        rest = np.flatnonzero(~ok)
        x = self._claim(len(rest))
        self._xlocal[x] = next_local[rest]
        self._xglobal[x] = next_global[rest]
        self._next[slots[rest]] = ~x

    def _hash(self, local: np.ndarray, global_state: np.ndarray
              ) -> np.ndarray:
        """One 64-bit hash per row of bit patterns.  The shift first folds
        high bits down: a product mod 2**64 only carries upward, so a
        small integer (low 48 bits zero) would reach only the top 16."""
        shift = np.uint64(29)
        return (local ^ (local >> shift)) @ self._mult_local \
            + (global_state ^ (global_state >> shift)) @ self._mult_global

    def _claim(self, k: int) -> np.ndarray:
        """``k`` free explicit slots, growing the store if needed."""
        free = self._free
        if k > len(free):
            old = len(self._xlocal)
            new = max(2 * old, old + k - len(free))
            for name in ("_xlocal", "_xglobal"):
                grown = np.zeros((new, getattr(self, name).shape[1]))
                grown[:old] = getattr(self, name)
                setattr(self, name, grown)
            free.extend(range(old, new))
        x = np.array(free[len(free) - k:], dtype=np.intp)
        del free[len(free) - k:]
        return x

    def _next_states(self, nxt: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
        """The next states of rows whose ``_next`` entries are ``nxt``."""
        rows = np.flatnonzero(nxt < 0)
        local = self._local.take(nxt, axis=0, mode="clip")
        global_state = self._global.take(nxt, axis=0, mode="clip")
        if len(rows):
            x = ~nxt[rows]
            local[rows] = self._xlocal.take(x, axis=0)
            global_state[rows] = self._xglobal.take(x, axis=0)
        return local, global_state

    def sample(self, batch_size: int) -> dict[str, np.ndarray]:
        """Uniformly sample a batch of transitions (with replacement)."""
        if batch_size <= 0:
            raise ModelError(
                f"batch size must be positive, got {batch_size}")
        if self._size == 0:
            raise ModelError("cannot sample from an empty buffer")
        idx = self._rng.integers(0, self._size, size=batch_size)
        next_local, next_global = self._next_states(self._next[idx])
        return {
            "local": self._local[idx],
            "global": self._global[idx],
            "action": self._action[idx],
            "reward": self._reward[idx],
            "next_local": next_local,
            "next_global": next_global,
            "done": self._done[idx],
        }

    # ------------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        """The seven fields of the stored rows, in slot order (views of
        the stored ones; the next states gathered)."""
        n = self._size
        next_local, next_global = self._next_states(self._next[:n])
        return {"local": self._local[:n], "global": self._global[:n],
                "action": self._action[:n], "reward": self._reward[:n],
                "next_local": next_local, "next_global": next_global,
                "done": self._done[:n]}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The stored rows as :meth:`load_arrays` takes them back:
        ``local`` ... ``done`` per row, ``next_row`` (the linked row, -1
        for an explicit one) and the explicit rows' ``next_local`` /
        ``next_global`` in row order."""
        n = self._size
        nxt = self._next[:n]
        x = ~nxt[nxt < 0]
        return {"local": self._local[:n], "global": self._global[:n],
                "action": self._action[:n], "reward": self._reward[:n],
                "done": self._done[:n], "next_row": np.maximum(nxt, -1),
                "next_local": self._xlocal[x], "next_global": self._xglobal[x]}

    def load_arrays(self, arrays: Mapping[str, np.ndarray],
                    cursor: int) -> None:
        """Replace the contents with :meth:`state_arrays` output, or with
        the seven :meth:`columns` (checkpoint formats 1 and 2).  The rows
        are written again oldest first, so they link as they did live;
        the sampler stream is left alone."""
        columns = {name: np.asarray(a) for name, a in arrays.items()}
        next_row = columns.pop("next_row", None)
        if next_row is not None:
            explicit = next_row < 0
            for name in ("local", "global"):
                full = columns[name][np.maximum(next_row, 0)]
                full[explicit] = columns[f"next_{name}"]
                columns[f"next_{name}"] = full
        n = len(columns["reward"])
        if n > self.capacity:
            raise ModelError(
                f"replay state holds {n} rows, capacity is {self.capacity}")
        self._clear_store()
        self._size, self._cursor = 0, (int(cursor) - n) % self.capacity
        age = (self._cursor + np.arange(n)) % self.capacity
        self.add_batch(*(columns[name][age] for name in (
            "local", "global", "action", "reward", "next_local",
            "next_global", "done")))
