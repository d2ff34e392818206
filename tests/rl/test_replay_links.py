"""The linked replay buffer against the full-copy reference.

:class:`~repro.rl.replay.ReplayBuffer` stores a row's next state as a
link to the newer row holding the same state, and keeps it explicitly
only where no such row exists.  Fed the same stream as
:class:`~tests.oracles.replay_reference.ReferenceReplay`, it must be
indistinguishable from outside: every sampled batch, the length, the
cursor, the sampler stream and the seven logical columns byte-equal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rl.replay import ReplayBuffer
from tests.oracles.replay_reference import ReferenceReplay

LOCAL, GLOBAL, AGENTS = 3, 2, 5

#: One step of a stream: a training pass (which agents decide, whether
#: the pending passes are written now), an agent leaving or restarting,
#: an unrelated single-row ``add``, an ``add_batch`` of at least the
#: capacity, a ``sample``.
OPS = st.one_of(
    st.tuples(st.just("pass"),
              st.lists(st.integers(0, AGENTS - 1), unique=True,
                       max_size=AGENTS),
              st.booleans()),
    st.tuples(st.just("leave"), st.integers(0, AGENTS - 1)),
    st.tuples(st.just("restart"), st.integers(0, AGENTS - 1)),
    st.tuples(st.just("add")),
    st.tuples(st.just("big"), st.integers(0, 5)),
    st.tuples(st.just("sample"), st.integers(1, 9)),
)


def assert_same(new: ReplayBuffer, ref: ReferenceReplay) -> None:
    assert len(new) == len(ref)
    assert new.cursor == ref._cursor
    assert new._rng.bit_generator.state == ref._rng.bit_generator.state
    got = new.columns()
    for name, column in ref.columns().items():
        assert got[name].dtype == column.dtype
        assert got[name].tobytes() == column.tobytes(), name


class Stream:
    """Agents whose states come from a small palette, so equal states
    across agents and over time are common; each decision pairs the
    agent's pending state with its new one, as the observer does."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.state: dict[int, np.ndarray] = {}
        self.pending: list[tuple] = []

    def fresh(self) -> np.ndarray:
        draw = self.rng.random()
        if draw < 0.25 and self.state:
            return next(iter(self.state.values())).copy()
        if draw < 0.4:
            return np.zeros(LOCAL + GLOBAL)
        return self.rng.integers(0, 3, LOCAL + GLOBAL).astype(float)

    def decide(self, agents: list[int]) -> None:
        rows = []
        for agent in agents:
            new = self.fresh()
            if agent in self.state:
                rows.append((self.state[agent], new))
            self.state[agent] = new
        if rows:
            self.pending.append(self.block([s for s, _ in rows],
                                           [s2 for _, s2 in rows]))

    def block(self, states, next_states) -> tuple:
        s, s2 = np.array(states), np.array(next_states)
        k = len(s)
        return (s[:, :LOCAL], s[:, LOCAL:], self.rng.normal(size=(k, 1)),
                self.rng.normal(size=k), s2[:, :LOCAL], s2[:, LOCAL:],
                (self.rng.random(k) < 0.1).astype(float))

    def take_pending(self) -> tuple | None:
        if not self.pending:
            return None
        fields = tuple(np.concatenate(c) for c in zip(*self.pending))
        self.pending.clear()
        return fields


@settings(max_examples=150, deadline=None)
@given(capacity=st.integers(1, 20), seed=st.integers(0, 2 ** 32 - 1),
       ops=st.lists(OPS, max_size=40))
def test_linked_buffer_matches_reference(capacity, seed, ops):
    new = ReplayBuffer(capacity, LOCAL, GLOBAL, seed=seed % 1000)
    ref = ReferenceReplay(capacity, LOCAL, GLOBAL, seed=seed % 1000)
    stream = Stream(seed)
    for op in ops + [("pass", [], True)]:
        kind = op[0]
        if kind == "pass":
            stream.decide(op[1])
            fields = stream.take_pending() if op[2] else None
            if fields is not None:
                new.add_batch(*fields)
                ref.add_batch(*fields)
        elif kind == "leave":
            stream.state.pop(op[1], None)
        elif kind == "restart":
            stream.state[op[1]] = np.zeros(LOCAL + GLOBAL)
        elif kind == "add":
            s, a, r, s2, d = (stream.fresh(), stream.rng.normal(size=1),
                              float(stream.rng.normal()), stream.fresh(),
                              bool(stream.rng.random() < 0.5))
            for buf in (new, ref):
                buf.add(s[:LOCAL], s[LOCAL:], a, r, s2[:LOCAL], s2[LOCAL:],
                        d)
        elif kind == "big":
            n = capacity + op[1]
            fields = stream.block([stream.fresh() for _ in range(n)],
                                  [stream.fresh() for _ in range(n)])
            new.add_batch(*fields)
            ref.add_batch(*fields)
        elif len(ref):
            a, b = new.sample(op[1]), ref.sample(op[1])
            assert a.keys() == b.keys()
            for name in b:
                assert a[name].tobytes() == b[name].tobytes(), name
        assert_same(new, ref)
    # The store holds exactly the explicit rows' next states.
    nxt = new._next[:len(new)]
    explicit = ~nxt[nxt < 0]
    assert len(set(explicit.tolist())) == len(explicit)
    assert len(new._free) + len(explicit) == len(new._xlocal)
    assert set(new._free).isdisjoint(explicit.tolist())
    assert (nxt[nxt >= 0] < len(new)).all()


def test_a_training_stream_keeps_one_explicit_row_per_agent_and_write():
    """Within a write every pass's rows link to the next pass's; only
    each agent's newest row of the write stays explicit."""
    new = ReplayBuffer(1000, LOCAL, GLOBAL)
    ref = ReferenceReplay(1000, LOCAL, GLOBAL)
    stream = Stream(7)
    stream.fresh = lambda: stream.rng.normal(size=LOCAL + GLOBAL)
    for p in range(60):
        stream.decide(list(range(AGENTS)))
        if p % 7 == 6:
            fields = stream.take_pending()
            new.add_batch(*fields)
            ref.add_batch(*fields)
    assert_same(new, ref)
    writes = 60 // 7
    assert np.count_nonzero(new._next[:len(new)] < 0) == AGENTS * writes
    assert len(new._xlocal) <= 2 * AGENTS * writes


def test_state_arrays_round_trip_and_logical_load():
    stream = Stream(3)
    new = ReplayBuffer(12, LOCAL, GLOBAL, seed=4)
    ref = ReferenceReplay(12, LOCAL, GLOBAL, seed=4)
    for _ in range(9):
        stream.decide([0, 1, 2])
        fields = stream.take_pending()
        if fields is not None:
            new.add_batch(*fields)
            ref.add_batch(*fields)
    for arrays in (new.state_arrays(), ref.columns()):
        restored = ReplayBuffer(12, LOCAL, GLOBAL, seed=4)
        restored.load_arrays(arrays, new.cursor)
        assert_same(restored, ref)
    layout = new.state_arrays()
    assert len(layout["next_local"]) < len(layout["local"])


def test_the_bitwise_check_decides_when_every_hash_collides():
    """With all hash multipliers zero every pair is proposed; only
    bit-equal states may link (0.0 and -0.0 included)."""
    new = ReplayBuffer(30, LOCAL, GLOBAL, seed=2)
    ref = ReferenceReplay(30, LOCAL, GLOBAL, seed=2)
    new._mult_local[:] = 0
    new._mult_global[:] = 0
    stream = Stream(11)
    palette = [np.zeros(LOCAL + GLOBAL), -np.zeros(LOCAL + GLOBAL),
               np.ones(LOCAL + GLOBAL)]
    stream.fresh = lambda: palette[stream.rng.integers(0, 3)].copy()
    for _ in range(25):
        stream.decide([0, 1, 2, 3])
        fields = stream.take_pending()
        if fields is not None:
            new.add_batch(*fields)
            ref.add_batch(*fields)
            assert_same(new, ref)
            a, b = new.sample(16), ref.sample(16)
            for name in b:
                assert a[name].tobytes() == b[name].tobytes(), name
