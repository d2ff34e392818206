"""Replay buffer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelError
from repro.rl.replay import ReplayBuffer


def make(capacity=10, local=3, glob=2):
    return ReplayBuffer(capacity, local, glob, action_dim=1, seed=0)


def add_n(buf, n, value=0.0):
    for i in range(n):
        buf.add(np.full(3, i + value), np.full(2, i), np.array([0.5]),
                float(i), np.zeros(3), np.zeros(2), False)


class TestReplayBuffer:
    def test_len_grows_then_saturates(self):
        buf = make(capacity=5)
        add_n(buf, 3)
        assert len(buf) == 3
        add_n(buf, 10)
        assert len(buf) == 5

    def test_circular_overwrite(self):
        buf = make(capacity=3)
        add_n(buf, 5)   # rewards 0..4; slots hold 3, 4, 2
        batch = buf.sample(100)
        assert set(np.unique(batch["reward"])) <= {2.0, 3.0, 4.0}

    def test_sample_shapes(self):
        buf = make()
        add_n(buf, 6)
        batch = buf.sample(4)
        assert batch["local"].shape == (4, 3)
        assert batch["global"].shape == (4, 2)
        assert batch["action"].shape == (4, 1)
        assert batch["reward"].shape == (4,)
        assert batch["done"].shape == (4,)

    def test_sample_empty_raises(self):
        with pytest.raises(ModelError):
            make().sample(1)

    def test_done_flag_stored(self):
        buf = make()
        buf.add(np.zeros(3), np.zeros(2), np.array([0.0]), 1.0,
                np.zeros(3), np.zeros(2), True)
        assert buf.sample(1)["done"][0] == 1.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ModelError):
            ReplayBuffer(0, 3, 2)

    def test_rejects_bad_dims(self):
        with pytest.raises(ModelError):
            ReplayBuffer(5, 0, 2)

    def test_sampling_deterministic_per_seed(self):
        a, b = make(), make()
        add_n(a, 8)
        add_n(b, 8)
        sa, sb = a.sample(4), b.sample(4)
        assert np.allclose(sa["reward"], sb["reward"])

    def test_sample_rejects_nonpositive_batch(self):
        buf = make()
        add_n(buf, 4)
        with pytest.raises(ModelError, match="batch size"):
            buf.sample(0)
        with pytest.raises(ModelError, match="batch size"):
            buf.sample(-3)

    def test_add_rejects_wrong_width_naming_field(self):
        buf = make()
        with pytest.raises(ModelError, match="'local'"):
            buf.add(np.zeros(4), np.zeros(2), np.array([0.0]), 0.0,
                    np.zeros(3), np.zeros(2), False)
        with pytest.raises(ModelError, match="'next_global'"):
            buf.add(np.zeros(3), np.zeros(2), np.array([0.0]), 0.0,
                    np.zeros(3), np.zeros(5), False)
        assert len(buf) == 0  # rejected rows never land


def batch_of(n, rng):
    return (rng.normal(size=(n, 3)), rng.normal(size=(n, 2)),
            rng.normal(size=(n, 1)), rng.normal(size=n),
            rng.normal(size=(n, 3)), rng.normal(size=(n, 2)),
            (rng.random(n) < 0.2).astype(float))


class TestAddBatch:
    """add_batch == N sequential adds, through every wraparound regime."""

    # capacity 7, cursor offset 4: n spans no-wrap (1, 3), exact fit,
    # wraparound (5, 7) and the n >= capacity overwrite path (9, 20).
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 20])
    def test_matches_sequential_adds(self, n):
        rng = np.random.default_rng(n)
        rows = batch_of(n, rng)
        serial, batched = make(capacity=7), make(capacity=7)
        add_n(serial, 4, value=100.0)   # offset the cursor first
        add_n(batched, 4, value=100.0)
        for i in range(n):
            serial.add(rows[0][i], rows[1][i], rows[2][i], rows[3][i],
                       rows[4][i], rows[5][i], bool(rows[6][i]))
        batched.add_batch(*rows)
        assert len(serial) == len(batched)
        assert serial.cursor == batched.cursor
        for name, column in serial.columns().items():
            np.testing.assert_array_equal(column, batched.columns()[name])

    def test_empty_batch_is_noop(self):
        buf = make()
        add_n(buf, 2)
        cursor = buf._cursor
        buf.add_batch(np.zeros((0, 3)), np.zeros((0, 2)), np.zeros((0, 1)),
                      np.zeros(0), np.zeros((0, 3)), np.zeros((0, 2)),
                      np.zeros(0))
        assert len(buf) == 2 and buf._cursor == cursor

    def test_rejects_wrong_width_naming_field(self):
        buf = make()
        with pytest.raises(ModelError, match="'global'"):
            buf.add_batch(np.zeros((4, 3)), np.zeros((4, 5)),
                          np.zeros((4, 1)), np.zeros(4), np.zeros((4, 3)),
                          np.zeros((4, 2)), np.zeros(4))

    def test_rejects_done_length_mismatch(self):
        buf = make()
        with pytest.raises(ModelError, match="'done'"):
            buf.add_batch(np.zeros((4, 3)), np.zeros((4, 2)),
                          np.zeros((4, 1)), np.zeros(4), np.zeros((4, 3)),
                          np.zeros((4, 2)), np.zeros(3))
