"""``decide_columns`` against the scalar ``on_interval`` it stands for.

A driver decides for every CUBIC and Reno flow of a pass with one
``decide_columns`` call over state columns.  The contract is bitwise:
the new window and every ``STATE`` attribute must equal, on
``float.hex``, what ``on_interval`` leaves on a controller object that
started from the same state and saw the same stats — one ulp in one
window diverges a chaotic rollout (and the pinned fleet digest with it).
That is why the cube and cube root go through libm ``pow`` per element
(``np.power``'s SIMD kernel rounds differently on some hosts).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc import Cubic, Reno
from repro.netsim.stats import MtpColumns, MtpStats


def make_controller(kind, state: dict):
    controller = kind(ecn=state["ecn"]) if kind is Cubic else kind()
    for name, value in state.items():
        setattr(controller, name, value)
    return controller


def make_stats(now: float, row: dict) -> MtpStats:
    return MtpStats(time_s=now, duration_s=row["duration_s"],
                    throughput_pps=0.0, avg_rtt_s=row["srtt_s"],
                    min_rtt_s=row["srtt_s"], sent_pkts=row["delivered_pkts"]
                    + row["lost_pkts"], delivered_pkts=row["delivered_pkts"],
                    lost_pkts=row["lost_pkts"], pkts_in_flight=0.0,
                    cwnd_pkts=0.0, pacing_pps=0.0, srtt_s=row["srtt_s"],
                    marked_pkts=row["marked_pkts"])


def hexed(values) -> list[str]:
    return [float(v).hex() for v in values]


def check_bitwise(kind, now: float, states: list[dict], rows: list[dict]):
    """Scalar loop and column call from the same inputs, compared."""
    scalar = [make_controller(kind, s) for s in states]
    stats = [make_stats(now, r) for r in rows]
    want_cwnd = [c.on_interval(s).cwnd_pkts for c, s in zip(scalar, stats)]

    columns = [make_controller(kind, s) for s in states]
    state = np.array([c.read_state() for c in columns]).T.copy()
    got_cwnd, pacing = kind.decide_columns(state, MtpColumns.of(now, stats),
                                           None)

    assert pacing is None
    assert hexed(got_cwnd) == hexed(want_cwnd)
    for j, name in enumerate(kind.STATE):
        assert hexed(state[j]) == hexed(getattr(c, name) for c in scalar), \
            name
    # write_state hands the object exactly the scalar's attributes back.
    for c, values, want in zip(columns, state.T.tolist(), scalar):
        c.write_state(values)
        for name in kind.STATE:
            assert getattr(c, name) == getattr(want, name)
            assert type(getattr(c, name)) is type(getattr(want, name))


# -- branch coverage ------------------------------------------------------

def cubic_branches(now, state, row):
    """Which branches of ``Cubic.on_interval`` a row takes."""
    congested = row["lost_pkts"] > 0 or (
        state["ecn"] and row["delivered_pkts"] > 0
        and min(1.0, row["marked_pkts"] / row["delivered_pkts"])
        > Cubic.ECN_MARK_THRESHOLD)
    out = set()
    if row["srtt_s"] < 1e-6:
        out.add("srtt<1e-6")
    if congested and now >= state["_recovery_until"]:
        return out | {"loss"}
    if congested:
        out.add("loss inside recovery")
    if state["cwnd"] < state["ssthresh"]:
        return out | {"slow start"}
    probe = make_controller(Cubic, state)
    probe.on_interval(make_stats(now, row))
    if state["_epoch_start"] < 0:
        out.add("fresh epoch")
    out.add("growth" if probe.cwnd > max(state["cwnd"], Cubic.MIN_CWND)
            else "target below cwnd")
    return out


CUBIC_BRANCHES = {"loss", "loss inside recovery", "slow start",
                  "fresh epoch", "growth", "target below cwnd", "srtt<1e-6"}


def random_inputs(rng, n, kind, ecn):
    """``n`` flows of physically plausible but varied state and stats."""
    now = float(rng.uniform(0.0, 30.0))
    srtt = np.where(rng.random(n) < 0.1, rng.uniform(0.0, 1e-6, n),
                    rng.uniform(1e-3, 0.5, n))
    rows =[{"duration_s": float(rng.uniform(1e-3, 0.2)),
             "srtt_s": float(srtt[i]),
             "delivered_pkts": float(rng.uniform(0.0, 500.0)),
             "lost_pkts": float(rng.uniform(0.0, 20.0))
             if rng.random() < 0.3 else 0.0,
             "marked_pkts": float(rng.uniform(0.0, 30.0))}
            for i in range(n)]
    states = []
    for _ in range(n):
        state = {"cwnd": float(rng.uniform(0.5, 2.0) if rng.random() < 0.1
                               else rng.uniform(2.0, 2000.0)),
                 "ssthresh": math.inf if rng.random() < 0.2
                 else float(rng.uniform(1.0, 2000.0)),
                 "_recovery_until": float(rng.uniform(-1.0, 35.0))}
        if kind is Cubic:
            state.update(
                _w_max=float(rng.uniform(0.0, 3000.0)),
                _k=float(rng.uniform(0.0, 15.0)),
                _epoch_start=-1.0 if rng.random() < 0.2
                else float(rng.uniform(0.0, now)),
                ecn=bool(rng.random() < 0.5) if ecn is None else ecn)
        states.append(state)
    return now, states, rows


@pytest.mark.parametrize("ecn", [False, True, None])
def test_cubic_columns_equal_the_scalar_loop_on_a_wide_batch(ecn):
    rng = np.random.default_rng([11, 0 if ecn is None else 1 + ecn])
    now, states, rows = random_inputs(rng, 4000, Cubic, ecn)
    covered = set().union(*(cubic_branches(now, s, r)
                            for s, r in zip(states, rows)))
    assert covered == CUBIC_BRANCHES
    check_bitwise(Cubic, now, states, rows)


def test_reno_columns_equal_the_scalar_loop_on_a_wide_batch():
    rng = np.random.default_rng([12])
    now, states, rows = random_inputs(rng, 4000, Reno, None)
    loss = [r["lost_pkts"] > 0 for r in rows]
    assert any(lo and now >= s["_recovery_until"]
               for lo, s in zip(loss, states))
    assert any(lo and now < s["_recovery_until"]
               for lo, s in zip(loss, states))
    assert any(s["cwnd"] < 1.0 for s in states)
    check_bitwise(Reno, now, states, rows)


# -- hypothesis -----------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)
stat_rows = st.fixed_dictionaries({
    "duration_s": st.floats(1e-9, 1.0, **finite),
    "srtt_s": st.one_of(st.floats(0.0, 1e-6, **finite),
                        st.floats(1e-6, 2.0, **finite)),
    "delivered_pkts": st.one_of(st.just(0.0), st.floats(1e-3, 1e4, **finite)),
    "lost_pkts": st.one_of(st.just(0.0), st.floats(0.0, 1e3, **finite)),
    "marked_pkts": st.floats(0.0, 1e3, **finite),
})


def cubic_states(ecn):
    return st.fixed_dictionaries({
        "cwnd": st.floats(0.0, 1e5, **finite),
        "ssthresh": st.one_of(st.just(math.inf),
                              st.floats(0.0, 1e5, **finite)),
        "_w_max": st.floats(0.0, 1e5, **finite),
        "_k": st.floats(0.0, 100.0, **finite),
        "_epoch_start": st.one_of(st.just(-1.0),
                                  st.floats(-5.0, 50.0, **finite)),
        "_recovery_until": st.floats(-1.0, 50.0, **finite),
        "ecn": st.just(ecn),
    })


reno_states = st.fixed_dictionaries({
    "cwnd": st.floats(0.0, 1e5, **finite),
    "ssthresh": st.one_of(st.just(math.inf), st.floats(0.0, 1e5, **finite)),
    "_recovery_until": st.floats(-1.0, 50.0, **finite),
})


@pytest.mark.parametrize("ecn", [False, True])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cubic_columns_equal_the_scalar_loop(ecn, data):
    now = data.draw(st.floats(0.0, 50.0, **finite))
    flows = data.draw(st.lists(st.tuples(cubic_states(ecn), stat_rows),
                               min_size=1, max_size=12))
    check_bitwise(Cubic, now, [s for s, _ in flows], [r for _, r in flows])


@settings(max_examples=150, deadline=None)
@given(now=st.floats(0.0, 50.0, **finite),
       flows=st.lists(st.tuples(reno_states, stat_rows), min_size=1,
                      max_size=12))
def test_reno_columns_equal_the_scalar_loop(now, flows):
    check_bitwise(Reno, now, [s for s, _ in flows], [r for _, r in flows])
