"""``AstraeaController.decide_columns`` against the scalar loop it stands for.

A driver decides for every due Astraea flow of one bundle with one
``decide_columns`` call over state columns, around one stacked forward.
The contract is bitwise: the window, the pacing rate and every state
row must equal, on ``float.hex``, what ``on_interval`` leaves on a
controller object that started from the same state and saw the same
stats; the RTT ring, written back, must be the scalar's monotonic
deque, so the whole object pickles equal.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.astraea import AstraeaController
from repro.core.policy import PolicyBundle, new_actor
from repro.core.state import LOCAL_FEATURES, column_rows
from repro.errors import ModelError
from repro.netsim.stats import MtpColumns, MtpStats

POLICY = PolicyBundle(actor=new_actor(seed=5))
HISTORY = POLICY.history
MTP_S = 0.03
WINDOW_S = AstraeaController.RTT_WINDOW_S
#: Rows compared on ``float.hex``: all but the ring's write slot, plus
#: the state block's column.  The ring itself is compared through
#: ``write_state``.
HEX_ROWS = [j for j, name in enumerate(AstraeaController.STATE)
            if name != "ring_next"] + list(range(
                len(AstraeaController.STATE),
                len(AstraeaController.STATE) + column_rows(HISTORY)))


def make_controller(flow: dict) -> AstraeaController:
    """A controller in the state ``flow`` describes."""
    ctl = AstraeaController(mtp_s=MTP_S, policy=POLICY, **flow["switches"])
    for name in ("cwnd", "_in_slow_start", "_rtt_min", "_next_probe_s",
                 "_drain_left"):
        setattr(ctl, name, flow[name])
    block = ctl.state_block
    block.thr_max_pps = flow["thr_max_pps"]
    block.lat_min_s = flow["lat_min_s"]
    block._frames.extend(np.array(f, dtype=float) for f in flow["frames"])
    block.thr_history_pps.extend(flow["thr_history"])
    ctl._rtt_samples.extend(flow["rtt_samples"])
    return ctl


def make_stats(now: float, row: dict) -> MtpStats:
    return MtpStats(time_s=now, **row)


def snapshot(ctl: AstraeaController) -> bytes:
    """Every attribute but the (shared, frozen) policy, bit for bit."""
    return pickle.dumps({k: v for k, v in vars(ctl).items()
                         if k != "policy"})


def hexed(values) -> list[str]:
    return [float(v).hex() for v in values]


def stacked(controllers) -> np.ndarray:
    """The controllers' state columns, zero-padded to the longest as a
    driver's state array pads the shorter kinds: a guards-off agent has
    no RTT ring."""
    state = np.zeros((max(c.state_rows() for c in controllers),
                      len(controllers)))
    for j, c in enumerate(controllers):
        values = c.read_state()
        state[:len(values), j] = values
    return state


def check_bitwise(now: float, flows: list[dict], rows: list[dict]):
    stats = [make_stats(now, row) for row in rows]
    scalar = [make_controller(flow) for flow in flows]
    want = [c.on_interval(s) for c, s in zip(scalar, stats)]

    columns = [make_controller(flow) for flow in flows]
    state = stacked(columns)
    cwnd, pacing = AstraeaController.decide_columns(
        state, MtpColumns.of(now, stats), POLICY)

    assert hexed(cwnd) == hexed(d.cwnd_pkts for d in want)
    assert hexed(pacing) == hexed(math.inf if d.pacing_pps is None
                                  else d.pacing_pps for d in want)
    got_rows = state[HEX_ROWS]
    want_rows = stacked(scalar)[HEX_ROWS]
    for j, (got, expected) in enumerate(zip(got_rows, want_rows)):
        assert hexed(got) == hexed(expected), HEX_ROWS[j]
    for c, values, expected in zip(columns, state.T, scalar):
        c.write_state(values[:c.state_rows()])
        assert c._rtt_samples == expected._rtt_samples
        assert snapshot(c) == snapshot(expected)


# -- inputs ---------------------------------------------------------------

def ring_samples(now: float, count: int, at_horizon: bool, rng) -> list:
    """A valid guard deque: sample times at least one MTP apart, the
    newest at least one MTP before ``now``, every one inside the window
    of the newest, values strictly increasing (suffix minima).  With
    ``at_horizon`` the oldest sits exactly on ``now``'s window edge."""
    if count == 0:
        return []
    newest = now - MTP_S * int(rng.integers(1, 30))
    oldest = now - WINDOW_S if at_horizon else \
        newest - rng.uniform(MTP_S * (count - 1), WINDOW_S)
    times = np.linspace(oldest, newest, count).tolist() if count > 1 \
        else [newest]
    values = np.unique(rng.uniform(0.005, 0.2, count)).tolist()
    return list(zip(times, values))


def random_flow(rng, now: float) -> dict:
    switches = {name: bool(rng.random() < 0.85) for name in
                ("use_pacing", "slow_start", "probe_rtt", "guards")}
    depth = int(rng.integers(0, HISTORY + 1)) if rng.random() < 0.3 \
        else HISTORY
    ring = int(rng.choice([0, 1, 3, 12, 200, 300])) \
        if switches["guards"] else 0
    return {
        "switches": switches,
        "cwnd": float(rng.uniform(0.5, 2.0) if rng.random() < 0.05
                      else rng.uniform(2.0, 3000.0)),
        "_in_slow_start": switches["slow_start"] and rng.random() < 0.3,
        "_rtt_min": math.inf if rng.random() < 0.3
        else float(rng.uniform(0.005, 0.2)),
        "_next_probe_s": None if rng.random() < 0.2
        else float(now + rng.choice([-3.0, 0.0, 0.01, 2.0])
                   * rng.random()),
        "_drain_left": int(rng.choice([0, 0, 0, 1, 2, 3])),
        "thr_max_pps": 0.0 if rng.random() < 0.1
        else float(rng.uniform(0.0, 2e4)),
        "lat_min_s": math.inf if rng.random() < 0.15
        else float(rng.uniform(0.005, 0.2)),
        "frames": [rng.uniform(0.0, 6.0, LOCAL_FEATURES)
                   for _ in range(depth)],
        "thr_history": rng.uniform(0.0, 2e4, depth).tolist(),
        "rtt_samples": ring_samples(now, ring, rng.random() < 0.2, rng),
    }


def random_row(rng, flow: dict) -> dict:
    avg = float(rng.uniform(0.005, 0.5))
    sent = float(rng.uniform(0.0, 500.0))
    kind = rng.random()
    samples = flow.get("rtt_samples")
    if samples and kind > 0.85:
        # A tie with a windowed sample: the deque drops the older one.
        min_rtt = samples[int(rng.integers(len(samples)))][1]
    elif kind < 0.05:
        min_rtt = 0.0
    elif kind < 0.1 and not flow["_in_slow_start"]:
        min_rtt = math.inf      # no RTT sample at all
    else:
        min_rtt = float(avg * rng.uniform(0.2, 1.0))
    return {
        "duration_s": float(rng.uniform(1e-3, 0.1)),
        "throughput_pps": float(rng.uniform(0.0, 2e4)),
        "avg_rtt_s": avg,
        "min_rtt_s": min_rtt,
        "sent_pkts": sent,
        "delivered_pkts": float(rng.uniform(0.0, 500.0)),
        "lost_pkts": float(rng.uniform(0.0, 0.05) * sent)
        if rng.random() < 0.3 else 0.0,
        "pkts_in_flight": float(rng.uniform(0.0, 600.0)),
        "cwnd_pkts": float(rng.uniform(2.0, 600.0)),
        "pacing_pps": math.inf if rng.random() < 0.1
        else float(rng.uniform(0.0, 3e4)),
        "srtt_s": float(rng.uniform(0.0, 1e-6) if rng.random() < 0.05
                        else rng.uniform(0.005, 0.5)),
    }


def branches(now: float, flow: dict, row: dict) -> set[str]:
    """Which branches of the scalar decision ``flow`` takes on ``row``."""
    out = set()
    for name, on in flow["switches"].items():
        if not on:
            out.add(f"{name} off")
    if len(flow["frames"]) < HISTORY:
        out.add("young stack")
    lat_min = min(flow["lat_min_s"], row["min_rtt_s"])
    if lat_min == math.inf:
        out.add("lat_min inf")
    elif lat_min <= 0:
        out.add("lat_min <= 0")
    loss_rate = min(1.0, row["lost_pkts"] / row["sent_pkts"]) \
        if row["sent_pkts"] > 0 else 0.0
    if flow["_in_slow_start"]:
        rtt_min = min(flow["_rtt_min"], row["min_rtt_s"])
        rtt = max(row["avg_rtt_s"], rtt_min, 1e-6)
        if row["cwnd_pkts"] * (1.0 - rtt_min / rtt) > 10.0:
            out.add("slow-start exit by backlog")
        elif loss_rate > 0.01:
            out.add("slow-start exit by loss")
        else:
            return out | {"slow-start step"}
    if flow["switches"]["probe_rtt"]:
        next_probe = flow["_next_probe_s"]
        if next_probe is None:
            out.add("probe first call")
            next_probe = now + 5.0
        if now >= next_probe:
            return out | {"probe fire"}
        if flow["_drain_left"] > 0:
            return out | {"probe drain"}
    if not flow["switches"]["guards"]:
        return out
    horizon = now - WINDOW_S
    window = [v for t, v in flow["rtt_samples"] if t >= horizon]
    if any(t == horizon for t, _ in flow["rtt_samples"]):
        out.add("ring sample at the horizon")
    ratio = row["avg_rtt_s"] / max(min(window + [row["min_rtt_s"]]), 1e-9)
    if ratio < 1.05 and loss_rate < 0.01:
        return out | {"guard idle"}
    return out | {"guard bloat" if ratio > 3.0 else "guard pass"}


EVERY_BRANCH = {
    "use_pacing off", "slow_start off", "probe_rtt off", "guards off",
    "young stack", "lat_min inf", "lat_min <= 0",
    "slow-start exit by backlog", "slow-start exit by loss",
    "slow-start step", "probe first call", "probe fire", "probe drain",
    "ring sample at the horizon", "guard idle", "guard bloat",
    "guard pass"}


def test_columns_equal_the_scalar_loop_on_a_wide_batch():
    rng = np.random.default_rng([30, 1])
    now = float(rng.uniform(20.0, 60.0))
    flows = [random_flow(rng, now) for _ in range(1500)]
    rows = [random_row(rng, flow) for flow in flows]
    covered = set().union(*(branches(now, f, r) for f, r in zip(flows, rows)))
    assert covered == EVERY_BRANCH
    check_bitwise(now, flows, rows)


def test_columns_equal_the_scalar_loop_when_every_flow_is_guarded():
    """Every row on the policy path with the guards on: the branches
    take all rows at once (whole-column views) instead of a subset."""
    rng = np.random.default_rng([30, 5])
    now = float(rng.uniform(20.0, 60.0))
    flows = [random_flow(rng, now) for _ in range(300)]
    for flow in flows:
        flow["switches"].update(guards=True, probe_rtt=False)
        flow.update(_in_slow_start=False,
                    rtt_samples=ring_samples(now, int(rng.integers(0, 40)),
                                             False, rng))
    rows = [random_row(rng, flow) for flow in flows]
    check_bitwise(now, flows, rows)


# -- hypothesis -----------------------------------------------------------

finite = dict(allow_nan=False, allow_infinity=False)


@st.composite
def flow_and_row(draw, now: float):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    flow = random_flow(rng, now)
    flow["switches"] = draw(st.fixed_dictionaries({
        name: st.booleans() for name in
        ("use_pacing", "slow_start", "probe_rtt", "guards")}))
    if not flow["switches"]["slow_start"]:
        flow["_in_slow_start"] = False
    if not flow["switches"]["guards"]:
        flow["rtt_samples"] = []
    flow["cwnd"] = draw(st.floats(0.0, 1e5, **finite))
    row = random_row(rng, flow)
    row["avg_rtt_s"] = draw(st.floats(1e-4, 2.0, **finite))
    row["min_rtt_s"] = draw(st.floats(0.0, row["avg_rtt_s"], **finite))
    row["srtt_s"] = draw(st.floats(0.0, 2.0, **finite))
    return flow, row


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_columns_equal_the_scalar_loop(data):
    now = data.draw(st.floats(10.0, 60.0, **finite))
    pairs = data.draw(st.lists(flow_and_row(now), min_size=1, max_size=8))
    check_bitwise(now, [f for f, _ in pairs], [r for _, r in pairs])


# -- errors and round trips ----------------------------------------------

class NanPolicy:
    history = HISTORY

    def act(self, state, slot):
        return float("nan")

    def act_batch(self, states, slots):
        return np.full(len(states), np.nan)


def test_a_nan_policy_output_raises_in_both_paths():
    rng = np.random.default_rng([30, 2])
    now = 30.0
    flow = random_flow(rng, now)
    flow.update(_in_slow_start=False, _drain_left=0, _next_probe_s=now + 1.0)
    stats = make_stats(now, random_row(rng, flow))
    scalar = make_controller(flow)
    scalar.policy = NanPolicy()
    with pytest.raises(ModelError, match=r"action must lie in \[-1, 1\], "
                                         r"got nan"):
        scalar.on_interval(stats)
    columns = make_controller(flow)
    with pytest.raises(ModelError, match=r"action must lie in \[-1, 1\], "
                                         r"got nan"):
        AstraeaController.decide_columns(
            np.array([columns.read_state()]).T.copy(),
            MtpColumns.of(now, [stats]), NanPolicy())


@pytest.mark.parametrize("alpha", [1.5, 1.0, 0.0, -0.1, math.nan])
def test_a_bad_alpha_fails_at_construction(alpha):
    with pytest.raises(ModelError, match=r"alpha must lie in \(0, 1\)"):
        AstraeaController(policy=POLICY, alpha=alpha)


def test_read_then_write_state_round_trips():
    rng = np.random.default_rng([30, 3])
    for _ in range(200):
        flow = random_flow(rng, float(rng.uniform(20.0, 60.0)))
        original = make_controller(flow)
        copy = AstraeaController(mtp_s=MTP_S, policy=POLICY,
                                 **flow["switches"])
        copy.write_state(original.read_state())
        assert snapshot(copy) == snapshot(original)
        assert type(copy._drain_left) is int
        assert copy._next_probe_s is None or \
            type(copy._next_probe_s) is float


def test_a_guards_off_agent_carries_no_ring():
    """The RTT ring is the guard's: without the guards a column is the
    scalar rows and the state block's column, and the switch is part of
    the kind, so no block pads one kind to the other's rows."""
    on, off = (AstraeaController(mtp_s=MTP_S, policy=POLICY, guards=guards)
               for guards in (True, False))
    assert off.state_rows() == len(AstraeaController.STATE) \
        + column_rows(HISTORY)
    assert len(off.read_state()) == off.state_rows() < on.state_rows()
    assert on.column_key() != off.column_key()


def test_the_ring_holds_a_full_window_of_decisions():
    """One guard sample per MTP for longer than the window: the ring
    never overwrites an in-window sample, and writes back the deque."""
    ctl, scalar = (AstraeaController(mtp_s=MTP_S, policy=POLICY,
                                     slow_start=False, probe_rtt=False)
                   for _ in range(2))
    state = np.array([ctl.read_state()]).T.copy()
    rng = np.random.default_rng([30, 4])
    steps = int(1.5 * WINDOW_S / MTP_S)
    for step in range(1, steps + 1):
        now = step * MTP_S
        flow = {"_in_slow_start": False}
        row = random_row(rng, flow)
        row["min_rtt_s"] = 0.01 + 0.01 * math.sin(step / 40.0)
        stats = make_stats(now, row)
        want = scalar.on_interval(stats)
        cwnd, _ = AstraeaController.decide_columns(
            state, MtpColumns.of(now, [stats]), POLICY)
        assert cwnd[0].hex() == want.cwnd_pkts.hex()
    ctl.write_state(state[:, 0])
    assert len(scalar._rtt_samples) > 1
    assert ctl._rtt_samples == scalar._rtt_samples
    assert snapshot(ctl) == snapshot(scalar)
