"""The columnar training pass against the per-object loop it stands for.

A training agent is an ``AstraeaController`` whose policy is the
episode's ``TrainingPolicy``: ``decide_columns`` decides every due agent
of an episode in one call around one stacked forward, and the
per-object ``on_interval`` stays the definition.
The contract is bitwise on ``float.hex``: the window, the pacing rate,
every state row, the states and actions recorded for the observer, and
each exploration stream's position afterwards.  Training builds the
agent with slow start, probe drain and guards off; an episode with them
on is held to the same contract.

The observer's column reductions (Eq. 4-8 reward, Table 2 global state,
the Eq. 7 moments of the throughput ring) are checked the same way
against ``RewardBlock.compute`` over ``FlowSnapshot`` records and
``global_state_vector`` over ``MtpStats`` rows.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import (
    FlowConfig,
    LinkConfig,
    ScenarioConfig,
    TrainingConfig,
    replace,
)
from repro.core.astraea import AstraeaController
from repro.core.learner import Learner
from repro.core.reward import FlowSnapshot, RewardBlock
from repro.core.state import LOCAL_FEATURES, LocalStateBlock, \
    global_state_columns, global_state_vector
from repro.env import episode
from repro.env.episode import Observer, TrainingPolicy, \
    build_training_controllers, run_training_episode
from repro.env.pool import FrozenPolicy
from repro.netsim.stats import MtpColumns, MtpStats

CFG = replace(TrainingConfig(), hidden_layers=(16, 16), seed=4)
HISTORY = CFG.history_length
ACTOR_STATE = Learner(CFG).td3.actor.get_state()
LINK = LinkConfig(bandwidth_mbps=80.0, rtt_ms=40.0, buffer_bdp=1.0)


def hexed(values) -> list[str]:
    return [float(v).hex() for v in values]


def training_agents(learner, n: int) -> tuple[TrainingPolicy, list]:
    """``n`` agents and their shared policy, built as an episode builds
    them."""
    scenario = ScenarioConfig(link=LINK, flows=(FlowConfig(),) * n,
                              duration_s=1.0)
    controllers = build_training_controllers(learner, scenario, 0.1,
                                             [10.0] * n)
    return controllers[0].policy, controllers


# -- decisions --------------------------------------------------------------

def make_agents(flows: list[dict], warm: bool, noise_std: float):
    """One episode's controllers in the states ``flows`` describe."""
    table = TrainingPolicy(
        FrozenPolicy(CFG, ACTOR_STATE, warm=warm), noise_std,
        [np.random.default_rng([CFG.seed, 2, i]) for i in range(len(flows))])
    controllers = []
    for i, flow in enumerate(flows):
        ctl = AstraeaController(
            mtp_s=0.030, policy=table, alpha=flow["alpha"],
            use_pacing=flow["use_pacing"], slow_start=False,
            probe_rtt=False, guards=False, slot=i)
        ctl.cwnd = flow["cwnd"]
        block = ctl.state_block
        block.thr_max_pps = flow["thr_max_pps"]
        block.lat_min_s = flow["lat_min_s"]
        block._frames.extend(np.array(f, dtype=float) for f in flow["frames"])
        block.thr_history_pps.extend(flow["thr_history"])
        table.streams[i].random(flow["skip"])   # somewhere along its stream
        controllers.append(ctl)
    return table, controllers


def check_bitwise(now: float, flows: list[dict], rows: list[dict],
                  warm: bool, noise_std: float) -> None:
    stats = [MtpStats(time_s=now, **row) for row in rows]
    want_table, scalar = make_agents(flows, warm, noise_std)
    want = [c.on_interval(s) for c, s in zip(scalar, stats)]

    table, columns = make_agents(flows, warm, noise_std)
    state = np.array([c.read_state() for c in columns]).T.copy()
    cwnd, pacing = AstraeaController.decide_columns(
        state, MtpColumns.of(now, stats), table)

    assert hexed(cwnd) == hexed(d.cwnd_pkts for d in want)
    assert hexed(pacing) == hexed(math.inf if d.pacing_pps is None
                                  else d.pacing_pps for d in want)
    want_state = np.array([c.read_state() for c in scalar]).T
    for j, (got, expected) in enumerate(zip(state, want_state)):
        assert hexed(got) == hexed(expected), j
    assert hexed(table.states.ravel()) == hexed(want_table.states.ravel())
    assert hexed(table.actions) == hexed(want_table.actions)
    assert table.has_state.all() and want_table.has_state.all()
    for got, expected in zip(table.streams, want_table.streams):
        assert got.bit_generator.state == expected.bit_generator.state
    for c, values, expected in zip(columns, state.T, scalar):
        c.write_state(values)
        assert hexed(c.read_state()) == hexed(expected.read_state())
        assert list(c.state_block.thr_history_pps) == \
            list(expected.state_block.thr_history_pps)
        assert hexed(c.state_block.input_vector()) == \
            hexed(expected.state_block.input_vector())


def random_flow(rng) -> dict:
    depth = int(rng.integers(0, HISTORY + 1)) if rng.random() < 0.3 \
        else HISTORY
    return {
        "alpha": float(rng.choice([0.025, 0.05, 0.3])),
        "use_pacing": bool(rng.random() < 0.8),
        "cwnd": float(rng.uniform(0.5, 2.0) if rng.random() < 0.05
                      else rng.uniform(2.0, 3000.0)),
        "thr_max_pps": 0.0 if rng.random() < 0.1
        else float(rng.uniform(0.0, 2e4)),
        "lat_min_s": math.inf if rng.random() < 0.15
        else float(rng.uniform(0.005, 0.2)),
        "frames": [rng.uniform(0.0, 6.0, LOCAL_FEATURES)
                   for _ in range(depth)],
        "thr_history": rng.uniform(0.0, 2e4, depth).tolist(),
        "skip": int(rng.integers(0, 40)),
    }


def random_row(rng) -> dict:
    avg = float(rng.uniform(0.005, 0.5))
    sent = float(rng.uniform(0.0, 500.0))
    kind = rng.random()
    if kind < 0.05:
        min_rtt = 0.0
    elif kind < 0.1:
        min_rtt = math.inf      # no RTT sample at all
    else:
        min_rtt = float(avg * rng.uniform(0.2, 1.0))
    return {
        "duration_s": float(rng.uniform(1e-3, 0.1)),
        "throughput_pps": 0.0 if rng.random() < 0.1
        else float(rng.uniform(0.0, 2e4)),
        "avg_rtt_s": avg,
        "min_rtt_s": min_rtt,
        "sent_pkts": sent,
        "delivered_pkts": float(rng.uniform(0.0, 500.0)),
        "lost_pkts": float(rng.uniform(0.0, 0.05) * sent)
        if rng.random() < 0.3 else 0.0,
        "pkts_in_flight": float(rng.uniform(0.0, 600.0)),
        "cwnd_pkts": float(rng.uniform(2.0, 600.0)),
        "pacing_pps": float(rng.uniform(0.0, 3e4)),
        "srtt_s": float(rng.uniform(0.0, 1e-6) if rng.random() < 0.05
                        else rng.uniform(0.005, 0.5)),
    }


def branches(flow: dict, row: dict, warm: bool, noise_std: float,
             index: int) -> set[str]:
    """Which branches of the scalar decision ``flow`` takes on ``row``."""
    out = set()
    if not flow["use_pacing"]:
        out.add("use_pacing off")
    if len(flow["frames"]) < HISTORY:
        out.add("young stack")
    lat_min = min(flow["lat_min_s"], row["min_rtt_s"])
    if lat_min == math.inf:
        out.add("lat_min inf")
    elif lat_min <= 0:
        out.add("lat_min <= 0")
    if not warm:
        return out | {"cold learner"}
    stream = np.random.default_rng([CFG.seed, 2, index])
    stream.random(flow["skip"])
    if stream.random() < TrainingPolicy.EPSILON_UNIFORM:
        return out | {"epsilon fire"}
    return out | {"policy plus noise" if noise_std > 0 else "noise_std = 0"}


EVERY_BRANCH = {"use_pacing off", "young stack", "lat_min inf",
                "lat_min <= 0", "cold learner", "epsilon fire",
                "policy plus noise", "noise_std = 0"}


def test_columns_equal_the_scalar_loop_on_a_seeded_batch():
    rng = np.random.default_rng([32, 1])
    covered = set()
    for warm, noise_std in ((False, 0.1), (True, 0.0), (True, 0.3)):
        now = float(rng.uniform(1.0, 60.0))
        flows = [random_flow(rng) for _ in range(300)]
        rows = [random_row(rng) for _ in flows]
        covered |= set().union(*(branches(f, r, warm, noise_std, i)
                                 for i, (f, r) in enumerate(zip(flows, rows))))
        check_bitwise(now, flows, rows, warm, noise_std)
    assert covered == EVERY_BRANCH


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 9),
       warm=st.booleans(),
       noise_std=st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
def test_columns_equal_the_scalar_loop(seed, n, warm, noise_std):
    rng = np.random.default_rng(seed)
    flows = [random_flow(rng) for _ in range(n)]
    rows = [random_row(rng) for _ in flows]
    check_bitwise(float(rng.uniform(0.03, 60.0)), flows, rows, warm,
                  noise_std)


def test_an_episode_with_the_deployed_mechanisms_on(monkeypatch):
    """Agents with slow start, probe drain and guards on, under the
    episode's ``TrainingPolicy``: the column pass and the per-object
    leg give the same episode, bit for bit, across the learner's
    warm-up, with CUBIC cross traffic and with one agent on a longer
    MTP, so that some passes find not every agent due."""
    scenario = ScenarioConfig(
        link=replace(LINK, buffer_bdp=3.0),
        flows=(FlowConfig(), FlowConfig(cc="cubic", start_s=0.2),
               FlowConfig(start_s=0.5), FlowConfig(start_s=1.0)),
        duration_s=7.0)
    cfg = replace(CFG, batch_size=16, warmup_transitions=150,
                  update_steps=2, update_interval_s=1.0)

    def deployed(*args, **kwargs):
        return [AstraeaController(
            mtp_s=0.045 if c.slot == 1 else c.mtp_s, policy=c.policy,
            initial_cwnd=c.initial_cwnd, slot=c.slot)
            if isinstance(c, AstraeaController) else c
            for c in build_training_controllers(*args, **kwargs)]

    monkeypatch.setattr(episode, "build_training_controllers", deployed)
    fired = {"guard": 0, "drain": 0, "handover": 0}
    guarded, probe, slow_start = (AstraeaController._guarded,
                                  AstraeaController._probe_action,
                                  AstraeaController._slow_start_step)

    def spy_guard(self, action, stats):
        out = guarded(self, action, stats)
        fired["guard"] += out != action
        return out

    def spy_probe(self, now):
        out = probe(self, now)
        fired["drain"] += out is not None
        return out

    def spy_slow_start(self, stats):
        out = slow_start(self, stats)
        fired["handover"] += out is None
        return out

    decide = AstraeaController.decide_columns.__func__
    calls = []

    def spy_columns(cls, state, columns, policy):
        calls.append(set(state[cls.STATE.index("slot")].tolist()))
        return decide(cls, state, columns, policy)

    monkeypatch.setattr(AstraeaController, "_guarded", spy_guard)
    monkeypatch.setattr(AstraeaController, "_probe_action", spy_probe)
    monkeypatch.setattr(AstraeaController, "_slow_start_step",
                        spy_slow_start)
    monkeypatch.setattr(AstraeaController, "decide_columns",
                        classmethod(spy_columns))

    def leg(batched: bool):
        learner = Learner(cfg)
        stats = run_training_episode(
            learner, scenario, noise_std=0.1,
            initial_cwnds=[20.0, 10.0, 45.0, 8.0], episode=1,
            batched=batched)
        return learner, stats

    reference, ref_stats = leg(False)
    assert not calls and all(fired.values()), fired
    assert reference.warm and ref_stats.update_bursts
    fast, fast_stats = leg(True)
    # Slot 1 decides every 45 ms, slots 0 and 2 every 30 ms.
    assert 0 < calls.count({1.0}) < calls.count({0.0, 2.0})
    assert fast_stats == ref_stats
    want, got = reference.replay.columns(), fast.replay.columns()
    assert want.keys() == got.keys()
    for name in want:
        assert hexed(got[name].ravel()) == hexed(want[name].ravel()), name
    for x, y in zip(reference.td3.actor.parameters(),
                    fast.td3.actor.parameters()):
        assert hexed(x.ravel()) == hexed(y.ravel())


# -- the observer's reductions ----------------------------------------------

class Reference:
    """The per-record world view: latest ``MtpStats`` per flow in
    first-seen order, and each flow's throughput history in a
    ``LocalStateBlock`` (whose Eq. 7 moments define the reward's)."""

    def __init__(self, history: int):
        self.latest: dict[int, MtpStats] = {}
        self.blocks: dict[int, LocalStateBlock] = {}
        self.history = history

    def publish(self, index: list[int], rows: list[MtpStats]) -> None:
        for i, s in zip(index, rows):
            self.latest[i] = s
            self.blocks.setdefault(i, LocalStateBlock(self.history)) \
                .thr_history_pps.append(s.throughput_pps)

    def reward_and_state(self, link: LinkConfig) -> tuple[float, np.ndarray]:
        active = list(self.latest)
        snapshots = []
        for i in active:
            s, block = self.latest[i], self.blocks[i]
            snapshots.append(FlowSnapshot(
                throughput_pps=s.throughput_pps,
                avg_thr_pps=block.avg_throughput_pps(),
                thr_std_pps=block.throughput_std_pps(),
                avg_rtt_s=s.avg_rtt_s, loss_pps=s.loss_pps,
                pacing_pps=s.pacing_pps))
        reward = RewardBlock(link).compute(snapshots).total
        return reward, global_state_vector(
            [self.latest[i] for i in active], link)


def observed_passes(n: int, history: int, seed: int) -> None:
    """Feed an observer of ``n`` agents random passes (random subsets of
    flows due, in random order, some at zero throughput) and compare
    every transition's reward and global state with the reference."""
    cfg = replace(CFG, history_length=history)
    learner = FrozenPolicy(cfg, Learner(cfg).td3.actor.get_state(), True)
    agents, controllers = training_agents(learner, n)
    sunk = []
    observer = Observer(
        learner, LINK, tuple(FlowConfig() for _ in range(n)), controllers,
        do_updates=False, transition_sink=lambda *t: sunk.append(t))
    reference = Reference(history)
    rng = np.random.default_rng(seed)
    local_dim = LOCAL_FEATURES * history
    emitted = 0
    for step in range(1, 40):
        now = step * 0.03
        due = rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist()
        rows = [MtpStats(time_s=now, **random_row(rng)) for _ in due]
        slots = [controllers[i].slot for i in due]
        agents.record(slots, rng.uniform(0.0, 6.0, (len(due), local_dim)),
                      rng.uniform(-1.0, 1.0, len(due)))
        reference.publish(due, rows)
        sunk.clear()
        observer(now, [SimpleNamespace(index=i) for i in due],
                 MtpColumns.of(now, rows))
        reward, g_now = reference.reward_and_state(LINK)
        for _now, _g, _s, _a, r, g, _s2 in sunk:
            assert r.hex() == reward.hex()
            assert hexed(g) == hexed(g_now)
        emitted += len(sunk)
    assert emitted > 0


def test_observer_columns_equal_the_snapshot_reward_and_state():
    for n in (1, 2, 8):
        for seed in range(4):
            observed_passes(n, HISTORY, seed)


def test_observer_reductions_equal_the_column_definitions():
    """The observer's reward and global state, one 1-D reduction per
    row of its latest block, against ``RewardBlock.compute_columns``
    and ``global_state_columns`` on the same columns, on ``float.hex``:
    every active count from 1 to 20 (8, where NumPy's sum turns
    pairwise, and 9 among them), with passes whose every row has zero
    throughput.

    Why per row: a 2-D ``sum(axis=1)`` over the block is not always
    bit-equal to each row's 1-D ``.sum()``.  On a block whose summed
    entries are strided (column-major, or flows-major and transposed),
    NumPy adds them one at a time, while a 1-D sum of eight or more
    entries runs eight pairwise accumulators: over the 1995 8-flow
    passes of one ``train_batched`` repetition, a column-major copy of
    the block summed differently in the last ulp on 1142.
    """
    for n in range(1, 21):
        rng = np.random.default_rng([n, 38])
        learner = FrozenPolicy(CFG, ACTOR_STATE, True)
        agents, controllers = training_agents(learner, n)
        sunk = []
        observer = Observer(
            learner, LINK, tuple(FlowConfig() for _ in range(n)),
            controllers, do_updates=False,
            transition_sink=lambda *t: sunk.append(t))
        reference = Reference(HISTORY)
        block = RewardBlock(LINK)
        local_dim = LOCAL_FEATURES * HISTORY
        checked = starved = 0
        for step in range(1, 25):
            now = step * 0.03
            due = rng.permutation(n)[:int(rng.integers(1, n + 1))].tolist()
            if step % 6 == 0:       # every flow due, none delivering
                due = rng.permutation(n).tolist()
            rows = [random_row(rng) for _ in due]
            if step % 6 == 0:
                for row in rows:
                    row["throughput_pps"] = 0.0
            rows = [MtpStats(time_s=now, **row) for row in rows]
            agents.record([controllers[i].slot for i in due],
                          rng.uniform(0.0, 6.0, (len(due), local_dim)),
                          rng.uniform(-1.0, 1.0, len(due)))
            reference.publish(due, rows)
            sunk.clear()
            observer(now, [SimpleNamespace(index=i) for i in due],
                     MtpColumns.of(now, rows))
            latest = [reference.latest[i] for i in reference.latest]
            moments = [reference.blocks[i] for i in reference.latest]
            thr = np.array([s.throughput_pps for s in latest])
            rtt = np.array([s.avg_rtt_s for s in latest])
            reward = block.compute_columns(
                thr, np.array([b.avg_throughput_pps() for b in moments]),
                np.array([b.throughput_std_pps() for b in moments]), rtt,
                np.array([s.loss_pps for s in latest]),
                np.array([s.pacing_pps for s in latest])).total
            g_now = global_state_columns(
                thr, rtt, np.array([s.cwnd_pkts for s in latest]),
                np.array([s.loss_rate for s in latest]), LINK)
            for _now, _g, _s, _a, r, g, _s2 in sunk:
                assert r.hex() == reward.hex(), (n, step)
                assert hexed(g) == hexed(g_now), (n, step)
            checked += bool(sunk)
            starved += bool(sunk) and not thr.any()
        assert checked and starved


def test_a_long_history_takes_numpys_own_moments():
    # NumPy sums eight or more values pairwise, not front to back.
    observed_passes(3, 9, 0)


def test_observer_moments_equal_the_state_blocks():
    rng = np.random.default_rng([32, 7])
    for _ in range(200):
        n = int(rng.integers(1, 9))
        observer = SimpleNamespace(
            _ring=np.zeros((HISTORY, n)), _ring_len=np.zeros(n, np.intp))
        blocks = [LocalStateBlock(HISTORY) for _ in range(n)]
        for _ in range(int(rng.integers(1, 12))):
            due = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            thr = np.where(rng.random(len(due)) < 0.2, 0.0,
                           rng.uniform(0.0, 1e5, len(due)))
            observer._ring[:-1, due] = observer._ring[1:, due]
            observer._ring[-1, due] = thr
            observer._ring_len[due] = np.minimum(
                observer._ring_len[due] + 1, HISTORY)
            for i, x in zip(due.tolist(), thr.tolist()):
                blocks[i].thr_history_pps.append(x)
        published = np.flatnonzero(observer._ring_len)
        mean, std = Observer._throughput_moments(observer, published)
        blocks = [blocks[i] for i in published.tolist()]
        assert hexed(mean) == hexed(b.avg_throughput_pps() for b in blocks)
        assert hexed(std) == hexed(b.throughput_std_pps() for b in blocks)


def test_a_reset_agents_ring_restarts_with_its_state_block():
    """Eq. 7 reads the agent's own history: a reset out of band empties
    it, whether the agent decides again before the observer's next step
    or not, and the reward stays the one of the agents' state blocks."""
    learner = FrozenPolicy(CFG, ACTOR_STATE, warm=True)
    _, controllers = training_agents(learner, 2)
    sunk = []
    observer = Observer(
        learner, LINK, (FlowConfig(), FlowConfig()), controllers,
        do_updates=False, transition_sink=lambda *t: sunk.append(t))
    rng = np.random.default_rng(11)
    emitted = 0

    def step(now: float, decide: tuple[bool, bool]) -> None:
        nonlocal emitted
        rows = [MtpStats(time_s=now, **random_row(rng)) for _ in range(2)]
        for ctl, s, decides in zip(controllers, rows, decide):
            if decides:
                ctl.on_interval(s)
        sunk.clear()
        observer(now, [SimpleNamespace(index=0), SimpleNamespace(index=1)],
                 MtpColumns.of(now, rows))
        reward = RewardBlock(LINK).compute([FlowSnapshot(
            throughput_pps=s.throughput_pps,
            avg_thr_pps=c.state_block.avg_throughput_pps(),
            thr_std_pps=c.state_block.throughput_std_pps(),
            avg_rtt_s=s.avg_rtt_s, loss_pps=s.loss_pps,
            pacing_pps=s.pacing_pps) for c, s in zip(controllers, rows)
        ]).total
        for transition in sunk:
            assert transition[4].hex() == reward.hex()
        emitted += len(sunk)

    for k in range(4):
        step(0.03 * (k + 1), (True, True))
    controllers[0].reset()              # ... then decides before the step
    step(0.15, (True, True))
    controllers[0].reset()              # ... and is observed without state
    step(0.18, (False, True))
    assert len(observer._pending) and not observer._pending[0]
    step(0.21, (True, True))
    step(0.24, (True, True))
    assert emitted >= 8
