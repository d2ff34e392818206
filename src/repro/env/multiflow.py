"""Multi-flow scenario runner (§3.2 "Runtime" + "Flow generator").

:class:`ScenarioDriver` is the one control loop of all three engines:
it instantiates one congestion controller per flow, starts and stops
flows at their configured times, and drives every controller at its own
monitoring cadence.  :func:`run_scenario` runs a
:class:`~repro.config.ScenarioConfig` on the fluid engine,
:func:`run_scenario_packet` on the packet engine, and
:func:`run_topology` over a multi-bottleneck
:class:`~repro.netsim.topology.TopologyConfig`.  The result records one
row per (flow, monitoring interval) which all metrics and benchmarks
consume.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..cc import create
from ..cc.base import ColumnController, CongestionController, rows_where
from ..config import FlowConfig, ScenarioConfig
from ..errors import ConfigError, SimulationError
from ..netsim import FluidNetwork, PacketNetwork
from ..netsim.stats import MtpColumns, MtpStats
from ..netsim.topology import TopologyConfig
from ..netsim.traces import create_trace
from ..units import mbps_to_pps

#: Scheme names that model unresponsive load (they never react to
#: congestion) — excluded from :meth:`ScenarioResult.foreground_indices`.
UNRESPONSIVE_CCS = frozenset({"constant-rate"})


@dataclass
class FlowLog:
    """Per-monitoring-interval records of one flow."""

    cc_name: str
    start_s: float
    end_s: float
    times: list[float] = field(default_factory=list)
    throughput_mbps: list[float] = field(default_factory=list)
    rtt_s: list[float] = field(default_factory=list)
    loss_rate: list[float] = field(default_factory=list)
    cwnd_pkts: list[float] = field(default_factory=list)
    send_rate_mbps: list[float] = field(default_factory=list)

    def record(self, now: float, stats: MtpStats, cwnd_pkts: float) -> None:
        """Log one decision: the interval's stats and the window set."""
        self.times.append(now)
        self.throughput_mbps.append(stats.throughput_mbps)
        self.rtt_s.append(stats.avg_rtt_s)
        self.loss_rate.append(stats.loss_rate)
        self.cwnd_pkts.append(cwnd_pkts)
        self.send_rate_mbps.append(
            cwnd_pkts / max(stats.srtt_s, 1e-6) / mbps_to_pps(1.0))

    def as_arrays(self) -> dict[str, np.ndarray]:
        """All series as numpy arrays keyed by field name."""
        return {
            "times": np.asarray(self.times),
            "throughput_mbps": np.asarray(self.throughput_mbps),
            "rtt_s": np.asarray(self.rtt_s),
            "loss_rate": np.asarray(self.loss_rate),
            "cwnd_pkts": np.asarray(self.cwnd_pkts),
            "send_rate_mbps": np.asarray(self.send_rate_mbps),
        }


@dataclass
class ScenarioResult:
    """Everything a scenario run produced."""

    flows: list[FlowLog]
    duration_s: float
    bottleneck_mbps: float
    base_rtt_s: float

    # ------------------------------------------------------------------

    def throughput_matrix(self, grid_s: float = 0.1
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resample all flows onto a common time grid.

        Returns ``(times, matrix, active)`` where ``matrix[i, t]`` is flow
        ``i``'s throughput (Mbps) in the grid slot around ``times[t]`` and
        ``active[i, t]`` marks the slots in which the flow was running.
        """
        if grid_s <= 0:
            raise SimulationError("grid must be positive")
        n_bins = max(int(np.ceil(self.duration_s / grid_s)), 1)
        times = (np.arange(n_bins) + 0.5) * grid_s
        matrix = np.zeros((len(self.flows), n_bins))
        counts = np.zeros((len(self.flows), n_bins))
        active = np.zeros((len(self.flows), n_bins), dtype=bool)
        for i, flow in enumerate(self.flows):
            active[i] = (times >= flow.start_s) & (times < flow.end_s)
            idx = np.minimum((np.asarray(flow.times) / grid_s).astype(int),
                             n_bins - 1)
            np.add.at(matrix[i], idx, np.asarray(flow.throughput_mbps))
            np.add.at(counts[i], idx, 1.0)
            filled = counts[i] > 0
            matrix[i, filled] /= counts[i, filled]
            # Carry the last sample forward through empty slots while active.
            last = 0.0
            for t in range(n_bins):
                if filled[t]:
                    last = matrix[i, t]
                elif active[i, t]:
                    matrix[i, t] = last
        return times, matrix, active

    def foreground_indices(self) -> tuple[int, ...]:
        """Indices of the flows under evaluation.

        Unresponsive cross-traffic (see :data:`UNRESPONSIVE_CCS`) is
        load, not a fairness participant — fairness metrics should not
        reward or punish a scheme for the blaster's fixed share.
        """
        return tuple(i for i, f in enumerate(self.flows)
                     if f.cc_name not in UNRESPONSIVE_CCS)

    def jain_series(self, grid_s: float = 0.1,
                    indices: tuple[int, ...] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Jain fairness index over time, at slots with >= 2 active flows.

        ``indices`` restricts the index to a subset of flows (e.g.
        :meth:`foreground_indices` to exclude unresponsive cross
        traffic); by default all flows participate.
        """
        from ..metrics.fairness import jain_index

        times, matrix, active = self.throughput_matrix(grid_s)
        if indices is not None:
            sel = np.asarray(indices, dtype=int)
            matrix, active = matrix[sel], active[sel]
        out_t, out_j = [], []
        for t in range(len(times)):
            live = active[:, t]
            if live.sum() >= 2:
                out_t.append(times[t])
                out_j.append(jain_index(matrix[live, t]))
        return np.asarray(out_t), np.asarray(out_j)

    def mean_jain(self, grid_s: float = 0.1, warmup_s: float = 2.0,
                  indices: tuple[int, ...] | None = None) -> float:
        """Average Jain index over all multi-flow slots after a warmup."""
        t, j = self.jain_series(grid_s, indices=indices)
        if len(j) == 0:
            return float("nan")
        keep = t >= (t[0] + warmup_s)
        return float(np.mean(j[keep])) if keep.any() else float(np.mean(j))

    def flow_mean_throughput(self, i: int, skip_s: float = 0.0) -> float:
        """Mean throughput (Mbps) of flow ``i`` after ``skip_s`` of its life."""
        flow = self.flows[i]
        times = np.asarray(flow.times)
        thr = np.asarray(flow.throughput_mbps)
        keep = times >= flow.start_s + skip_s
        return float(np.mean(thr[keep])) if keep.any() else 0.0

    def utilization(self, skip_s: float = 2.0) -> float:
        """Aggregate delivered throughput over capacity, after a warmup."""
        times, matrix, active = self.throughput_matrix()
        total = (matrix * active).sum(axis=0)
        keep = (times >= skip_s) & (active.any(axis=0))
        if not keep.any():
            return 0.0
        return float(np.mean(total[keep]) / self.bottleneck_mbps)

    def mean_rtt_s(self, skip_s: float = 2.0) -> float:
        """Mean RTT across flows and time, after a warmup."""
        values = []
        for flow in self.flows:
            t = np.asarray(flow.times)
            r = np.asarray(flow.rtt_s)
            keep = t >= flow.start_s + skip_s
            if keep.any():
                values.append(r[keep])
        if not values:
            return 0.0
        return float(np.mean(np.concatenate(values)))

    def mean_loss_rate(self, skip_s: float = 2.0) -> float:
        """Mean per-interval loss rate across flows, after a warmup."""
        values = []
        for flow in self.flows:
            t = np.asarray(flow.times)
            l = np.asarray(flow.loss_rate)
            keep = t >= flow.start_s + skip_s
            if keep.any():
                values.append(l[keep])
        if not values:
            return 0.0
        return float(np.mean(np.concatenate(values)))


def flow_controller(controllers: list[CongestionController | None] | None,
                    i: int, cfg: FlowConfig) -> CongestionController:
    """Flow ``i``'s controller, reset for a new connection: the injected
    ``controllers[i]`` when there is one, else a new ``cfg.cc``."""
    controller = controllers[i] if controllers is not None else None
    if controller is None:
        controller = create(cfg.cc, **cfg.cc_kwargs)
    controller.reset()
    return controller


def _column_kind(controller: CongestionController):
    """The class whose ``decide_columns`` may decide for ``controller``,
    or ``None``.

    The controller's ``column_key`` must not be ``None`` (a learned
    controller without a policy says so), and the class that defines
    ``decide_columns`` must also own its ``on_interval`` (and not see
    ``interval_s`` overridden below it), so a subclass or test double
    that overrides either keeps the per-object call.
    """
    if not isinstance(controller, ColumnController) \
            or controller.column_key() is None:
        return None
    kind = type(controller)
    owner = next(k for k in kind.__mro__ if "decide_columns" in vars(k))
    if vars(owner).get("on_interval") is kind.on_interval \
            and kind.interval_s is owner.interval_s:
        return kind
    return None


@dataclass
class _RunningFlow:
    index: int
    engine_id: int
    controller: CongestionController
    end_s: float
    #: Position in ``ScenarioDriver._running`` and in the driver's
    #: per-flow vectors; renumbered on flow churn.
    pos: int = -1


#: ``FlowLog`` series in the order of a log block's columns after the
#: flow indices.
_LOG_SERIES = ("times", "throughput_mbps", "rtt_s", "loss_rate",
               "cwnd_pkts", "send_rate_mbps")


class ScenarioDriver:
    """Steppable scenario executor over any of the three engines.

    :meth:`step_block` advances the engine to its next decision instant
    or flow event and runs every controller whose monitoring interval
    expired there; :meth:`run` steps to completion.  The runners of all
    three engines, the fleet shards and training episodes run one (the
    training observer is the ``on_step`` hook).

    The engine supplies ``now``, its decision granularity ``tick_s``,
    ``add_flows`` / ``remove_flows`` / ``slots`` / ``collect_stats`` /
    ``set_cwnds``, ``advance_to(t)``, ``instants(slots)`` (which flows
    stand at a decision instant) and ``windowed`` (whether it keeps
    flows' sending windows itself).  ``flow_spec(i)`` is flow ``i``'s
    spec less what the driver adds: the initial window, and on a
    windowed engine ``start_s`` / ``stop_s``.
    """

    #: Per-flow vectors in ``_running`` order (besides ``_state`` and the
    #: engine's ``_slots``): next controller deadline, scenario index,
    #: the controller's MTP, whether its ``interval_s`` follows the srtt,
    #: and its column kind (an index into ``_column_kinds``, -1 for the
    #: per-object call).
    _PER_FLOW = ("_next_ctrl", "_index", "_mtp", "_per_rtt", "_kind")

    def __init__(self, engine, scenario_flows, flow_spec, duration_s: float,
                 controllers, bottleneck_mbps: float, base_rtt_s: float,
                 on_step=None, align_intervals: bool = False,
                 log: bool = True):
        if controllers is not None:
            first: dict[int, int] = {}
            for i, controller in enumerate(controllers):
                if controller is None:
                    continue
                j = first.setdefault(id(controller), i)
                if j != i:
                    raise ConfigError(
                        f"flows {j} and {i} share one controller object; "
                        "give every flow its own")
        self._engine = engine
        self._flows = scenario_flows
        self._flow_spec = flow_spec
        self.duration_s = duration_s
        self._tick_s = engine.tick_s
        self._controllers = controllers
        self._on_step = on_step
        self._align_intervals = align_intervals
        self._logs = [FlowLog(cc_name=f.cc, start_s=f.start_s,
                              end_s=min(f.end_s(), duration_s))
                      for f in scenario_flows]
        #: One block of columns per pass — flow indices, then the
        #: ``_LOG_SERIES`` — flushed into ``_logs`` by :meth:`result`;
        #: ``None`` for a driver whose caller never reads the logs.
        self._log_blocks: list[tuple] | None = [] if log else None
        # A windowed engine gets every flow at once, with its window.
        self._windowed = engine.windowed
        self._start_at = [0.0 if self._windowed else f.start_s
                          for f in scenario_flows]
        self._pending = deque(sorted(range(len(scenario_flows)),
                                     key=self._start_at.__getitem__))
        self._running: list[_RunningFlow] = []
        self._next_ctrl = np.zeros(0)
        self._index = np.zeros(0, dtype=np.intp)
        self._mtp = np.zeros(0)
        self._per_rtt = np.zeros(0, dtype=bool)
        self._kind = np.zeros(0, dtype=np.intp)
        #: ``(class, policy, state rows)`` per column kind, and the kinds'
        #: codes by ``column_key``.
        self._column_kinds: list[tuple[type, object, int]] = []
        self._kind_codes: dict[tuple, int] = {}
        #: Column flows' state columns (as many rows as the largest kind's).
        self._state = np.zeros((0, 0))
        self._slots = np.zeros(0, dtype=np.intp)
        self._next_end = np.inf
        self._bottleneck_mbps = bottleneck_mbps
        self._base_rtt_s = base_rtt_s
        self.done = False

    @property
    def now(self) -> float:
        return self._engine.now

    @property
    def engine(self):
        """The underlying network engine (read-only observer access)."""
        return self._engine

    @property
    def running_flows(self) -> list[_RunningFlow]:
        """Currently active flows (engine id + scenario index pairs)."""
        return list(self._running)

    def _next_deadlines(self, now: float, interval_s, grid_s):
        """The next controller deadlines after ``now``, for columns (or
        scalars) of controller intervals and MTPs.

        With ``align_intervals`` a deadline snaps up to the next
        multiple of the controller's MTP, so every same-cadence flow of
        the scenario decides in the *same* pass — the property the
        batched training runner needs to stack whole-pool action
        selection into one matmul.  Flows started at staggered offsets
        otherwise keep pairwise-irrational deadlines forever.
        """
        t = now + np.maximum(interval_s, self._tick_s)
        if not self._align_intervals:
            return t
        return np.maximum(np.ceil(t / grid_s - 1e-9), 1.0) * grid_s

    def _start_due_flows(self, now: float) -> None:
        # Gather every due flow first and register the whole batch with
        # one ``add_flows`` call: simultaneous starts (a fleet shard
        # starts all its flows at t=0) would otherwise rebuild the
        # engine's SoA state once per flow — O(n^2) for an n-flow shard.
        due = []
        while self._pending and \
                self._start_at[self._pending[0]] <= now + 1e-12:
            i = self._pending.popleft()
            cfg = self._flows[i]
            due.append((i, cfg, flow_controller(self._controllers, i, cfg)))
        if not due:
            return
        specs = []
        for i, cfg, controller in due:
            spec = self._flow_spec(i)
            spec["cwnd_pkts"] = controller.initial_cwnd
            if self._windowed:
                spec.update(start_s=cfg.start_s, stop_s=self._logs[i].end_s)
            specs.append(spec)
        fids = self._engine.add_flows(specs)
        fresh = [_RunningFlow(
            index=i, engine_id=fid, controller=controller,
            end_s=np.inf if self._windowed else self._logs[i].end_s,
        ) for fid, (i, _cfg, controller) in zip(fids, due)]
        self._running += fresh
        self._renumber(np.arange(len(self._next_ctrl)), fresh, now)

    def _column_code(self, controller: CongestionController) -> int:
        """``controller``'s index in ``_column_kinds`` (registered on
        first sight), or -1 for the per-object call."""
        kind = _column_kind(controller)
        if kind is None:
            return -1
        key = controller.column_key()
        code = self._kind_codes.get(key)
        if code is None:
            code = self._kind_codes[key] = len(self._column_kinds)
            rows = controller.state_rows()
            self._column_kinds.append((kind, controller.policy, rows))
            grow = rows - len(self._state)
            if grow > 0:
                self._state = np.concatenate(
                    [self._state, np.zeros((grow, self._state.shape[1]))])
        return code

    def _renumber(self, keep: np.ndarray, fresh=(), now: float = 0.0
                  ) -> None:
        """Realign the per-flow vectors with ``_running`` after churn.

        The entries at positions ``keep`` stay; the flows of ``fresh``,
        started at ``now`` and appended to ``_running``, get theirs: the
        first deadline one MTP out and, for a column flow, the state of
        its reset controller.
        """
        kinds = [self._column_code(rf.controller) for rf in fresh]
        state = np.zeros((len(self._state), len(fresh)))
        for j, (rf, code) in enumerate(zip(fresh, kinds)):
            if code >= 0:
                values = rf.controller.read_state()
                state[:len(values), j] = values
        mtp = np.array([rf.controller.mtp_s for rf in fresh], dtype=float)
        added = {
            "_next_ctrl": self._next_deadlines(now, mtp, mtp),
            "_index": np.array([rf.index for rf in fresh], dtype=np.intp),
            "_mtp": mtp,
            "_per_rtt": np.array(
                [type(rf.controller).interval_s
                 is not CongestionController.interval_s for rf in fresh],
                dtype=bool),
            "_kind": np.array(kinds, dtype=np.intp),
        }
        for name in self._PER_FLOW:
            setattr(self, name, np.concatenate(
                [getattr(self, name)[keep], added[name]]))
        self._state = np.concatenate([self._state[:, keep], state], axis=1)
        running = self._running
        for pos, rf in enumerate(running):
            rf.pos = pos
        self._slots = self._engine.slots([rf.engine_id for rf in running])
        self._next_end = min((rf.end_s for rf in running), default=np.inf)

    def _write_back(self, flows) -> None:
        """Hand every column flow among ``flows`` its state back."""
        for rf in flows:
            code = self._kind[rf.pos]
            if code >= 0:
                rows = self._column_kinds[code][2]
                rf.controller.write_state(self._state[:rows, rf.pos])

    def _begin_step(self) -> bool:
        """Shared per-step preamble: flow churn and termination checks."""
        if self.done:
            return False
        engine = self._engine
        now = engine.now
        if now >= self.duration_s:
            self.done = True
            return False
        self._start_due_flows(now)
        if self._next_end <= now:
            # One engine rebuild for every flow ending on this tick.
            ended = [rf for rf in self._running if rf.end_s <= now]
            self._write_back(ended)
            engine.remove_flows([rf.engine_id for rf in ended])
            self._running = [rf for rf in self._running if rf.end_s > now]
            self._renumber(np.array([rf.pos for rf in self._running],
                                    dtype=np.intp))
        if not self._running and not self._pending:
            self.done = True
            return False
        return True

    def _advance_to_next_event(self) -> None:
        """Advance the engine towards the nearest controller deadline
        still ahead, flow start/stop, or the scenario end (a deadline
        already passed is a packet flow's, waiting for its MTP event)."""
        engine = self._engine
        next_ctrl = self._next_ctrl
        horizon = min(self.duration_s, self._next_end,
                      next_ctrl.min(initial=np.inf,
                                    where=next_ctrl > engine.now))
        if self._pending:
            horizon = min(horizon, self._start_at[self._pending[0]])
        engine.advance_to(horizon)

    def step_block(self) -> bool:
        """Advance to the next controller/flow event and run the pass;
        returns False once the scenario finished.

        Between MTP decisions this lets the fluid engine run its
        vectorized multi-tick kernel (see :meth:`_advance_to_next_event`).
        """
        if not self._begin_step():
            return False
        self._advance_to_next_event()
        self._controller_pass(self._engine.now)
        return True

    def run(self) -> ScenarioResult:
        """Step to completion and return the logs."""
        while self.step_block():
            pass
        return self.result()

    def _controller_pass(self, now: float) -> None:
        """Run every controller whose monitoring interval has expired,
        then the ``on_step`` hook.

        The hook fires on every step, one with no due flow included, as
        ``on_step(now, flows, columns)`` with the due flows in
        ``_running`` order and their stats as :class:`MtpColumns`
        (``None`` when no flow is due).  A training observer gives the
        learner its update burst there, and a burst must land at the
        same engine instant whether or not a flow happened to decide at
        it.
        """
        pos, columns = self.collect_due(now)
        if len(pos):
            self._decide_and_apply(now, pos, columns)
        if self._on_step is not None:
            running = self._running
            self._on_step(now, [running[p] for p in pos.tolist()], columns)

    def _decide_and_apply(self, now: float, pos: np.ndarray,
                          columns: MtpColumns) -> None:
        """The decisions of the flows at ``_running`` positions ``pos``,
        one ``set_cwnds``, one log block (if the driver keeps logs) and
        the next deadlines as a column — the same code for one due flow
        or 400.

        Column flows decide first: one ``decide_columns`` per column
        kind over its flows' state columns, with the kind's policy (an
        Astraea kind runs its bundle's one stacked forward in there).
        The others take their own ``on_interval``.  The controllers share
        no state, so the order of the two makes no difference, and each
        decision is bitwise the flow's ``on_interval``.  ``MtpStats``
        rows are built only for the per-object flows.

        Applying is all-or-nothing and happens before the hook fires:
        windows never alter stats already collected, so setting them
        together equals setting them flow by flow, and the hook sees the
        pass's decisions already in force.
        """
        n = len(pos)
        running = self._running
        # With every running flow due, index the per-flow vectors by a
        # slice: views, and the state is updated where it lives.
        every = slice(None) if n == len(running) else pos
        kind = self._kind[every]
        cwnds = np.empty(n)
        pacing = None
        for code, (cls, policy, rows) in enumerate(self._column_kinds):
            sel = rows_where(kind == code)
            if sel is not None:
                at = every if isinstance(sel, slice) else pos[sel]
                state = self._state[:rows, at]
                cwnds[sel], paced = cls.decide_columns(
                    state,
                    columns if isinstance(sel, slice) else columns.take(sel),
                    policy)
                if not isinstance(at, slice):
                    self._state[:rows, at] = state
                if paced is not None and isinstance(sel, slice):
                    pacing = paced      # every due flow is of this kind
                elif paced is not None:
                    if pacing is None:
                        pacing = np.full(n, np.inf)
                    pacing[sel] = paced

        obj = kind < 0
        if np.count_nonzero(obj):
            obj = np.flatnonzero(obj)
            decisions = [
                running[p].controller.on_interval(stats)
                for p, stats in zip(
                    pos[obj].tolist(),
                    (columns if len(obj) == n
                     else columns.take(obj)).rows())]
            cwnds[obj] = [d.cwnd_pkts for d in decisions]
            if pacing is None:
                pacing = np.full(n, np.inf)
            pacing[obj] = [np.inf if d.pacing_pps is None else d.pacing_pps
                           for d in decisions]

        self._engine.set_cwnds(self._slots[every], cwnds, pacing)
        if self._log_blocks is not None:
            self._log_blocks.append((
                self._index[every], np.full(n, now), columns.throughput_mbps,
                columns.avg_rtt_s, columns.loss_rate, cwnds,
                cwnds / np.maximum(columns.srtt_s, 1e-6) / mbps_to_pps(1.0)))
        interval = mtp = self._mtp[every]
        per_rtt = self._per_rtt[every]
        if np.count_nonzero(per_rtt):
            interval = mtp.copy()
            for j in np.flatnonzero(per_rtt).tolist():
                interval[j] = running[pos[j]].controller.interval_s(
                    columns.srtt_s[j].item())
        self._next_ctrl[every] = self._next_deadlines(now, interval, mtp)

    def collect_due(self, now: float
                    ) -> tuple[np.ndarray, MtpColumns | None]:
        """Stats for every flow whose monitoring interval has expired.

        A flow is due once its deadline is not after the decision
        instant it stands at (``engine.instants``).  One columnar collect
        over the due flows' engine slots, no controller call.  Returns
        the due flows' positions in ``_running`` (ascending) and their
        stats as columns (``None`` when no flow is due).
        """
        pos = np.flatnonzero(
            self._next_ctrl <= self._engine.instants(self._slots) + 1e-12)
        if not len(pos):
            return pos, None
        return pos, self._engine.collect_stats(self._slots[pos], now)

    def _flush_log(self) -> None:
        """Move the pending log blocks into the ``FlowLog``\\ s: one stable
        sort by flow index keeps every flow's rows in pass order."""
        blocks = self._log_blocks
        if not blocks:
            return
        self._log_blocks = []
        index = np.concatenate([b[0] for b in blocks])
        order = np.argsort(index, kind="stable")
        index = index[order]
        cuts = (np.flatnonzero(np.diff(index)) + 1).tolist()
        bounds = list(zip([0] + cuts, cuts + [len(index)]))
        logs = [self._logs[i] for i in index[[0] + cuts].tolist()]
        for k, name in enumerate(_LOG_SERIES, start=1):
            values = np.concatenate([b[k] for b in blocks])[order].tolist()
            for log, (lo, hi) in zip(logs, bounds):
                getattr(log, name).extend(values[lo:hi])

    def finish_flow(self, rf: _RunningFlow, stats, decision) -> None:
        """Apply one controller decision collected by :meth:`step_collect`:
        set the window, log the interval (if the driver keeps logs) and
        schedule the flow's next deadline.  With :meth:`step_collect`
        this is the one-flow-at-a-time reference the batched pass is
        tested against; it fires no hook.  The caller decided with the
        object, so a column flow's state columns are reloaded from it."""
        self._engine.set_cwnd(rf.engine_id, decision.cwnd_pkts,
                              decision.pacing_pps)
        now = self._engine.now
        if self._log_blocks is not None:
            self._logs[rf.index].record(now, stats, decision.cwnd_pkts)
        self._next_ctrl[rf.pos] = self._next_deadlines(
            now, rf.controller.interval_s(stats.srtt_s), rf.controller.mtp_s)
        if self._kind[rf.pos] >= 0:
            values = rf.controller.read_state()
            self._state[:len(values), rf.pos] = values

    def step_collect(self) -> list | None:
        """First half of the per-flow reference step.

        Advances the engine to the next controller/flow event (exactly
        like :meth:`step_block`) and returns the due ``(running_flow,
        stats)`` pairs *without* invoking any controller; the caller
        decides and hands each decision back through :meth:`finish_flow`.
        Returns ``None`` once the scenario has finished.
        """
        if not self._begin_step():
            return None
        self._advance_to_next_event()
        pos, columns = self.collect_due(self._engine.now)
        running = self._running
        return [(running[p], stats) for p, stats in
                zip(pos.tolist(), columns.rows())] if len(pos) else []

    def result(self) -> ScenarioResult:
        """Logs collected so far (complete once :meth:`step_block`
        returns False).  Hands every running column flow its state back,
        so the controller objects are current too."""
        self._write_back(self._running)
        self._flush_log()
        return ScenarioResult(
            flows=self._logs,
            duration_s=self.duration_s,
            bottleneck_mbps=self._bottleneck_mbps,
            base_rtt_s=self._base_rtt_s,
        )


def build_driver(scenario: ScenarioConfig,
                 controllers: list[CongestionController | None] | None = None,
                 on_step=None, align_intervals: bool = False,
                 engine=None, log: bool = True) -> ScenarioDriver:
    """Create a steppable driver for a single-bottleneck scenario.

    ``engine`` defaults to a :class:`FluidNetwork` for the scenario.
    ``log=False`` keeps no per-pass logs (for callers that never read
    :meth:`ScenarioDriver.result`, whose flow series then stay empty).
    """
    if engine is None:
        traces = None
        if scenario.trace is not None:
            traces = {scenario.link.name: create_trace(
                scenario.trace, **scenario.trace_kwargs)}
        engine = FluidNetwork(scenario.link, traces=traces,
                              seed=scenario.seed, faults=scenario.faults,
                              tick_s=scenario.tick_s)

    def flow_spec(i: int) -> dict:
        return {"base_rtt_s":
                scenario.link.rtt_s + scenario.flows[i].extra_rtt_ms / 1e3}

    return ScenarioDriver(
        engine, scenario.flows, flow_spec, scenario.duration_s, controllers,
        bottleneck_mbps=scenario.link.bandwidth_mbps,
        base_rtt_s=scenario.link.rtt_s,
        on_step=on_step,
        align_intervals=align_intervals,
        log=log,
    )


def run_scenario(scenario: ScenarioConfig,
                 controllers: list[CongestionController | None] | None = None,
                 on_step=None) -> ScenarioResult:
    """Run a single-bottleneck scenario and return its logs.

    ``controllers`` optionally injects pre-built controller instances
    (index-aligned with ``scenario.flows``); entries left ``None`` are
    created from the flow's registered scheme name.  ``on_step`` is an
    optional callback ``(now, flows, columns)`` invoked after every
    engine-advancing step with the flows that decided in it (running
    records with ``index`` and ``controller``, possibly none) and their
    stats as :class:`~repro.netsim.stats.MtpColumns` (``None`` when no
    flow decided) — the training loop uses it to harvest transitions.
    """
    return build_driver(scenario, controllers=controllers,
                        on_step=on_step).run()


def run_scenario_packet(scenario: ScenarioConfig,
                        controllers: list[CongestionController | None]
                        | None = None) -> ScenarioResult:
    """:func:`run_scenario` on the packet engine: each flow decides at
    its own MTP events, the last at or after its stop.  Traced
    (variable-capacity) scenarios stay on the fluid engine."""
    if scenario.trace is not None:
        raise SimulationError(
            "the packet runner does not support capacity traces; "
            "run traced scenarios on the fluid engine")
    engine = PacketNetwork(scenario.link, seed=scenario.seed,
                           mtp_s=scenario.mtp_s, faults=scenario.faults)
    return build_driver(scenario, controllers, engine=engine).run()


def run_topology(topology: TopologyConfig,
                 controllers: list[CongestionController | None] | None = None,
                 ) -> ScenarioResult:
    """Run a multi-bottleneck scenario described by a TopologyConfig."""
    first_link = topology.links[0]

    def flow_spec(i: int) -> dict:
        return {"base_rtt_s":
                first_link.rtt_s + topology.flows[i].extra_rtt_ms / 1e3,
                "path": list(topology.paths[i])}

    return ScenarioDriver(
        FluidNetwork(list(topology.links), seed=topology.seed,
                     tick_s=topology.tick_s),
        topology.flows, flow_spec, topology.duration_s, controllers,
        bottleneck_mbps=first_link.bandwidth_mbps,
        base_rtt_s=first_link.rtt_s,
    ).run()
