"""Packet-engine scenario runner.

:func:`run_scenario_packet` executes a :class:`~repro.config.ScenarioConfig`
on the discrete-event :class:`~repro.netsim.packet.PacketNetwork` with real
congestion controllers attached, producing the same
:class:`~repro.env.multiflow.ScenarioResult` record the fluid runner emits —
so every metric (summaries, convergence, recovery) works unchanged on
either engine.  The robustness benchmark uses it to cross-check the fault
layer: the same scheme under the same :class:`FaultSchedule` must tell the
same macro story on both substrates.

The packet engine registers all flows up front and runs a single event
loop; per-flow ``start_s``/``duration_s`` windows (staggered arrivals,
incast bursts) map onto the engine's send-window guards.  Traced
(variable-capacity) scenarios stay on the fluid engine.
"""

from __future__ import annotations

from ..cc.base import CongestionController
from ..config import ScenarioConfig
from ..errors import SimulationError
from ..netsim.packet import PacketNetwork
from ..netsim.stats import IntervalWindow
from .multiflow import FlowLog, ScenarioResult, decide, flow_controller


class _PacketFlowDriver:
    """Adapts the engine's per-MTP callback to the controller contract.

    The engine fires once per ``mtp_s`` with raw window counters; the
    driver folds them into an :class:`~repro.netsim.stats.IntervalWindow`
    until the controller's own monitoring interval expires (per-RTT
    schemes stretch it), then decides, applies and logs one record —
    what :class:`ScenarioDriver`'s pass does per flow on the fluid engine.
    """

    def __init__(self, index: int, controller: CongestionController,
                 base_rtt_s: float, mtp_s: float, log: FlowLog,
                 start_s: float = 0.0):
        self._index = index
        self._controller = controller
        self._mtp_s = mtp_s
        self._log = log
        self._window = IntervalWindow(base_rtt_s, start_s)
        self._net: PacketNetwork | None = None
        self._fid = -1
        self._pacing_pps: float | None = None
        self._next_ctrl_s = start_s + mtp_s

    def bind(self, net: PacketNetwork, fid: int) -> None:
        self._net = net
        self._fid = fid

    def __call__(self, raw: dict) -> None:
        now = raw["time_s"]
        window = self._window
        delivered = raw["throughput_pps"] * raw["duration_s"]
        window.add(raw["sent_pkts"], delivered, raw["lost_pkts"])
        if delivered > 0:
            window.observe_rtt(raw["avg_rtt_s"], delivered)
        if now + 1e-12 < self._next_ctrl_s:
            return None
        stats = window.close(now, raw["pkts_in_flight"], raw["cwnd_pkts"],
                             self._pacing_pps)
        decision = decide(self._controller, stats, self._index)
        self._pacing_pps = decision.pacing_pps
        assert self._net is not None
        self._net.set_cwnd(self._fid, decision.cwnd_pkts,
                           decision.pacing_pps)
        self._log.record(now, stats, decision.cwnd_pkts)
        self._next_ctrl_s = now + max(
            self._controller.interval_s(stats.srtt_s), self._mtp_s)
        return None


def run_scenario_packet(scenario: ScenarioConfig,
                        controllers: list[CongestionController | None]
                        | None = None) -> ScenarioResult:
    """Run a single-bottleneck scenario on the packet engine.

    ``controllers`` optionally injects pre-built instances, index-aligned
    with ``scenario.flows`` (``None`` entries are created from the
    registry), matching :func:`~repro.env.multiflow.run_scenario`.
    """
    if scenario.trace is not None:
        raise SimulationError(
            "the packet runner does not support capacity traces; "
            "run traced scenarios on the fluid engine")
    net = PacketNetwork(scenario.link, seed=scenario.seed,
                        mtp_s=scenario.mtp_s, faults=scenario.faults)
    logs = []
    for i, cfg in enumerate(scenario.flows):
        controller = flow_controller(controllers, i, cfg)
        base_rtt_s = scenario.link.rtt_s + cfg.extra_rtt_ms / 1e3
        stop_s = min(cfg.end_s(), scenario.duration_s)
        log = FlowLog(cc_name=cfg.cc, start_s=cfg.start_s,
                      end_s=stop_s)
        driver = _PacketFlowDriver(i, controller, base_rtt_s,
                                   scenario.mtp_s, log, start_s=cfg.start_s)
        fid = net.add_flow(base_rtt_s=base_rtt_s,
                           cwnd=controller.initial_cwnd, on_mtp=driver,
                           start_s=cfg.start_s, stop_s=stop_s)
        driver.bind(net, fid)
        logs.append(log)
    net.run(scenario.duration_s)
    return ScenarioResult(
        flows=logs,
        duration_s=scenario.duration_s,
        bottleneck_mbps=scenario.link.bandwidth_mbps,
        base_rtt_s=scenario.link.rtt_s,
    )
