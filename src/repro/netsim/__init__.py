"""Network emulation substrate: fluid and packet-level simulators.

This package replaces the paper's Mahimahi/Pantheon-tunnel emulation stack
(see DESIGN.md §2 for the substitution argument).
"""

from .faults import (
    BandwidthFlap,
    Blackout,
    DelaySpike,
    FaultEvent,
    FaultSchedule,
    LossBurst,
    ReorderWindow,
)
from .fluid import FluidNetwork, INITIAL_CWND_PKTS, MIN_CWND_PKTS
from .flowgen import (
    heterogeneous_rtt_flows,
    poisson_flows,
    randomized_training_flows,
    simultaneous_flows,
    staggered_flows,
)
from .packet import PacketNetwork
from .qdisc import CoDel, DropTail, QueueDiscipline, Red, create_qdisc
from .stats import MtpStats, TickSample
from .topology import TopologyConfig, parking_lot, parking_lot_ideal_shares
from .traces import (
    CapacityTrace,
    ConstantTrace,
    DiurnalTrace,
    LteTrace,
    StepTrace,
    WanTrace,
    WifiTrace,
    create_trace,
)

__all__ = [
    "FluidNetwork",
    "PacketNetwork",
    "FaultEvent",
    "FaultSchedule",
    "Blackout",
    "BandwidthFlap",
    "LossBurst",
    "DelaySpike",
    "ReorderWindow",
    "QueueDiscipline",
    "DropTail",
    "Red",
    "CoDel",
    "create_qdisc",
    "MtpStats",
    "TickSample",
    "CapacityTrace",
    "ConstantTrace",
    "StepTrace",
    "LteTrace",
    "WanTrace",
    "WifiTrace",
    "DiurnalTrace",
    "create_trace",
    "TopologyConfig",
    "parking_lot",
    "parking_lot_ideal_shares",
    "staggered_flows",
    "simultaneous_flows",
    "heterogeneous_rtt_flows",
    "poisson_flows",
    "randomized_training_flows",
    "INITIAL_CWND_PKTS",
    "MIN_CWND_PKTS",
]
