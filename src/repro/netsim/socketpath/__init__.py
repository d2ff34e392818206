"""Loopback-UDP datapath: the third engine (fluid / packet / socket).

The same :class:`~repro.cc.base.CongestionController` interface that
drives the simulators drives a real sender/receiver pair over localhost
UDP sockets here.  :mod:`.transport` implements the reliable-UDP segment
layer (cumulative ACK + SACK, RFC 6298-style RTO), :mod:`.impair` the
deterministic in-process impairment proxy honouring
:class:`~repro.netsim.faults.FaultSchedule`, and :mod:`.runner` the
event loop, :class:`~.runner.SocketNetwork` (the simulators' batch
surface) and :func:`run_scenario_socket`, which drives it with
:class:`~repro.env.multiflow.ScenarioDriver`.
"""

from .runner import (  # noqa: F401
    SocketNetwork,
    SocketRunReport,
    SocketTuning,
    TransferReport,
    run_scenario_socket,
    run_scenario_socket_report,
    transfer_payload,
)
from .transport import (  # noqa: F401
    AckSegment,
    DataSegment,
    ReceiverFlow,
    RtoEstimator,
    SenderFlow,
)
