"""Congestion-controller interface and scheme registry.

Every scheme — classical TCP, online-learning, and the RL-based Astraea —
implements the same minimal contract: once per *monitoring interval* it
receives the :class:`~repro.netsim.stats.MtpStats` observed over the last
interval and returns a :class:`Decision` with the new congestion window and
(optionally) a pacing rate.  The environment applies the decision to the
simulator and schedules the next interval.

Schemes register themselves by name so that scenarios can refer to them as
plain strings (``FlowConfig(cc="cubic")``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..config import MTP_S
from ..errors import ConfigError
from ..netsim.stats import MtpColumns, MtpStats


@dataclass(frozen=True)
class Decision:
    """A controller's output for the next interval.

    ``cwnd_pkts`` is the congestion window in packets.  ``pacing_pps`` caps
    the sending rate; ``None`` leaves the flow purely window-limited.
    """

    cwnd_pkts: float
    pacing_pps: float | None = None


class CongestionController(ABC):
    """Base class for all congestion-control schemes.

    Subclasses implement :meth:`on_interval`.  ``interval_s`` controls how
    often the environment calls the controller; schemes that operate
    per-RTT (Vegas, Vivace monitor intervals) override it to track the
    smoothed RTT.
    """

    #: Registry name, set by the :func:`register` decorator.
    name: str = "base"

    def __init__(self, mtp_s: float = MTP_S):
        if mtp_s <= 0:
            raise ConfigError("monitoring period must be positive")
        self.mtp_s = mtp_s

    def reset(self) -> None:
        """Return the controller to its initial state (new connection)."""

    def interval_s(self, srtt_s: float) -> float:
        """Time until the next :meth:`on_interval` call."""
        return self.mtp_s

    @abstractmethod
    def on_interval(self, stats: MtpStats) -> Decision:
        """Consume one interval's statistics, emit the next window."""

    @property
    def initial_cwnd(self) -> float:
        """Window used before the first interval completes (IW10)."""
        return 10.0


class ColumnController(CongestionController):
    """A controller whose decision a driver may take for many flows at once.

    ``STATE`` names the per-flow attributes the decision reads and
    writes.  :meth:`decide_columns` is :meth:`on_interval` over columns:
    ``state`` is a ``(state_rows(), k)`` array, row ``j`` holding
    attribute ``STATE[j]`` of ``k`` flows, which it updates in place;
    ``columns`` are the same flows' stats; ``policy`` is the forward
    their decisions need (``None`` for a classical scheme).  It returns
    their windows and their pacing rates (``inf`` for an unpaced flow),
    or ``None`` for pacing when no flow is paced.  For finite inputs,
    entry ``i`` of every output must be bitwise what ``on_interval``
    gives flow ``i`` — the scalar method stays the definition.  Array
    ``+ - * /`` round as Python's float operators do and ``np.maximum``
    / ``np.minimum`` pick the value ``max`` / ``min`` pick; ``**`` does
    not (see :func:`py_pow`).  A driver loads a flow's state with
    :meth:`read_state` when the flow starts and hands it back with
    :meth:`write_state`; flows with equal :meth:`column_key` share one
    call, and a controller whose key is ``None`` decides per object.
    """

    STATE: tuple[str, ...] = ()
    policy = None

    @classmethod
    @abstractmethod
    def decide_columns(cls, state: np.ndarray, columns: MtpColumns,
                       policy) -> tuple[np.ndarray, np.ndarray | None]:
        """One interval of every flow in ``columns``: the new windows
        and pacing rates."""

    def column_key(self) -> tuple | None:
        """Everything that sizes or drives the state: flows with equal
        keys decide in one :meth:`decide_columns` call.  The class and
        the policy (by identity); ``None`` keeps this controller on its
        own :meth:`on_interval`."""
        return (type(self), id(self.policy))

    def state_rows(self) -> int:
        """Rows of this controller's state column."""
        return len(self.STATE)

    def read_state(self) -> list[float]:
        return [float(getattr(self, name)) for name in self.STATE]

    def write_state(self, values) -> None:
        # Each attribute keeps its type (``Cubic.ecn`` is a bool).
        for name, value in zip(self.STATE, values):
            setattr(self, name, type(getattr(self, name))(value))


def rows_where(mask: np.ndarray):
    """The rows ``mask`` selects as an index: ``None`` for none, a full
    slice for all (so the branch works on views), else positions."""
    count = np.count_nonzero(mask)
    if count == len(mask):
        return slice(None)
    return np.flatnonzero(mask) if count else None


def py_pow(x: np.ndarray, y: float) -> np.ndarray:
    """``x ** y`` elementwise through Python floats, i.e. libm ``pow``:
    NumPy's SIMD ``np.power`` is not bit-equal to it."""
    return np.array([v ** y for v in x.tolist()], dtype=float)


_REGISTRY: dict[str, type[CongestionController]] = {}


def register(name: str):
    """Class decorator adding a controller to the global registry."""

    def deco(cls: type[CongestionController]) -> type[CongestionController]:
        if name in _REGISTRY:
            raise ConfigError(f"controller {name!r} registered twice")
        cls.name = name
        _REGISTRY[name] = cls
        return cls

    return deco


def _ensure_core_registered() -> None:
    """Import the repro.core controllers (registers astraea/astraea-ref).

    Done lazily to avoid a circular import between repro.cc and repro.core.
    """
    if "astraea" not in _REGISTRY:
        from ..core import astraea as _astraea  # noqa: F401
        from ..core import reference as _reference  # noqa: F401


def create(name: str, **kwargs) -> CongestionController:
    """Instantiate a registered controller by name."""
    _ensure_core_registered()
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown congestion controller {name!r}; "
            f"available: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def available() -> list[str]:
    """Names of all registered controllers."""
    _ensure_core_registered()
    return sorted(_REGISTRY)
