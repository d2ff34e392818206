"""Action block (§3.3): multiplicative cwnd mapping of Eq. 3.

The model outputs an action ``a`` in (-1, 1); the window update is

    cwnd' = cwnd * (1 + alpha a)    if a >= 0
    cwnd' = cwnd / (1 - alpha a)    otherwise

which is symmetric in log-space (a and -a cancel exactly) and bounds the
per-MTP change to a factor of ``1 ± alpha``.  The pacing rate is the new
window divided by the smoothed RTT.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import ACTION_ALPHA
from ..errors import ModelError
from ..netsim.fluid import MIN_CWND_PKTS


def apply_action(cwnd_pkts: float, action: float,
                 alpha: float = ACTION_ALPHA) -> float:
    """Eq. 3: map action in [-1, 1] to the next congestion window."""
    if not -1.0 <= action <= 1.0:
        raise ModelError(f"action must lie in [-1, 1], got {action}")
    if alpha <= 0 or alpha >= 1:
        raise ModelError(f"alpha must lie in (0, 1), got {alpha}")
    if action >= 0:
        new = cwnd_pkts * (1.0 + alpha * action)
    else:
        new = cwnd_pkts / (1.0 - alpha * action)
    return max(new, MIN_CWND_PKTS)


def apply_action_columns(cwnd_pkts: np.ndarray, action: np.ndarray,
                         alpha) -> np.ndarray:
    """:func:`apply_action` elementwise (``alpha`` an array or a float
    already checked), its range check first.  Both branches' factor is
    ``1 + alpha |a|`` bit for bit: for ``a < 0``, ``alpha * a`` is
    exactly ``-(alpha * |a|)``."""
    size = np.abs(action)
    inside = size <= 1.0
    if not inside.all():
        raise ModelError(f"action must lie in [-1, 1], got "
                         f"{action[~inside][0].item()}")
    factor = 1.0 + alpha * size
    return np.maximum(np.where(action >= 0, cwnd_pkts * factor,
                               cwnd_pkts / factor), MIN_CWND_PKTS)


def invert_action(cwnd_pkts: float, next_cwnd_pkts: float,
                  alpha: float = ACTION_ALPHA) -> float:
    """The action that maps ``cwnd`` to ``next_cwnd`` (clipped to [-1, 1]).

    Useful for tests and for distilling rule-based controllers into the
    action space.
    """
    if cwnd_pkts <= 0 or next_cwnd_pkts <= 0:
        raise ModelError("windows must be positive")
    ratio = next_cwnd_pkts / cwnd_pkts
    if ratio >= 1.0:
        action = (ratio - 1.0) / alpha
    else:
        action = (1.0 - 1.0 / ratio) / alpha
    return max(-1.0, min(1.0, action))


def pacing_from_cwnd(cwnd_pkts: float, srtt_s: float) -> float:
    """Pacing rate (packets/s) = cwnd / sRTT (§3.3)."""
    if srtt_s <= 0:
        raise ModelError("srtt must be positive")
    return cwnd_pkts / srtt_s


def max_growth_per_second(alpha: float, mtp_s: float) -> float:
    """Multiplicative growth factor per second at full-throttle action.

    Documents the responsiveness bound alpha imposes: e.g. the default
    alpha=0.025 at a 30 ms MTP allows at most ~2.28x growth per second.
    """
    if mtp_s <= 0:
        raise ModelError("mtp must be positive")
    return math.exp(math.log(1.0 + alpha) / mtp_s)
