"""Socket-datapath benchmark: wire rate, goodput under loss, recovery.

``repro bench socket`` measures and gates the loopback-UDP engine:

* **throughput** — a single cubic flow per bandwidth level; how much of
  the emulated capacity the reliable-UDP transport actually delivers,
  and how many wire segments/second the Python event loop sustains.
* **loss** — a byte-exact :func:`~repro.netsim.socketpath.transfer_payload`
  under a seeded 5% random-loss schedule: goodput efficiency (payload
  segments over total transmissions) and the retransmission overhead
  the recovery machinery pays.
* **recovery** — the pinned robustness scenario
  (:func:`~repro.scenarios.robustness_scenario`, Astraea under a
  loss burst) on real sockets, measured with
  :mod:`repro.metrics.recovery` — the acceptance row: recovery time
  must be finite.

:func:`run_socket_smoke` is the gating CI subset: the 5%-loss transfer
must deliver every payload byte in order and the recovery time must be
finite, or CI fails.  All results land in
``benchmarks/results/BENCH_socket.json`` (strict JSON).
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from ..config import FlowConfig, LinkConfig, ScenarioConfig
from ..metrics.recovery import recovery_report
from ..netsim.faults import FaultSchedule, LossBurst
from ..netsim.socketpath import SocketTuning, run_scenario_socket_report, \
    transfer_payload
from ..scenarios import robustness_scenario
from .registry import Bench, Flag, status
from .reporting import format_table

BENCH_ID = "BENCH_socket"

#: Seeded 5% loss: the schedule of the smoke/loss legs.
SMOKE_LOSS_RATE = 0.05

DEFAULT_BANDWIDTHS = (4.0, 8.0, 16.0)
SMALL_BANDWIDTHS = (4.0, 8.0)


def _tail_mean_mbps(result) -> float:
    """Steady-state goodput: mean over the last half of every flow log."""
    total = 0.0
    for log in result.flows:
        series = log.throughput_mbps
        if not series:
            continue
        tail = series[len(series) // 2:]
        total += float(np.mean(tail))
    return total


def _throughput_level(bandwidth_mbps: float, *, duration_s: float,
                      seed: int, tuning: SocketTuning) -> dict:
    link = LinkConfig(bandwidth_mbps=bandwidth_mbps, rtt_ms=20.0,
                      buffer_bdp=2.0)
    scenario = ScenarioConfig(link=link, flows=(FlowConfig(cc="cubic"),),
                              duration_s=duration_s, seed=seed)
    start = time.perf_counter()
    result, report = run_scenario_socket_report(scenario, tuning=tuning)
    elapsed = time.perf_counter() - start
    achieved = _tail_mean_mbps(result)
    return {
        "bandwidth_mbps": bandwidth_mbps,
        "pkts_per_seg": report.pkts_per_seg,
        "achieved_mbps": achieved,
        "efficiency": achieved / bandwidth_mbps,
        "wire_segs_per_wall_s": report.wire_segs_per_wall_s,
        "retransmits": sum(f["retransmits"] for f in report.flows),
        "corrupt": report.total_corrupt,
        "wall_s": elapsed,
    }


def _loss_leg(*, seed: int, tuning: SocketTuning,
              payload_bytes: int) -> dict:
    faults = FaultSchedule((LossBurst(0.0, 10_000.0,
                                      loss_rate=SMOKE_LOSS_RATE),))
    payload = os.urandom(payload_bytes)
    start = time.perf_counter()
    data, report = transfer_payload(payload, faults=faults, seed=seed,
                                    tuning=tuning)
    elapsed = time.perf_counter() - start
    total_tx = report.n_segments + report.retransmits
    return {
        "loss_rate": SMOKE_LOSS_RATE,
        "payload_bytes": payload_bytes,
        "payload_ok": data == payload,
        "n_segments": report.n_segments,
        "retransmits": report.retransmits,
        "rto_timeouts": report.rto_timeouts,
        "duplicates": report.duplicates,
        "goodput_efficiency": report.n_segments / total_tx if total_tx
        else 1.0,
        "srtt_s": report.srtt_s,
        "wall_s": elapsed,
    }


def _recovery_leg(*, seed: int, tuning: SocketTuning,
                  scheme: str = "astraea") -> dict:
    scenario = robustness_scenario(scheme, kind="loss-burst", quick=True,
                                   seed=seed)
    start = time.perf_counter()
    result, report = run_scenario_socket_report(scenario, tuning=tuning)
    elapsed = time.perf_counter() - start
    recovery = recovery_report(result, scenario.faults)
    return {
        "scheme": scheme,
        "kind": "loss-burst",
        "recovered": recovery.recovered,
        "recovery_time_s": recovery.recovery_time_s,
        "baseline_mbps": recovery.baseline_mbps,
        "corrupt": report.total_corrupt,
        "retransmits": sum(f["retransmits"] for f in report.flows),
        "delivered_segs": report.total_delivered_segs,
        "wall_s": elapsed,
    }


def run_socket_smoke(seed: int = 1, *,
                     tuning: SocketTuning | None = None) -> dict:
    """The gating CI check: reliability and recovery on real sockets.

    ``ok`` requires a byte-exact in-order 5%-loss transfer (zero lost
    payload), zero corrupt stream segments in the recovery scenario,
    and a finite post-fault recovery time.
    """
    tuning = tuning if tuning is not None else SocketTuning()
    loss = _loss_leg(seed=seed, tuning=tuning, payload_bytes=20_000)
    recovery = _recovery_leg(seed=seed, tuning=tuning)
    ok = bool(loss["payload_ok"]
              and recovery["corrupt"] == 0
              and recovery["recovered"]
              and math.isfinite(recovery["recovery_time_s"]))
    return {"ok": ok, "loss": loss, "recovery": recovery}


def run_socket_benchmark(*, small: bool = False, seed: int = 1,
                         tuning: SocketTuning | None = None,
                         progress=None) -> dict:
    """The full ``BENCH_socket`` payload (strict-JSON serialisable)."""
    tuning = tuning if tuning is not None else SocketTuning()
    bandwidths = SMALL_BANDWIDTHS if small else DEFAULT_BANDWIDTHS
    duration_s = 6.0 if small else 12.0
    payload_bytes = 20_000 if small else 60_000
    report = progress or (lambda msg: None)
    start = time.perf_counter()
    levels = []
    for bw in bandwidths:
        report(f"throughput @ {bw:g} Mbps")
        levels.append(_throughput_level(bw, duration_s=duration_s,
                                        seed=seed, tuning=tuning))
    report(f"loss transfer ({SMOKE_LOSS_RATE:.0%} seeded loss)")
    loss = _loss_leg(seed=seed, tuning=tuning, payload_bytes=payload_bytes)
    report("recovery scenario (astraea, loss-burst)")
    recovery = _recovery_leg(seed=seed, tuning=tuning)
    return {
        "config": {
            "small": small,
            "seed": seed,
            "time_scale": tuning.time_scale,
            "max_wall_dgrams_per_s": tuning.max_wall_dgrams_per_s,
            "seg_payload_bytes": tuning.seg_payload_bytes,
            "min_rto_s": tuning.min_rto_s,
            "max_rto_s": tuning.max_rto_s,
        },
        "throughput": levels,
        "loss": loss,
        "recovery": recovery,
        "elapsed_s": time.perf_counter() - start,
    }


def _run(args, progress) -> dict:
    return run_socket_benchmark(small=args.small, seed=args.seed,
                                progress=status(progress))


def _check(args) -> tuple[bool, str]:
    verdict = run_socket_smoke(seed=args.seed)
    loss, rec = verdict["loss"], verdict["recovery"]
    message = (f"loss transfer: payload_ok={loss['payload_ok']} "
               f"({loss['n_segments']} segments, "
               f"{loss['retransmits']} retransmits, "
               f"{loss['duplicates']} duplicates)\n"
               f"recovery ({rec['scheme']}/{rec['kind']}): "
               f"recovered={rec['recovered']} "
               f"t_rec={rec['recovery_time_s']}s corrupt={rec['corrupt']}")
    if not verdict["ok"]:
        message += "\nSOCKET SMOKE FAILED"
    return verdict["ok"], message


def _render(payload: dict) -> str:
    loss, rec = payload["loss"], payload["recovery"]
    table = format_table(
        "Socket datapath: delivered goodput vs emulated capacity",
        ["bandwidth (Mbps)", "achieved (Mbps)", "efficiency",
         "wire segs/s", "pkts/seg", "retransmits"],
        [[row["bandwidth_mbps"], row["achieved_mbps"], row["efficiency"],
          row["wire_segs_per_wall_s"], row["pkts_per_seg"],
          row["retransmits"]]
         for row in payload["throughput"]])
    return (f"{table}\n"
            f"\n5% seeded loss: payload_ok={loss['payload_ok']} "
            f"goodput efficiency {loss['goodput_efficiency']:.3f} "
            f"({loss['retransmits']} retransmits / "
            f"{loss['n_segments']} segments)\n"
            f"recovery ({rec['scheme']}/{rec['kind']}): "
            f"recovered={rec['recovered']} "
            f"t_rec={rec['recovery_time_s']}s "
            f"baseline {rec['baseline_mbps']:.2f} Mbps")


BENCH = Bench(
    name="socket",
    bench_id=BENCH_ID,
    title="socket benchmark",
    help="loopback-UDP datapath: wire rate, goodput under 5%% loss, "
         "post-fault recovery (writes BENCH_socket.json)",
    flags=(
        Flag("--seed", type=int, default=1, help="impairment-schedule seed"),
        Flag.small("CI subset: 2 bandwidth levels, short runs"),
        Flag("--smoke", action="store_true",
             help="gating check only: byte-exact 5%%-loss transfer + "
                  "finite recovery; no artifact"),
        Flag.OUT_DIR,
    ),
    run=_run,
    render=_render,
    ok=lambda payload: bool(payload["loss"]["payload_ok"]
                            and payload["recovery"]["corrupt"] == 0),
    check=_check,
    gate="smoke",
)
