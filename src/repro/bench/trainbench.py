"""Training-rollout benchmark: batched RL hot loop vs per-flow reference.

``repro bench train`` measures the training fast path end to end —
scenario driver, observer, action selection and replay writes — in three
modes over the same warm-learner episodes:

* **serial**: the per-object path of the same driver pass (each agent's
  own ``on_interval``, one :meth:`~repro.core.learner.Learner.act` call
  per flow);
* **batched**: the agents' column decision, one stacked forward per
  controller pass;
* **batched+workers**: a frozen-policy :class:`~repro.env.pool.
  EnvironmentPool` stride shipping whole episodes through the process
  pool.

It also replays one pinned episode — cross traffic, update bursts,
exploration — through both the serial and batched legs and embeds the
bitwise verdict (replay memory, all six networks, both optimiser states,
the episode statistics), so the artifact itself witnesses the
equivalence contract the speedup rests on.  Both legs buffer each
pass's transition block and write replay once per update burst: they
differ only in how the agents decide.  The result persists as
``benchmarks/results/BENCH_train.json``.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..config import (
    FlowConfig,
    LinkConfig,
    ScenarioConfig,
    TrainingConfig,
    replace,
)
from ..core.learner import Learner
from ..env.episode import run_training_episode
from ..env.pool import EnvironmentPool
from .registry import Bench, Flag, status
from .reporting import format_table

BENCH_ID = "BENCH_train"

NOISE_STD = 0.15

#: The equivalence contract is bitwise — zero tolerance.
EQUIVALENCE_TOL = 0.0

_REPLAY_ARRAYS = ("_local", "_global", "_action", "_reward",
                  "_next_local", "_next_global", "_done")


def _timing_config() -> TrainingConfig:
    """Paper-sized networks, warm fast, updates parked out of the way.

    The update burst runs identical code in every mode; pushing the
    interval beyond any episode keeps the measurement on the rollout
    loop itself (act, observe, reward, replay) that this PR batches.
    """
    return replace(TrainingConfig(), warmup_transitions=256,
                   update_interval_s=1e9, seed=7)


def _equivalence_config() -> TrainingConfig:
    """Small nets, low warmup, frequent bursts: every code path exercised."""
    return replace(TrainingConfig(), hidden_layers=(32, 32),
                   warmup_transitions=128, batch_size=32,
                   update_interval_s=2.0, update_steps=4, seed=7)


def _train_scenario(n_flows: int, duration_s: float,
                    cross_traffic: bool = False,
                    seed: int = 17) -> ScenarioConfig:
    flows = [FlowConfig(cc="astraea", start_s=0.0, duration_s=duration_s)
             for _ in range(n_flows)]
    if cross_traffic:
        flows.append(FlowConfig(cc="cubic", start_s=1.0,
                                duration_s=duration_s - 1.0))
    return ScenarioConfig(
        link=LinkConfig(bandwidth_mbps=96.0, rtt_ms=30.0, buffer_bdp=1.5),
        flows=tuple(flows),
        duration_s=duration_s,
        seed=seed,
    )


def _initial_cwnds(n_flows: int) -> list[float]:
    return [16.0 + 2.0 * i for i in range(n_flows)]


def _warm_learner(cfg: TrainingConfig) -> Learner:
    """A learner whose replay is already past warmup.

    Seeded synthetic transitions flow in through
    :meth:`~repro.rl.replay.ReplayBuffer.add_batch`; they only matter
    for the warm flag (and, in the equivalence episode, as identical
    update-batch material), so the measured episodes exercise the policy
    act path from the first pass.
    """
    learner = Learner(cfg)
    rng = np.random.default_rng(123)
    n = max(cfg.warmup_transitions, cfg.batch_size) + cfg.batch_size
    learner.replay.add_batch(
        rng.normal(size=(n, learner.local_dim)),
        rng.normal(size=(n, learner.global_dim)),
        rng.normal(size=(n, 1)),
        rng.normal(size=n),
        rng.normal(size=(n, learner.local_dim)),
        rng.normal(size=(n, learner.global_dim)),
        np.zeros(n))
    return learner


def measure_rollouts(n_flows: int, duration_s: float, episodes: int,
                     workers: int = 2, progress=None) -> dict:
    """Episodes/s and steps/s of the three rollout modes.

    Every mode runs the same ``episodes`` warm-learner episodes over the
    same scenario; ``steps`` counts harvested transitions.  The pooled
    mode pays the process-spawn cost inside its measurement — that is
    the cost a real ``parallel_envs`` stride pays.
    """

    report = progress or (lambda msg: None)

    cfg = _timing_config()
    scenario = _train_scenario(n_flows, duration_s)
    cwnds = _initial_cwnds(n_flows)
    out = {}
    for mode, batched in (("serial", False), ("batched", True)):
        report(f"{mode}: {episodes} episode(s) at {n_flows} flows...")
        learner = _warm_learner(cfg)
        steps = 0
        start = time.perf_counter()
        for episode in range(episodes):
            stats = run_training_episode(
                learner, scenario, noise_std=NOISE_STD,
                initial_cwnds=cwnds, episode=episode, batched=batched)
            steps += stats.transitions
        elapsed = time.perf_counter() - start
        out[mode] = {
            "elapsed_s": elapsed,
            "episodes_per_s": episodes / elapsed if elapsed > 0 else None,
            "steps_per_s": steps / elapsed if elapsed > 0 else None,
            "steps": steps,
        }
    report(f"batched+workers: {episodes} episode(s) on {workers} "
           f"worker(s)...")
    learner = _warm_learner(cfg)
    pool = EnvironmentPool(
        learner, [scenario] * episodes, noise_std=NOISE_STD,
        initial_cwnds=[cwnds] * episodes,
        episodes=list(range(episodes)), workers=workers)
    start = time.perf_counter()
    stats = pool.run()
    elapsed = time.perf_counter() - start
    out["batched_workers"] = {
        "elapsed_s": elapsed,
        "episodes_per_s": episodes / elapsed if elapsed > 0 else None,
        "steps_per_s": stats.transitions / elapsed if elapsed > 0 else None,
        "steps": stats.transitions,
        "workers": workers,
    }
    serial = out["serial"]["steps_per_s"]
    batched = out["batched"]["steps_per_s"]
    out["speedup_steps"] = batched / serial if serial and batched else None
    return out


def _bits(a) -> np.ndarray:
    """``a`` as float64 bit patterns (NaN payloads and signed zeros
    included)."""
    return np.ascontiguousarray(a, dtype=np.float64).reshape(-1) \
        .view(np.uint64)


def _learner_arrays(learner: Learner) -> dict[str, np.ndarray]:
    """Everything a training step reads or writes, by name: the replay
    memory, its cursor and size, all six networks and both Adam
    states."""
    replay, td3 = learner.replay, learner.td3
    out = {f"replay.{name}": getattr(replay, name)
           for name in _REPLAY_ARRAYS}
    out["replay.cursor_size"] = np.array([replay._cursor, len(replay)])
    for net in td3.NETS:
        for i, p in enumerate(getattr(td3, net).get_state()):
            out[f"{net}.{i}"] = p
    for opt in ("actor_opt", "critic_opt"):
        state = getattr(td3, opt).get_state()
        for moment in ("m", "v"):
            for i, a in enumerate(state[moment]):
                out[f"{opt}.{moment}.{i}"] = a
        out[f"{opt}.t_lr"] = np.array([state["t"], state["lr"]])
    return out


def _stats_arrays(stats) -> dict[str, np.ndarray]:
    out = {
        "stats.counts": np.array([stats.transitions, stats.reward_count,
                                  stats.update_bursts]),
        "stats.reward_sum": np.array([stats.reward_sum]),
    }
    for name, value in stats.last_losses.items():
        out[f"stats.{name}"] = np.array([value])
    return out


def compare_legs(ref_learner: Learner, ref_stats, fast_learner: Learner,
                 fast_stats) -> dict:
    """The bitwise verdict between two legs of one episode.

    Compared bit for bit: the replay memory (contents, cursor, size),
    all six TD3 networks, both Adam states (moments, step, learning
    rate) and the ``EpisodeStats``.  ``mismatched`` names every
    differing item; ``max_delta`` is the worst absolute difference among
    differing values, ``inf`` when one of them is not finite (a NaN on
    one leg).
    """
    ref = {**_learner_arrays(ref_learner), **_stats_arrays(ref_stats)}
    fast = {**_learner_arrays(fast_learner), **_stats_arrays(fast_stats)}
    mismatched, max_delta = [], 0.0
    for name in sorted(ref.keys() | fast.keys()):
        a, b = ref.get(name), fast.get(name)
        if a is None or b is None or np.shape(a) != np.shape(b):
            mismatched.append(name)
            max_delta = math.inf
            continue
        differ = _bits(a) != _bits(b)
        if differ.any():
            mismatched.append(name)
            delta = np.abs(np.asarray(a, dtype=float).reshape(-1)[differ]
                           - np.asarray(b, dtype=float).reshape(-1)[differ])
            worst = float(np.max(delta))
            max_delta = max(max_delta, worst) if math.isfinite(worst) \
                else math.inf
    return {"passed": not mismatched, "mismatched": mismatched,
            "max_delta": max_delta}


def check_equivalence() -> dict:
    """Replay the pinned episode serially and batched; compare bitwise.

    The pinned episode covers the full path: cross traffic, epsilon and
    Gaussian exploration, warmup-crossing replay writes and real update
    bursts.  The verdict is :func:`compare_legs`: exact, so any
    difference — NaN included — fails.
    """
    scenario = _train_scenario(4, 8.0, cross_traffic=True, seed=5)
    cwnds = _initial_cwnds(5)

    def leg(batched: bool):
        learner = _warm_learner(_equivalence_config())
        stats = run_training_episode(
            learner, scenario, noise_std=NOISE_STD, initial_cwnds=cwnds,
            episode=3, batched=batched)
        return learner, stats

    ref_learner, ref_stats = leg(False)
    fast_learner, fast_stats = leg(True)
    verdict = compare_legs(ref_learner, ref_stats, fast_learner, fast_stats)
    return {
        **verdict,
        "rows": ref_stats.transitions,
        "update_bursts": ref_stats.update_bursts,
        "tolerance": EQUIVALENCE_TOL,
    }


def run_train_benchmark(n_flows: int = 8, duration_s: float = 10.0,
                        episodes: int = 3, workers: int = 2,
                        progress=None) -> dict:
    """Full benchmark: three rollout modes plus the equivalence verdict.

    Returns the ``BENCH_train`` payload; ``progress`` (if given) is
    called with one status line per stage.
    """

    report = progress or (lambda msg: None)

    modes = measure_rollouts(n_flows, duration_s, episodes,
                             workers=workers, progress=progress)
    report("serial-vs-batched equivalence check...")
    equivalence = check_equivalence()
    return {
        "bench": BENCH_ID,
        "n_flows": n_flows,
        "duration_s": duration_s,
        "episodes": episodes,
        "workers": workers,
        "modes": {k: v for k, v in modes.items() if k != "speedup_steps"},
        "speedup_steps": modes["speedup_steps"],
        "equivalence": equivalence,
    }


def _run(args, progress) -> dict:
    duration_s, episodes = ((3.0, 2) if args.small
                            else (args.duration, args.episodes))
    return run_train_benchmark(
        n_flows=args.flows, duration_s=duration_s, episodes=episodes,
        workers=args.workers, progress=status(progress))


def _check(args) -> tuple[bool, str]:
    verdict = check_equivalence()
    if not verdict["passed"]:
        return False, f"TRAIN-PATH DIVERGENCE: {verdict}"
    return True, (f"batched rollout equals the per-flow reference on the "
                  f"pinned episode ({verdict['rows']} transitions, "
                  f"{verdict['update_bursts']} update bursts, max delta "
                  f"{verdict['max_delta']:g} <= {verdict['tolerance']:g})")


def _render(payload: dict) -> str:
    serial = payload["modes"]["serial"]["steps_per_s"]
    eq = payload["equivalence"]
    table = format_table(
        "Training rollouts: batched fast path vs per-flow reference",
        ["mode", "episodes/s", "steps/s", "speedup"],
        [[mode, row["episodes_per_s"], row["steps_per_s"],
          row["steps_per_s"] / serial if serial else None]
         for mode, row in payload["modes"].items()])
    return (f"{table}\n"
            f"\nequivalence: passed={eq['passed']} "
            f"max_delta={eq['max_delta']:g} over {eq['rows']} transitions, "
            f"{eq['update_bursts']} update bursts")


BENCH = Bench(
    name="train",
    bench_id=BENCH_ID,
    title="train benchmark",
    help="training-rollout throughput: serial vs batched vs "
         "batched+workers (writes BENCH_train.json)",
    flags=(
        Flag("--flows", type=int, default=8,
             help="agent flows per episode (default 8)"),
        Flag("--duration", type=float, default=10.0,
             help="simulated seconds per episode (default 10)"),
        Flag("--episodes", type=int, default=3,
             help="episodes per mode (default 3)"),
        Flag.workers("pool size of the batched+workers mode (default 2)",
                     default=2),
        Flag.small("CI smoke subset: 2 episodes of 3 s"),
        Flag("--check-only", action="store_true",
             help="only run the pinned equivalence episode (per-object "
                  "vs column decisions); non-zero exit on any divergence, "
                  "no artifact written"),
        Flag.OUT_DIR,
    ),
    run=_run,
    render=_render,
    ok=lambda payload: payload["equivalence"]["passed"],
    check=_check,
    gate="check_only",
)
