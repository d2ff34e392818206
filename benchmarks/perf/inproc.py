"""The in-process workloads: ``fleet_cubic``, ``fleet_astraea``,
``train_batched``.

Each workload object builds its inputs from the seed in :meth:`setup`,
then runs *repetitions* of a fixed amount of work through the program's
public entry points (``repro.fleet.runner.run_fleet``,
``repro.env.episode.run_training_episode``), looked up through their
module on every call so a :class:`spans.Tracer` installed between
repetitions is picked up.  :meth:`checks` compares what the repetitions
produced: the program is deterministic, so every repetition of one seed
must produce the same outputs, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from dataclasses import dataclass, field

#: Timing-stripped ``FleetResult.fingerprint()`` digests of ``--seed 0``,
#: per numeric environment (see ``envelope.numeric_environment``).  On an
#: environment that has no pin the check is reported as not applicable;
#: the cross-repetition identity check still holds there.
PINNED_FLEET_DIGESTS: dict[str, dict[str, str]] = {
    "fleet_cubic": {"numpy-2.4.6/openblas-SkylakeX": "240d53cf902feba1"},
    "fleet_astraea": {"numpy-2.4.6/openblas-SkylakeX": "87b6207aae6960b8"},
}

#: Fleet seeds tried for harness seed ``n`` are ``n * SEED_STRIDE + j``.
SEED_STRIDE = 1 << 20


@dataclass
class Repetition:
    """One timed repetition of a workload."""

    wall_s: float
    work: int                 # flow-ticks or harvested transitions
    #: ``(wall_s, cpu_s, work)`` of each job the caller waited on: the
    #: whole ``run_fleet`` call, or one training episode.
    jobs: list[tuple[float, float, int]]
    ops: int                  # operations attempted (shards, episodes)
    failed: int               # ... of which quarantined
    facts: dict = field(default_factory=dict)   # compared across reps


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _same_across(reps: list[Repetition], key: str) -> Check:
    values = [r.facts.get(key) for r in reps]
    ok = all(v == values[0] for v in values)
    return Check(f"{key} identical across {len(reps)} repetitions", ok,
                 "" if ok else f"saw {sorted(set(map(str, values)))}")


class FleetWorkload:
    """``run_fleet`` over 2 shards x 400 flows of one scheme, serial.

    The ``fleet`` scenario family draws each shard's bandwidth, RTT and
    buffer from short ladders keyed by the fleet seed, and the work per
    flow-tick follows those draws (567k - 657k flow-ticks/s across fleet
    seeds 0-5 with cubic).  A harness seed must vary the inputs, not the
    amount of work, so :meth:`setup` walks fleet seeds ``n * 2**20 + j``
    until both shards draw the same ladder rungs as fleet seed 0; seeds
    then differ in every flow's RTT offset and in nothing that sizes the
    run.  ``--seed 0`` is fleet seed 0 itself.
    """

    def __init__(self, cc: str, seed: int, toy: bool):
        self.name = f"fleet_{cc}"
        self.cc = cc
        self.seed = seed
        self.flows_per_shard = 25 if toy else 400
        self.pinned = not toy
        self.spec = None

    def _rungs(self, fleet_seed: int, shard: int) -> tuple:
        """The ladder rungs one shard draws (a 1-flow build is cheap)."""
        from repro.scenarios import build_scenario

        link = build_scenario("fleet", cc=self.cc, quick=True,
                              seed=fleet_seed, n_flows=1,
                              shard_index=shard).link
        return (link.bandwidth_mbps, link.rtt_ms, link.buffer_bdp)

    def setup(self) -> float:
        """Returns the seconds spent generating inputs (the seed walk),
        which are the harness's cost and not the program's set-up."""
        from repro.fleet import FleetSpec
        from repro.fleet import runner

        t0 = time.perf_counter()
        target = [self._rungs(0, shard) for shard in range(2)]
        fleet_seed = self.seed * SEED_STRIDE
        while any(self._rungs(fleet_seed, shard) != target[shard]
                  for shard in range(2)):
            fleet_seed += 1
        generating_s = time.perf_counter() - t0
        self.spec = FleetSpec(cc=self.cc, n_shards=2,
                              flows_per_shard=self.flows_per_shard,
                              quick=True, epochs=4, seed=fleet_seed)
        # Discarded warm-up at toy size: loads the policy bundle, the
        # lazily imported runner modules and the BLAS kernels.
        runner.run_fleet(self.spec.with_(flows_per_shard=5), workers=1)
        return generating_s

    def repetition(self, workers: int = 1) -> Repetition:
        from repro.fleet import runner

        with warnings.catch_warnings():
            # A quarantined shard is counted below, not printed.
            warnings.simplefilter("ignore")
            cpu0, t0 = time.process_time(), time.perf_counter()
            result = runner.run_fleet(self.spec, workers=workers)
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        return Repetition(
            wall_s=wall, work=result.flow_ticks,
            jobs=[(wall, cpu, result.flow_ticks)], ops=self.spec.n_shards,
            failed=len(result.failures),
            facts={"fingerprint": _digest(result.fingerprint()),
                   "jain": result.jain, "flows": result.total_flows,
                   "slowest_shard_s": max(
                       (s["elapsed_s"] for s in result.shards),
                       default=0.0)})

    def checks(self, reps: list[Repetition]) -> list[Check]:
        from envelope import numeric_environment

        out = [Check("zero quarantined shards",
                     all(r.failed == 0 for r in reps)),
               _same_across(reps, "fingerprint")]
        n = reps[0].facts["flows"]
        jain = reps[0].facts["jain"]
        out.append(Check("Jain index in [1/n, 1]",
                         n > 0 and 1.0 / n - 1e-12 <= jain <= 1.0 + 1e-12,
                         f"jain={jain!r} n={n}"))
        if self.seed == 0 and self.pinned:
            env = numeric_environment()
            pin = PINNED_FLEET_DIGESTS[self.name].get(env)
            got = reps[0].facts["fingerprint"]
            if pin is None:
                out.append(Check("seed-0 digest pin", True,
                                 f"not applicable: no pin for {env} "
                                 f"(digest {got})"))
            else:
                out.append(Check("seed-0 digest equals pin", got == pin,
                                 f"{got} vs pinned {pin} on {env}"))
        return out

    def parallel_leg(self, serial: list[Repetition]) -> dict:
        """One repetition through a 2-worker pool against the serial
        ones: the ``parallel.w2.*`` per-layer metrics."""
        pooled = self.repetition(workers=2)
        serial_wall = sorted(r.wall_s for r in serial)[len(serial) // 2]
        return {
            "parallel.w2.speedup": serial_wall / pooled.wall_s,
            "parallel.w2.overhead_s":
                pooled.wall_s - pooled.facts["slowest_shard_s"],
            "parallel.w2.identical": float(
                pooled.facts["fingerprint"]
                == serial[0].facts["fingerprint"]),
        }


class TrainWorkload:
    """Batched training episodes with real update bursts.

    8 astraea flows on 96 Mbps / 30 ms / 1.5 BDP, 12 s episodes, the
    paper-sized 256/128/64 networks, replay pre-filled past warm-up so
    the policy acts from the first pass, and the Table 4 update cadence
    left on (a burst of 20 gradient steps at batch 192 every 5 s of
    environment time).  A repetition is 5 episodes; a job is one
    episode.
    """

    name = "train_batched"
    #: No controller class to trace: batched episodes act through
    #: ``Learner.act_batch``.
    cc = None
    NOISE_STD = 0.15

    def __init__(self, seed: int, toy: bool):
        self.seed = seed
        self.episodes_per_rep = 1 if toy else 5
        self.learner = None
        self.scenario = None
        self._episode = 0

    def setup(self) -> float:
        import numpy as np
        from repro.config import (FlowConfig, LinkConfig, ScenarioConfig,
                                  TrainingConfig, replace)
        from repro.core.learner import Learner

        cfg = replace(TrainingConfig(), seed=self.seed)
        self.learner = learner = Learner(cfg)
        rng = np.random.default_rng([self.seed, 1])
        n = max(cfg.warmup_transitions, cfg.batch_size) + cfg.batch_size
        learner.replay.add_batch(
            rng.normal(size=(n, learner.local_dim)),
            rng.normal(size=(n, learner.global_dim)),
            rng.normal(size=(n, 1)), rng.normal(size=n),
            rng.normal(size=(n, learner.local_dim)),
            rng.normal(size=(n, learner.global_dim)), np.zeros(n))
        self.scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=96.0, rtt_ms=30.0,
                            buffer_bdp=1.5),
            flows=tuple(FlowConfig(cc="astraea", start_s=0.0,
                                   duration_s=12.0) for _ in range(8)),
            duration_s=12.0, seed=self.seed)
        # Discarded warm-up: one update burst and one short episode.
        learner.update_burst()
        self._run_episode(replace(self.scenario, duration_s=1.0))
        return 0.0

    def _run_episode(self, scenario):
        from repro.env import episode

        stats = episode.run_training_episode(
            self.learner, scenario, noise_std=self.NOISE_STD,
            initial_cwnds=[16.0 + 2.0 * i
                           for i in range(len(scenario.flows))],
            episode=self._episode, batched=True)
        self._episode += 1
        return stats

    def repetition(self) -> Repetition:
        from repro.errors import SimulationError

        jobs, transitions, bursts, failed = [], 0, 0, 0
        t0 = time.perf_counter()
        for _ in range(self.episodes_per_rep):
            cpu0, e0 = time.process_time(), time.perf_counter()
            try:
                stats = self._run_episode(self.scenario)
            except (SimulationError, FloatingPointError):
                failed += 1   # what core.train quarantines
                continue
            jobs.append((time.perf_counter() - e0,
                         time.process_time() - cpu0, stats.transitions))
            transitions += stats.transitions
            bursts += stats.update_bursts
        return Repetition(
            wall_s=time.perf_counter() - t0, work=transitions, jobs=jobs,
            ops=self.episodes_per_rep, failed=failed,
            facts={"transitions": transitions, "update_bursts": bursts})

    def checks(self, reps: list[Repetition]) -> list[Check]:
        return [Check("zero quarantined episodes",
                      all(r.failed == 0 for r in reps)),
                _same_across(reps, "transitions"),
                _same_across(reps, "update_bursts"),
                Check("update bursts ran",
                      reps[0].facts["update_bursts"] > 0),
                Check("network parameters finite",
                      self.learner.td3.params_finite())]


def build(name: str, seed: int, toy: bool):
    if name == "fleet_cubic":
        return FleetWorkload("cubic", seed, toy)
    if name == "fleet_astraea":
        return FleetWorkload("astraea", seed, toy)
    if name == "train_batched":
        return TrainWorkload(seed, toy)
    raise ValueError(f"unknown in-process workload {name!r}")
