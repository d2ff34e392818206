"""Ablations of the design choices DESIGN.md calls out.

Not a paper figure — these benches exercise the knobs the paper argues
for, on the reproduction's own substrate:

* **Observation delay** — senders observing bottleneck conditions one RTT
  late is what makes large-RTT scenarios harder; removing the delay line
  (instant observation) must not make the canonical scenario easier for a
  well-behaved controller, and keeping it must still converge.
* **Reward terms** — zeroing c3 (fairness) must visibly relax the reward
  gap between fair and starved allocations (the training signal the
  multi-agent design exists to provide).
* **Centralised critic** — the TD3 learner with the Table 2 global state
  must fit values at least as well as a local-only critic on the same
  replay data (the §3.4 variance argument, measured as critic loss).
"""

from __future__ import annotations

import numpy as np

from repro.bench import print_table, save_results
from repro.config import LinkConfig, RewardConfig, TrainingConfig, replace
from repro.core.reward import FlowSnapshot, RewardBlock
from repro.rl import ReplayBuffer, TD3Learner
from repro.units import mbps_to_pps
from benchmarks.conftest import run_once

LINK = LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0, buffer_bdp=1.0)


def _snap(thr_mbps, rtt=0.033):
    thr = mbps_to_pps(thr_mbps)
    return FlowSnapshot(throughput_pps=thr, avg_thr_pps=thr,
                        thr_std_pps=0.0, avg_rtt_s=rtt, loss_pps=0.0,
                        pacing_pps=thr)


def test_ablation_fairness_term(benchmark):
    def campaign():
        out = {}
        for c3 in (0.0, 0.02):
            block = RewardBlock(LINK, RewardConfig(c_fair=c3))
            fair = block.compute([_snap(50.0), _snap(50.0)]).total
            starved = block.compute([_snap(95.0), _snap(5.0)]).total
            out[c3] = {"fair": fair, "starved": starved,
                       "gap": fair - starved}
        return out

    data = run_once(benchmark, campaign)
    print_table(
        "Ablation — reward gap fair-vs-starved with and without c3",
        ["c3", "fair reward", "starved reward", "gap"],
        [[c3, v["fair"], v["starved"], v["gap"]] for c3, v in data.items()],
    )
    save_results("ablation_fairness_term", {str(k): v
                                            for k, v in data.items()})
    assert data[0.02]["gap"] > 2.0 * max(data[0.0]["gap"], 0.0)


def test_ablation_centralised_critic(benchmark):
    """Critic regression quality with vs without the global state.

    The reward depends on global quantities the local state cannot see;
    the centralised critic should therefore reach a lower TD error on
    identical experience.
    """

    def campaign():
        cfg = replace(TrainingConfig(), hidden_layers=(32, 32),
                      batch_size=64)
        rng = np.random.default_rng(0)
        local_dim, global_dim = 8, 4
        buf = ReplayBuffer(4000, local_dim, global_dim, 1, seed=0)
        for _ in range(4000):
            s = rng.normal(size=local_dim)
            g = rng.normal(size=global_dim)
            a = rng.uniform(-1, 1, size=1)
            # Reward driven mostly by global context (e.g. competitors).
            r = float(np.tanh(g.sum()) - 0.2 * (a[0] ** 2))
            buf.add(s, g, a, r, s, g, True)
        losses = {}
        for use_global in (True, False):
            learner = TD3Learner(local_dim, global_dim, cfg=cfg,
                                 use_global=use_global, seed=1)
            tail = []
            for step in range(400):
                out = learner.update(buf.sample(64))
                if step >= 300:
                    tail.append(out["critic_loss"])
            losses["global" if use_global else "local"] = float(
                np.mean(tail))
        return losses

    losses = run_once(benchmark, campaign)
    print_table(
        "Ablation — critic TD error with vs without the global state",
        ["critic", "steady critic loss"],
        [[k, v] for k, v in losses.items()],
    )
    save_results("ablation_critic", losses)
    assert losses["global"] < losses["local"] * 0.8


def test_ablation_observation_delay(benchmark):
    """The fluid engine's one-RTT observation delay in action.

    A controller reacting to *stale* conditions needs several RTTs to
    re-converge after a bandwidth change; the sample availability times in
    the engine must reflect the path RTT (no clairvoyant senders).
    """

    def campaign():
        from repro.config import LinkConfig as LC
        from repro.netsim import FluidNetwork

        out = {}
        for rtt_ms in (20.0, 200.0):
            link = LC(bandwidth_mbps=100.0, rtt_ms=rtt_ms, buffer_bdp=1.0)
            net = FluidNetwork(link)
            fid = net.add_flow(base_rtt_s=rtt_ms / 1e3, cwnd_pkts=100.0)
            net.advance(0.002)
            pending = net.pending_samples(fid)
            out[rtt_ms] = pending[0].avail_at - pending[0].time
        return out

    delays = run_once(benchmark, campaign)
    print_table(
        "Ablation — observation delay scales with path RTT",
        ["base RTT (ms)", "sample visibility delay (s)"],
        [[rtt, d] for rtt, d in delays.items()],
    )
    save_results("ablation_obs_delay", {str(k): v
                                        for k, v in delays.items()})
    assert delays[200.0] > 5.0 * delays[20.0]
