#!/usr/bin/env python3
"""Offline training example: train an Astraea (or Aurora) policy bundle.

The shipped bundles in ``src/repro/models`` did not come from this
script: they are distilled from the analytic policies by
``repro.core.distill.REGEN_RECIPES`` (see that directory's README).
This script reproduces the paper's offline training procedure (§3.4,
Appendix A): randomised Table 3 environments, shared-policy multi-agent
experience collection, TD3-style updates on the Table 4 cadence,
periodic greedy evaluation, best-policy selection.

Usage::

    python examples/train_astraea.py --episodes 350 --out src/repro/models
    python examples/train_astraea.py --scheme aurora --episodes 150
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.config import TrainingConfig, replace
from repro.core.policy import DEFAULT_POLICY_NAMES
from repro.core.train import train_astraea, train_aurora


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scheme", choices=("astraea", "aurora"),
                        default="astraea")
    parser.add_argument("--episodes", type=int, default=350)
    parser.add_argument("--episode-duration", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-global-critic", action="store_true",
                        help="ablation: train with a local-only critic")
    parser.add_argument("--warm-start", type=Path, default=None,
                        help="fine-tune from an existing bundle")
    parser.add_argument("--actor-warmup", type=int, default=None,
                        help="freeze actor for the first N updates "
                        "(default 3000 when warm-starting, else 0)")
    parser.add_argument("--noise", type=float, default=None,
                        help="override initial exploration noise")
    parser.add_argument("--eval-every", type=int, default=25)
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "src" / "repro" / "models")
    args = parser.parse_args()

    cfg = replace(TrainingConfig(), episodes=args.episodes,
                  episode_duration_s=args.episode_duration, seed=args.seed)
    if args.noise is not None:
        cfg = replace(cfg, exploration_noise=args.noise)
    actor_warmup = args.actor_warmup
    if actor_warmup is None:
        actor_warmup = 3000 if args.warm_start is not None else 0
    cfg = replace(cfg, actor_warmup_updates=actor_warmup)
    if args.scheme == "astraea":
        init_policy = None
        if args.warm_start is not None:
            from repro.core.policy import PolicyBundle

            init_policy = PolicyBundle.load(args.warm_start)
        bundle, history = train_astraea(
            cfg, use_global=not args.no_global_critic, verbose=True,
            eval_every=args.eval_every, init_policy=init_policy)
    else:
        bundle, history = train_aurora(cfg, verbose=True)

    name = DEFAULT_POLICY_NAMES[args.scheme]
    if args.no_global_critic:
        name = name.replace(".npz", "_localcritic.npz")
    path = bundle.save(args.out / name)
    summary = {
        "scheme": args.scheme,
        "episodes": args.episodes,
        "best_episode": history.best_episode,
        "best_score": history.best_score,
        "eval_jain": history.eval_jain,
        "eval_utilization": history.eval_utilization,
        "wall_time_s": round(history.wall_time_s, 1),
    }
    (args.out / name.replace(".npz", "_history.json")).write_text(
        json.dumps(summary, indent=2))
    print(f"saved {path}")
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
