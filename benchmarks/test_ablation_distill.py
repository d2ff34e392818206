"""Extension — in-kernel-scale policy distillation (future work, §5.4).

The paper points to LiteFlow-style in-kernel model execution as the way
to cut Astraea's remaining overhead; that requires a network small
enough for a kernel datapath.  This bench distils the shipped 256/128/64
teacher into a 16/16 student and measures (a) decision agreement, (b)
end-to-end congestion behaviour of the student, and (c) the inference
cost reduction.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import print_table, save_results
from repro.core.astraea import AstraeaController
from repro.core.distill import (
    collect_states,
    distill_policy,
    evaluate_distillation,
)
from repro.core.policy import PolicyBundle, load_default_policy, new_actor
from benchmarks.conftest import run_once


def test_ablation_policy_distillation(benchmark):
    def campaign():
        teacher = load_default_policy("astraea") or \
            PolicyBundle(actor=new_actor())
        states = collect_states(teacher)
        student = distill_policy(teacher, states, epochs=600)
        report = evaluate_distillation(teacher, student, states)

        # End-to-end: student vs teacher on the canonical scenario.
        from repro.config import LinkConfig, ScenarioConfig
        from repro.env import run_scenario
        from repro.netsim import staggered_flows

        scenario = ScenarioConfig(
            link=LinkConfig(bandwidth_mbps=100.0, rtt_ms=30.0,
                            buffer_bdp=1.0),
            flows=staggered_flows(3, cc="astraea", interval_s=10.0,
                                  duration_s=30.0),
            duration_s=50.0,
        )
        rows = {}
        for name, bundle in (("teacher", teacher), ("student", student)):
            controllers = [AstraeaController(policy=bundle)
                           for _ in scenario.flows]
            result = run_scenario(scenario, controllers=controllers)
            rows[name] = {"jain": result.mean_jain(),
                          "utilization": result.utilization()}

        # Inference cost over a batch of states.
        batch = states[:2000]
        cost = {}
        for name, bundle in (("teacher", teacher), ("student", student)):
            t0 = time.process_time()
            for _ in range(5):
                bundle.actor.infer(batch)
            cost[name] = time.process_time() - t0
        return report, rows, cost

    report, rows, cost = run_once(benchmark, campaign)
    print_table(
        "Extension — distilled 16/16 student vs 256/128/64 teacher",
        ["metric", "value"],
        [["mean |action error|", report["mean_abs_error"]],
         ["sign agreement", report["sign_agreement"]],
         ["parameter compression", f'{report["compression"]:.0f}x'],
         ["teacher Jain / util", f'{rows["teacher"]["jain"]:.3f} / '
          f'{rows["teacher"]["utilization"]:.3f}'],
         ["student Jain / util", f'{rows["student"]["jain"]:.3f} / '
          f'{rows["student"]["utilization"]:.3f}'],
         ["teacher CPU (s, 10k states)", cost["teacher"]],
         ["student CPU (s, 10k states)", cost["student"]]],
    )
    save_results("ablation_distill", {
        **report,
        "teacher_jain": rows["teacher"]["jain"],
        "student_jain": rows["student"]["jain"],
        "teacher_util": rows["teacher"]["utilization"],
        "student_util": rows["student"]["utilization"],
        "teacher_cpu_s": cost["teacher"],
        "student_cpu_s": cost["student"],
    })

    assert report["sign_agreement"] > 0.8
    assert report["compression"] > 20
    assert cost["student"] < cost["teacher"] / 3
    # The student's end-to-end behaviour stays in the teacher's ballpark.
    assert rows["student"]["jain"] > rows["teacher"]["jain"] - 0.15
    assert rows["student"]["utilization"] > \
        rows["teacher"]["utilization"] - 0.15
