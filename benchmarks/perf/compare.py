"""``--compare A.json B.json``: is B worse than A, metric by metric?

One row per workload x end-to-end metric, never pooled across workloads.
The delta is B's reported value against A's as a share of A's, signed so that
positive means *worse*; it is a regression when it exceeds the metric's
bound from BENCHMARK.json.  Where the two quartile ranges overlap and
either range is wider than the bound, the run-to-run spread cannot
resolve a change of that size and the row says ``unresolved`` instead of
``same`` (choosing-metrics §6.5).
"""

from __future__ import annotations

import json


def _load(path: str) -> dict:
    def reject(token):
        raise ValueError(f"{path}: non-finite constant {token}")

    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=reject)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple:
    """``(worse_share, verdict)`` for one metric's two summaries."""
    base = a["value"]
    worse = (b["value"] - base) / abs(base) if base else 0.0
    if better == "higher":
        worse = -worse
    a_lo, a_hi = a.get("q1", base), a.get("q3", base)
    b_lo, b_hi = b.get("q1", b["value"]), b.get("q3", b["value"])
    overlap = min(a_hi, b_hi) - max(a_lo, b_lo)
    widest = max(a_hi - a_lo, b_hi - b_lo) / abs(base) if base else 0.0
    if worse > bound:
        return worse, "REGRESSION"
    if overlap > 0 and widest > bound:
        return worse, "unresolved"
    if worse < -bound:
        return worse, "better"
    return worse, "same"


def compare_reports(path_a: str, path_b: str, spec: dict) -> int:
    a, b = _load(path_a), _load(path_b)
    for label, report in (("A", a), ("B", b)):
        env = report["envelope"]
        print(f"{label}: host {env['host_fingerprint']} nproc {env['nproc']} "
              f"git {env['git_sha'][:12]} seed {env['seed']} "
              f"size {env['size']}")
    if a["envelope"]["host_fingerprint"] != b["envelope"]["host_fingerprint"]:
        print("warning: the two reports come from different hosts")
    print(f"{'workload':<14} {'metric':<18} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'bound':>6}  verdict")
    regressions = 0
    for w in spec["workloads"]:
        name = w["name"]
        for m in spec["end_to_end"]:
            sa = a["workloads"][name]["end_to_end"][m["name"]]
            sb = b["workloads"][name]["end_to_end"][m["name"]]
            worse, word = verdict(sa, sb, m["better"], m["bound"])
            regressions += word == "REGRESSION"
            print(f"{name:<14} {m['name']:<18} {sa['value']:>12.6g} "
                  f"{sb['value']:>12.6g} {worse:>+9.3f} "
                  f"{m['bound']:>6.2f}  {word}")
    return 1 if regressions else 0
