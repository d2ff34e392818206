"""Pinned fleet digests: the fleet decision pass, bit for bit.

Each case runs one small serial fleet through :func:`run_fleet` and
hashes its :meth:`FleetResult.fingerprint` (timing stripped) the way the
perf ledger hashes its fleet workloads.  The cubic case pins the
classical column decision and the fluid engine; the astraea case pins
the learned controller's column decision around the row-exact actor
forward (``MLP.infer_rows``) at pass widths that change as flows start
and finish.

The digests are pinned per numeric environment (NumPy build and BLAS
kernel family, the key of ``tests/core/test_learner_golden.py``): a
chaotic rollout's last ulp belongs to the environment, so elsewhere the
pin is reported as not applicable.  Run this file as a script to print
the digests of the current tree.
"""

from __future__ import annotations

import hashlib
import json
import warnings

import pytest

from repro.fleet import FleetSpec, run_fleet

from ..core.test_learner_golden import numeric_environment

_SKYLAKEX = "numpy-2.4.6/openblas-SkylakeX"

SPECS: dict[str, FleetSpec] = {
    "cubic": FleetSpec(cc="cubic", n_shards=2, flows_per_shard=24,
                       quick=True, epochs=2, seed=3),
    "astraea": FleetSpec(cc="astraea", n_shards=2, flows_per_shard=24,
                         quick=True, epochs=2, seed=3),
}

#: case -> numeric environment -> digest.
PINNED_FLEET_DIGESTS: dict[str, dict[str, str]] = {
    "cubic": {_SKYLAKEX: "38d06c60ad2739a4"},
    "astraea": {_SKYLAKEX: "9ef9ee859983fd87"},
}


def fleet_digest(case: str) -> str:
    """The digest of ``case``'s fingerprint, run serially."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run_fleet(SPECS[case], workers=1, strict=True)
    blob = json.dumps(result.fingerprint(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(SPECS))
def test_fleet_digest(case):
    digest = fleet_digest(case)
    assert fleet_digest(case) == digest
    pins = PINNED_FLEET_DIGESTS[case]
    env = numeric_environment()
    if env not in pins:
        pytest.skip(f"digest {digest}: no pin for {env} (not applicable)")
    assert digest == pins[env]


if __name__ == "__main__":
    print(numeric_environment())
    for name in sorted(SPECS):
        print(name, fleet_digest(name))
