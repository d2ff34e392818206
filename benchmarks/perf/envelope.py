"""Thread pins and the host envelope every ledger output carries.

With OpenBLAS left at its default (one thread per hardware thread it
*thinks* it has — 64 on the sizing host) a 2-core box spends a served
action's budget in thread wake-ups: 224 ms CPU per 1000 actions against
68 ms pinned, and p99 swinging 12 -> 250 ms.  The pins therefore belong
to the protocol, are applied before NumPy is imported, and the value
actually in effect is read back from the BLAS library and published.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

HARNESS_VERSION = "1"

THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: benchmarks/perf/envelope.py -> repository root.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


class HarnessError(RuntimeError):
    """The harness cannot run as asked (not a measurement result)."""


def apply_thread_pins() -> None:
    """Pin every BLAS/OpenMP pool to one thread, for this process and
    (through the environment) every child it starts.

    Refuses to run when NumPy is already imported: its BLAS pool was
    sized at import time and the pins would be a lie.
    """
    if "numpy" in sys.modules:
        raise HarnessError(
            "NumPy was imported before the BLAS thread pins were applied; "
            "start the harness through benchmarks/perf/run.py")
    for name in THREAD_PINS:
        os.environ[name] = "1"


def require_program() -> None:
    """Fail early, and clearly, when the program under test is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise HarnessError(
            f"no program to measure: {SRC / 'repro'} is missing (the "
            f"harness runs from a checkout of the whole repository)")


def program_env() -> dict:
    """Environment for children: pins plus ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    for name in THREAD_PINS:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    return env


def blas_runtime() -> dict:
    """Thread count and kernel family of the BLAS NumPy actually loaded.

    Read from the library itself (NumPy's bundled OpenBLAS exports
    ``[scipy_]openblas_get_num_threads[64_]``), so it reports what is in
    effect, not what the environment asked for.  Falls back to the
    environment value when no OpenBLAS is mapped.
    """
    import numpy  # noqa: F401 — maps the BLAS library into the process

    out = {"threads": None, "core": "unknown", "library": None}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "openblas" in line.lower()})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"{prefix}get_num_threads{suffix}")
                    core = getattr(lib, f"{prefix}get_corename{suffix}")
                except AttributeError:
                    continue
                core.restype = ctypes.c_char_p
                out = {"threads": int(threads()),
                       "core": core().decode("ascii", "replace"),
                       "library": os.path.basename(path)}
                return out
    raw = os.environ.get("OPENBLAS_NUM_THREADS", "")
    out["threads"] = int(raw) if raw.isdigit() else None
    return out


def numeric_environment() -> str:
    """Key under which bit-exact digests are pinned.

    A chaotic rollout's last ulp depends on the NumPy build and on the
    BLAS kernel family the CPU selects, so a pinned digest is only a
    claim about the environment it was taken in.
    """
    import numpy

    return f"numpy-{numpy.__version__}/openblas-{blas_runtime()['core']}"


def _git_sha() -> str:
    """Commit of the checkout, or ``"unknown"`` outside a git work tree
    (the acceptance driver runs from an exported tree)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text(
                encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_envelope() -> dict:
    """What identifies the host and toolchain, without importing NumPy
    (safe in the parent).  :func:`numeric_envelope` adds the rest."""
    host = {"machine": platform.machine(), "cpu": _cpu_model(),
            "kernel": platform.release(), "nproc": os.cpu_count()}
    digest = hashlib.blake2b(json.dumps(host, sort_keys=True).encode(),
                             digest_size=6).hexdigest()
    return {
        "harness_version": HARNESS_VERSION,
        "host_fingerprint": digest,
        **host,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
    }


def numeric_envelope() -> dict:
    """NumPy version and the BLAS setting in effect (child processes)."""
    import numpy

    return {"numpy": numpy.__version__, "blas": blas_runtime()}
