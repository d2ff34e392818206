"""Crash-safe training checkpoints with bit-exact resume.

A training checkpoint captures *everything* the training loop needs to
continue as if the process had never died: all six TD3 networks, both
Adam optimisers (moments, step count, learning rate), the replay buffer
contents and cursor, the best-actor-so-far snapshot, the training
history, and the exact states of every random stream the loop consumes
(the scenario-sampling generator, the replay sampler, and the TD3
exploration/target-noise generator).  Together with the deterministic
per-``(seed, episode, flow)`` exploration streams of
:class:`~repro.env.episode.TrainFlowController`, restoring all of this
makes a resumed run produce bit-identical ``episode_rewards`` to an
uninterrupted one.

Write protocol (no torn checkpoints):

1. the array payload lands in a versioned ``state-ep*.npz`` written via
   temp-file + ``os.replace``;
2. the ``checkpoint.json`` manifest — naming the retained payload set
   (newest first, up to ``keep_last``) with per-payload SHA-256 and
   loop state — is atomically replaced;
3. payload files the manifest no longer references are deleted.

A kill between (1) and (2) leaves the manifest pointing at the previous
payload set, which is still on disk: the resume simply continues from
the older checkpoint.  Rotation (``keep_last > 1``) keeps the last N
payloads, each with its full loop state, and the resume loads the
*newest valid* one — a damaged or missing newest payload falls back to
the next-newest instead of failing the run.  Only when no retained
payload survives does :class:`~repro.errors.CheckpointError` rise, as
it does when resuming under a :class:`~repro.config.TrainingConfig`
that differs from the one that produced the checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from ..config import TrainingConfig
from ..errors import CheckpointError
from ..persist import sha256_file, write_json
from .learner import Learner

CHECKPOINT_FORMAT = 2
#: Formats this module can still resume from (1 = single-payload).
READABLE_FORMATS = (1, 2)
MANIFEST_NAME = "checkpoint.json"

_REPLAY_ARRAYS = ("_local", "_global", "_action", "_reward",
                  "_next_local", "_next_global", "_done")


def config_fingerprint(cfg: TrainingConfig) -> str:
    """Content hash of a training config; resume requires an exact match."""
    blob = json.dumps(asdict(cfg), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ResumeState:
    """What :func:`load_training_checkpoint` hands back to the train loop."""

    episode: int            # next episode index to run
    noise: float            # exploration noise at that point
    history_dict: dict      # TrainingHistory fields (loop rebuilds the object)
    best_state: list[np.ndarray]  # best-scoring actor parameters so far
    loop_state: dict        # extra loop counters (consecutive failures, ...)


def _rng_state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def _set_rng_state(rng: np.random.Generator, state: dict) -> None:
    rng.bit_generator.state = state


def _atomic_savez(path: Path, arrays: dict[str, np.ndarray]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        np.savez(fh, **arrays)
    os.replace(tmp, path)


def _prior_entries(directory: Path, fingerprint: str,
                   use_global: bool) -> list[dict]:
    """Entries of an existing manifest this run can legitimately extend.

    A manifest from a different config/topology (or a damaged one) is
    ignored: its payloads belong to another run and will be pruned.
    """
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        return []
    try:
        manifest = json.loads(manifest_path.read_text())
    except (json.JSONDecodeError, OSError):
        return []
    if manifest.get("format") not in READABLE_FORMATS:
        return []
    if manifest.get("config_fingerprint") != fingerprint or \
            manifest.get("use_global") != use_global:
        return []
    return _manifest_entries(manifest)


def _manifest_entries(manifest: dict) -> list[dict]:
    """The checkpoint entries of a manifest, newest first.

    Format 2 stores them under ``checkpoints``; a format-1 manifest is a
    single entry spread over the top level.
    """
    if manifest.get("format") == 1:
        keys = ("payload", "payload_sha256", "episode", "noise", "history",
                "loop_state", "td3_updates", "opt_meta", "replay", "learner",
                "rng")
        return [{k: manifest[k] for k in keys if k in manifest}]
    return list(manifest.get("checkpoints", []))


def save_training_checkpoint(directory: str | Path, *, learner: Learner,
                             rng: np.random.Generator, episode: int,
                             noise: float, history_dict: dict,
                             best_state: list[np.ndarray],
                             loop_state: dict | None = None,
                             keep_last: int = 1) -> Path:
    """Write one complete checkpoint; returns the manifest path.

    ``keep_last`` rotates payload files: the manifest names the retained
    set (this checkpoint plus up to ``keep_last - 1`` predecessors, each
    with its own loop state and SHA-256) and any older payloads are
    pruned from disk.  The learner's pending transitions are flushed
    into replay first, so the checkpoint holds every row.
    """
    if keep_last < 1:
        raise CheckpointError(f"keep_last must be >= 1, got {keep_last}")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload_name = f"state-ep{episode:06d}.npz"
    payload = directory / payload_name

    learner.flush_transitions()
    arrays: dict[str, np.ndarray] = {}
    td3_state = learner.td3.state_dict()
    for net_name, params in td3_state["nets"].items():
        for i, p in enumerate(params):
            arrays[f"net__{net_name}__{i}"] = p
    for opt_key in ("actor_opt", "critic_opt"):
        opt = td3_state[opt_key]
        for i, m in enumerate(opt["m"]):
            arrays[f"{opt_key}__m__{i}"] = m
        for i, v in enumerate(opt["v"]):
            arrays[f"{opt_key}__v__{i}"] = v
    replay = learner.replay
    size = len(replay)
    for name in _REPLAY_ARRAYS:
        arrays[f"replay{name}"] = getattr(replay, name)[:size]
    for i, p in enumerate(best_state):
        arrays[f"best__{i}"] = p

    fingerprint = config_fingerprint(learner.cfg)
    prior = _prior_entries(directory, fingerprint, learner.use_global)
    _atomic_savez(payload, arrays)

    entry = {
        "payload": payload_name,
        "payload_sha256": sha256_file(payload),
        "episode": int(episode),
        "noise": float(noise),
        "history": history_dict,
        "loop_state": loop_state or {},
        "td3_updates": int(td3_state["updates"]),
        "opt_meta": {
            key: {"t": td3_state[key]["t"], "lr": td3_state[key]["lr"]}
            for key in ("actor_opt", "critic_opt")
        },
        "replay": {"size": size, "cursor": replay._cursor},
        "learner": {"total_updates": learner.total_updates,
                    "total_transitions": learner.total_transitions},
        "rng": {
            "loop": _rng_state(rng),
            "replay": _rng_state(replay._rng),
            "td3": _rng_state(learner.td3._rng),
        },
    }
    entries = [entry] + [e for e in prior
                         if e.get("payload") != payload_name]
    entries = entries[:keep_last]
    retained = {e["payload"] for e in entries}

    manifest = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(learner.cfg),
        "config_fingerprint": fingerprint,
        "use_global": learner.use_global,
        # Mirror of the newest entry's identity, for humans and tools.
        "payload": payload_name,
        "episode": int(episode),
        "checkpoints": entries,
    }
    manifest_path = write_json(directory / MANIFEST_NAME, manifest)
    for stale in directory.glob("state-ep*.npz"):
        if stale.name not in retained:
            stale.unlink(missing_ok=True)
    return manifest_path


def _select_entry(directory: Path, entries: list[dict]) -> dict:
    """The newest entry whose payload exists and passes its digest.

    Rotation keeps several payloads precisely so that a damaged newest
    one degrades to the next-newest instead of killing the resume; the
    exhausted case reports every candidate's failure.
    """
    failures = []
    for entry in entries:
        payload = directory / entry["payload"]
        if not payload.exists():
            failures.append(f"{entry['payload']}: missing")
            continue
        if sha256_file(payload) != entry["payload_sha256"]:
            failures.append(f"{entry['payload']}: SHA-256 mismatch "
                            "(truncated or corrupted write)")
            continue
        return entry
    raise CheckpointError(
        "no retained checkpoint payload is loadable: " + "; ".join(failures)
        if failures else "checkpoint manifest names no payloads")


def load_training_checkpoint(directory: str | Path, learner: Learner,
                             rng: np.random.Generator) -> ResumeState:
    """Restore a checkpoint into ``learner`` and ``rng``; returns the
    loop-level state the caller must adopt.

    Loads the newest *valid* retained payload (rotation keeps up to
    ``keep_last``).  Raises :class:`CheckpointError` when none is
    loadable, the manifest is damaged, or the config does not match.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"corrupt checkpoint manifest: {exc}") from exc
    if manifest.get("format") not in READABLE_FORMATS:
        raise CheckpointError(
            f"unsupported checkpoint format {manifest.get('format')!r}")
    if manifest.get("config_fingerprint") != config_fingerprint(learner.cfg):
        changed = _config_diff(manifest.get("config", {}), learner.cfg)
        raise CheckpointError(
            "checkpoint was written under a different TrainingConfig"
            + (f" (differs in: {', '.join(changed)})" if changed else ""))
    if manifest.get("use_global") != learner.use_global:
        raise CheckpointError("checkpoint critic topology (use_global) "
                              "does not match this learner")

    entry = _select_entry(directory, _manifest_entries(manifest))
    payload = directory / entry["payload"]

    try:
        with np.load(payload, allow_pickle=False) as data:
            td3_state = {
                "nets": {}, "updates": entry["td3_updates"],
            }
            for net_name in learner.td3.NETS:
                n = len(getattr(learner.td3, net_name).get_state())
                td3_state["nets"][net_name] = [
                    data[f"net__{net_name}__{i}"] for i in range(n)]
            for opt_key, opt in (("actor_opt", learner.td3.actor_opt),
                                 ("critic_opt", learner.td3.critic_opt)):
                n = len(opt.params)
                td3_state[opt_key] = {
                    "m": [data[f"{opt_key}__m__{i}"] for i in range(n)],
                    "v": [data[f"{opt_key}__v__{i}"] for i in range(n)],
                    "t": entry["opt_meta"][opt_key]["t"],
                    "lr": entry["opt_meta"][opt_key]["lr"],
                }
            learner.td3.load_state_dict(td3_state)

            learner.flush_transitions()     # the restore replaces them too
            replay = learner.replay
            size = int(entry["replay"]["size"])
            if size > replay.capacity:
                raise CheckpointError(
                    "checkpoint replay buffer exceeds configured capacity")
            for name in _REPLAY_ARRAYS:
                stored = data[f"replay{name}"]
                if stored.shape[1:] != getattr(replay, name).shape[1:]:
                    raise CheckpointError(
                        f"checkpoint replay array {name} has incompatible "
                        "width for this learner")
                getattr(replay, name)[:size] = stored
            replay._size = size
            replay._cursor = int(entry["replay"]["cursor"])

            n_best = sum(1 for k in data.files if k.startswith("best__"))
            best_state = [data[f"best__{i}"] for i in range(n_best)]
    except KeyError as exc:
        raise CheckpointError(
            f"checkpoint payload is missing array {exc}") from exc

    learner.total_updates = int(entry["learner"]["total_updates"])
    learner.total_transitions = int(entry["learner"]["total_transitions"])
    _set_rng_state(rng, entry["rng"]["loop"])
    _set_rng_state(replay._rng, entry["rng"]["replay"])
    _set_rng_state(learner.td3._rng, entry["rng"]["td3"])
    learner.guard.refresh()

    return ResumeState(
        episode=int(entry["episode"]),
        noise=float(entry["noise"]),
        history_dict=entry["history"],
        best_state=best_state,
        loop_state=entry.get("loop_state", {}),
    )


def _config_diff(stored: dict, cfg: TrainingConfig) -> list[str]:
    """Names of top-level config fields that differ (for error messages)."""
    current = asdict(cfg)
    names = []
    for f in fields(cfg):
        if json.dumps(stored.get(f.name), sort_keys=True, default=str) != \
                json.dumps(current.get(f.name), sort_keys=True, default=str):
            names.append(f.name)
    return names
