"""Policy bundles: serialisable trained actors.

A :class:`PolicyBundle` holds everything needed to execute a trained
Astraea (or Aurora/Orca) policy: the actor MLP parameters plus the
architecture and action metadata.  Bundles serialise to ``.npz`` files;
the package ships pretrained bundles under ``repro/models/`` which
:func:`load_default_policy` resolves.

Loading is defensive: a bundle file that is damaged on disk raises
:class:`~repro.errors.CorruptModelError`, one whose metadata or parameter
shapes violate the bundle contract raises
:class:`~repro.errors.ModelValidationError` — never a raw stdlib
exception.  :func:`load_default_policy` additionally degrades through a
per-scheme fallback chain (requested bundle → alternates → ``None``)
with a single :class:`~repro.errors.ModelFallbackWarning`, so a corrupt
shipped artifact can never crash a controller: ``None`` makes
:class:`~repro.core.astraea.AstraeaController` (and the Aurora/Orca
wrappers) fall back to their analytic reference policies.
"""

from __future__ import annotations

import json
import warnings
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..config import ACTION_ALPHA, HISTORY_LENGTH, HIDDEN_LAYERS
from ..errors import (
    CorruptModelError,
    ModelError,
    ModelFallbackWarning,
    ModelValidationError,
)
from ..rl.nn import MLP

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"
DEFAULT_POLICY_NAMES = {
    "astraea": "astraea_pretrained.npz",
    "aurora": "aurora_pretrained.npz",
    "orca": "orca_pretrained.npz",
}
# Degradation order per scheme: the default bundle first, then any
# shipped alternates that can stand in for it.  A corrupt/invalid entry
# falls through to the next; an exhausted chain resolves to ``None``
# (= the analytic reference policy at the controller layer).
FALLBACK_POLICY_NAMES = {
    "astraea": ("astraea_pretrained.npz", "astraea_alt_homogeneous.npz"),
    "aurora": ("aurora_pretrained.npz",),
    "orca": ("orca_pretrained.npz",),
}

_META_SCHEMA = {
    # key -> (accepted types, predicate on the parsed value)
    "scheme": (str, lambda v: bool(v)),
    "history": (int, lambda v: v > 0),
    "alpha": ((int, float), lambda v: v > 0),
    "in_dim": (int, lambda v: v > 0),
    "out_dim": (int, lambda v: v > 0),
    "hidden": (list, lambda v: len(v) > 0
               and all(isinstance(h, int) and h > 0 for h in v)),
    "output": (str, lambda v: v in ("linear", "tanh")),
}


def validate_meta(meta: object, source: str = "bundle") -> dict:
    """Check a parsed ``meta`` document against the bundle contract.

    Returns the meta dict on success; raises
    :class:`~repro.errors.ModelValidationError` naming the first violated
    field otherwise.
    """
    if not isinstance(meta, dict):
        raise ModelValidationError(
            f"{source}: meta must be a JSON object, got "
            f"{type(meta).__name__}")
    for key, (types, ok) in _META_SCHEMA.items():
        if key not in meta:
            raise ModelValidationError(f"{source}: meta missing key {key!r}")
        value = meta[key]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ModelValidationError(
                f"{source}: meta[{key!r}] has type {type(value).__name__}")
        if not ok(value):
            raise ModelValidationError(
                f"{source}: meta[{key!r}] = {value!r} is out of contract")
    from .state import LOCAL_FEATURES

    if meta["in_dim"] != LOCAL_FEATURES * meta["history"]:
        raise ModelValidationError(
            f"{source}: in_dim {meta['in_dim']} does not match "
            f"{LOCAL_FEATURES} features x history {meta['history']}")
    return meta


@dataclass
class PolicyBundle:
    """A trained deterministic actor plus its execution metadata."""

    actor: MLP
    history: int = HISTORY_LENGTH
    alpha: float = ACTION_ALPHA
    scheme: str = "astraea"
    metadata: dict | None = None

    def act(self, local_state: np.ndarray, slot: int = 0) -> float:
        """Greedy action in (-1, 1) for a single stacked local state."""
        return float(self.act_batch(local_state)[0])

    def act_batch(self, local_states: np.ndarray,
                  slots=None) -> np.ndarray:
        """Greedy actions for ``(n, in_dim)`` stacked states, one per row.

        Row-exact (:meth:`~repro.rl.nn.MLP.infer_rows`): element ``i``
        is bitwise the action :meth:`act` returns for row ``i`` alone,
        so a driver may stack every due flow of a pass into one call
        without perturbing the rollout.  Byte-identical rows (flows
        starved at the same clip ceiling) are forwarded once per call
        and share that row's action.  The deciding agents' ``slots`` (and
        :meth:`act`'s ``slot``) serve a policy with per-agent state, the
        training policy's exploration; a bundle has none.
        """
        out = self.actor.infer_rows(local_states)
        return np.clip(out[:, 0], -0.999, 0.999)

    def restart(self, slot: int) -> None:
        """The agent at ``slot`` starts a new connection."""

    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Serialise the bundle to an ``.npz`` file; returns the path."""
        path = Path(path)
        hidden = tuple(layer.W.shape[1] for layer in self.actor.layers[:-1])
        meta = {
            "scheme": self.scheme,
            "history": self.history,
            "alpha": self.alpha,
            "in_dim": self.actor.in_dim,
            "out_dim": self.actor.out_dim,
            "hidden": list(hidden),
            "output": self.actor.output,
            "extra": self.metadata or {},
        }
        arrays = {f"param_{i}": p for i, p in enumerate(self.actor.get_state())}
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, meta=json.dumps(meta), **arrays)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PolicyBundle":
        """Load a bundle previously written by :meth:`save`.

        Raises :class:`~repro.errors.ModelError` if the file is absent,
        :class:`~repro.errors.CorruptModelError` if its bytes are damaged
        (truncated/non-zip/unreadable arrays), and
        :class:`~repro.errors.ModelValidationError` if it parses but
        violates the bundle contract (meta schema, parameter count or
        shapes vs. the declared architecture).  Stdlib exceptions never
        leak.
        """
        path = Path(path)
        if not path.exists():
            raise ModelError(f"no policy bundle at {path}")
        try:
            # Own the handle: np.load leaks it (ResourceWarning) when it
            # throws mid-parse on damaged bytes.
            with open(path, "rb") as fh, \
                    np.load(fh, allow_pickle=False) as data:
                files = set(data.files)
                if "meta" not in files:
                    raise ModelValidationError(
                        f"{path}: bundle has no 'meta' entry")
                raw_meta = str(data["meta"])
                n_params = len([k for k in files if k.startswith("param_")])
                state = []
                for i in range(n_params):
                    key = f"param_{i}"
                    if key not in files:
                        raise ModelValidationError(
                            f"{path}: parameter arrays are not contiguous "
                            f"({key} missing among {n_params})")
                    state.append(data[key])
        except ModelError:
            raise
        except (zipfile.BadZipFile, zlib.error, ValueError, KeyError,
                OSError, EOFError) as exc:
            raise CorruptModelError(
                f"{path}: unreadable policy bundle ({exc})") from exc
        try:
            meta = json.loads(raw_meta)
        except json.JSONDecodeError as exc:
            raise ModelValidationError(
                f"{path}: meta is not valid JSON ({exc})") from exc
        validate_meta(meta, source=str(path))
        actor = MLP(meta["in_dim"], tuple(meta["hidden"]), meta["out_dim"],
                    output=meta["output"])
        try:
            actor.set_state(state)
        except ModelError as exc:
            raise ModelValidationError(
                f"{path}: parameters do not fit the declared "
                f"{meta['hidden']} architecture ({exc})") from exc
        extra = meta.get("extra")
        if extra is not None and not isinstance(extra, dict):
            raise ModelValidationError(
                f"{path}: meta['extra'] must be an object when present")
        return cls(actor=actor, history=meta["history"],
                   alpha=float(meta["alpha"]), scheme=meta["scheme"],
                   metadata=extra or {})


def default_policy_path(scheme: str = "astraea") -> Path:
    """Where the shipped pretrained bundle for ``scheme`` lives."""
    try:
        return MODELS_DIR / DEFAULT_POLICY_NAMES[scheme]
    except KeyError:
        raise ModelError(f"no default policy defined for {scheme!r}") from None


def fallback_policy_paths(scheme: str = "astraea") -> list[Path]:
    """The degradation chain for ``scheme``: default bundle, then alternates.

    Paths are resolved against :data:`MODELS_DIR` at call time so tests
    can point the loader at a scratch directory.
    """
    if scheme not in FALLBACK_POLICY_NAMES:
        raise ModelError(f"no default policy defined for {scheme!r}")
    return [MODELS_DIR / name for name in FALLBACK_POLICY_NAMES[scheme]]


_POLICY_CACHE: dict[str, PolicyBundle | None] = {}


def load_default_policy(scheme: str = "astraea") -> PolicyBundle | None:
    """The shipped pretrained bundle, or ``None`` if none is usable.

    Resolution walks the scheme's fallback chain
    (:func:`fallback_policy_paths`): a bundle that is absent, corrupt, or
    schema-invalid falls through to the next candidate; an exhausted
    chain yields ``None``, which the controllers translate into their
    analytic reference fallback.  Skipping a *present* bundle emits one
    :class:`~repro.errors.ModelFallbackWarning` naming the file and the
    reason — it never raises.

    Results (including absence) are cached per scheme for the process; a
    failed load is not poisoned permanently — :func:`clear_policy_cache`
    forces re-resolution, e.g. after ``repro models regenerate`` repairs
    the file.
    """
    if scheme not in _POLICY_CACHE:
        bundle, skipped = None, []
        for path in fallback_policy_paths(scheme):
            if not path.exists():
                continue
            try:
                bundle = PolicyBundle.load(path)
                break
            except ModelError as exc:
                skipped.append(f"{path.name}: {exc}")
        if skipped:
            chosen = (f"fell back to {Path(path).name}" if bundle is not None
                      else "degrading to the analytic reference policy")
            warnings.warn(
                f"unusable {scheme} policy bundle(s) — {'; '.join(skipped)} "
                f"— {chosen}; run 'python -m repro models verify' / "
                f"'... models regenerate' to repair",
                ModelFallbackWarning, stacklevel=2)
        _POLICY_CACHE[scheme] = bundle
    return _POLICY_CACHE[scheme]


def resolve_policy(policy: "PolicyBundle | str | None", scheme: str,
                   *, use_default: bool = True) -> "PolicyBundle | None":
    """Normalise a controller's ``policy`` argument into a bundle.

    * ``None`` — the scheme's default chain when ``use_default`` (Astraea
      auto-loads; Aurora/Orca keep their behavioural models), else ``None``.
    * ``"default"`` / ``"pretrained"`` — the default chain explicitly.
    * any other ``str`` — an explicit bundle path; load errors propagate
      as typed :class:`~repro.errors.ModelError`\\ s (an explicitly named
      file that cannot be used is a hard error, not a silent fallback).
    * a :class:`PolicyBundle` — passed through.
    """
    if policy is None:
        return load_default_policy(scheme) if use_default else None
    if isinstance(policy, str):
        if policy in ("default", "pretrained"):
            return load_default_policy(scheme)
        return PolicyBundle.load(policy)
    return policy


def clear_policy_cache() -> None:
    """Forget cached default policies (used by tests and after training)."""
    _POLICY_CACHE.clear()


def new_actor(history: int = HISTORY_LENGTH,
              hidden: tuple[int, ...] = HIDDEN_LAYERS,
              seed: int = 0) -> MLP:
    """A freshly initialised Astraea actor network."""
    from .state import LOCAL_FEATURES

    return MLP(LOCAL_FEATURES * history, hidden, 1, output="tanh", seed=seed)
