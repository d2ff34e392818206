"""The ``repro bench`` registry: one declarative entry per subcommand.

Every bench module ends with a ``BENCH = Bench(...)`` next to the code
that builds its payload, so a payload's schema — keys, table, verdict —
is known by exactly one module.  ``cli._cmd_bench`` drives all of them
and owns what they share: the stderr progress sink, ``ReproError`` -> 1,
``KeyboardInterrupt`` -> 130, the strict-JSON atomic write and the
verdict -> exit code.  Adding a bench is one module with a ``BENCH``
entry plus its name in :data:`BENCH_MODULES`; ``cli.py`` does not
change.  No bench module is imported until :func:`load_benches` runs,
which keeps ``repro serve`` / ``run`` / ``train`` startup free of them.
"""

from __future__ import annotations

from argparse import Namespace
from collections.abc import Callable
from dataclasses import dataclass
from importlib import import_module

#: Modules holding a ``BENCH`` entry, in ``repro bench --help`` order.
BENCH_MODULES = ("robustness", "scenariobench", "trainbench", "fleetbench",
                 "socketbench")


class Flag:
    """One ``add_argument(*names, **kwargs)`` call.  ``parse`` marks a
    list-valued flag: :func:`parse_list_flags` applies it to the given
    string; ``example`` is the shape its usage error shows."""

    def __init__(self, *names: str, parse=None, example=None, **kwargs):
        self.names, self.kwargs = names, kwargs
        self.parse, self.example = parse, example

    # The shared flags: an entry places them among its own, spelling
    # only the help text (and default) that differs per bench.
    @classmethod
    def small(cls, help: str) -> "Flag":
        return cls("--small", action="store_true", help=help)

    @classmethod
    def workers(cls, help: str, default: int | None = None) -> "Flag":
        return cls("--workers", type=int, default=default, help=help)


#: ``--out-dir``; its help text follows from whether the bench also
#: writes a markdown twin, so entries place it without spelling it.
Flag.OUT_DIR = Flag("--out-dir", default=None)


@dataclass(frozen=True)
class Bench:
    """What ``repro bench <name>`` needs to know about one benchmark.

    ``run(args, progress)`` returns the JSON-serialisable payload;
    ``progress`` takes one line of text for stderr (wrap it in
    :func:`status` for the indented one-message-per-stage style).
    ``render(payload)`` is the stdout table.  Optional: ``markdown``
    (text of the ``.md`` twin), ``ok(payload)`` (False -> exit 1 after
    the artifact is written), and ``check(args) -> (ok, message)``
    selected by the ``gate`` attribute of ``args`` (no artifact).
    ``small_id`` replaces ``bench_id`` as the artifact stem under
    ``--small``.  List-valued flags reach ``run`` already parsed.
    """

    name: str
    bench_id: str
    title: str
    help: str
    flags: tuple[Flag, ...]
    run: Callable[[Namespace, Callable[[str], None]], dict]
    render: Callable[[dict], str]
    markdown: Callable[[dict], str] | None = None
    ok: Callable[[dict], bool] | None = None
    check: Callable[[Namespace], tuple[bool, str]] | None = None
    gate: str | None = None
    small_id: str | None = None


def load_benches() -> tuple[Bench, ...]:
    """Import every bench module and return the registered entries."""
    return tuple(import_module(f"{__package__}.{name}").BENCH
                 for name in BENCH_MODULES)


def status(progress: Callable[[str], None]) -> Callable[[str], None]:
    """The stage-message form of the progress sink (two-space indent)."""
    return lambda msg: progress(f"  {msg}")


def parse_list_flags(bench: Bench, args: Namespace) -> None:
    """Replace each given list-valued flag's string by its parsed value.

    Raises ``ValueError`` carrying the usage message (flag, expected
    shape, offending text) on a malformed or empty list.
    """
    for item in bench.flags:
        if item.parse is None:
            continue
        dest = item.names[0].lstrip("-").replace("-", "_")
        raw = getattr(args, dest)
        if raw is None:
            continue
        try:
            setattr(args, dest, item.parse(raw))
        except ValueError:
            raise ValueError(f"{item.names[0]} must look like "
                             f"{item.example!r}, got {raw!r}") from None


def _items(value: str) -> list[str]:
    items = [v.strip() for v in value.split(",") if v.strip()]
    if not items:
        raise ValueError(value)
    return items


def names(value: str) -> tuple[str, ...] | None:
    """``a,b`` -> ``("a", "b")``; ``all`` -> ``None`` (the default)."""
    return None if value == "all" else tuple(_items(value))
