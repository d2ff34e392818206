"""Span timers installed around a program's public callables, from outside.

The ledger's rule (choosing-metrics §4) is that the change which defines
the benchmark records spans from the benchmark's own files: a
:class:`Tracer` replaces a module attribute or a class method with a
timing wrapper, and puts the original back on :meth:`Tracer.uninstall`.
Nothing under ``src/`` knows it is being timed.

Spans are aggregated, not stored one by one — a fleet repetition makes
about half a million wrapped calls — into per-name totals: call count,
total time, time spent in child spans (so ``self_s = total_s -
child_s``), an optional work count (rows of a forward, flow-ticks of an
engine block) and a count per *calling span*, which is the aggregate
form of "the span that caused it".

Coroutines are timed by stepping them: only the intervals in which the
coroutine actually runs count, not the time it is suspended waiting for
a socket, so ``read_frame`` reports its busy time.
"""

from __future__ import annotations

import inspect
import time
from importlib import import_module

#: Caller name recorded for a span opened with no traced span above it.
ROOT = "<root>"


class SpanTotals:
    """Running totals of one span name."""

    __slots__ = ("calls", "total_s", "child_s", "units", "callers")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.units = 0
        self.callers: dict[str, int] = {}

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "units": self.units,
                "callers": dict(self.callers)}


class Tracer:
    """Installs, aggregates and removes timing wrappers.

    ``clock`` is injectable so the self-time arithmetic can be tested
    against a scripted clock.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        # Open spans of the current call chain: [name, child_seconds].
        self._stack: list[list] = []
        self._totals: dict[str, SpanTotals] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------

    def _close(self, totals: SpanTotals, frame: list, dt: float) -> None:
        stack = self._stack
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[1] += dt
            caller = parent[0]
        else:
            caller = ROOT
        totals.calls += 1
        totals.total_s += dt
        totals.child_s += frame[1]
        totals.callers[caller] = totals.callers.get(caller, 0) + 1

    def wrap(self, name: str, fn, units=None):
        """A callable that times ``fn`` under span ``name``.

        ``units(*args, **kwargs)`` optionally counts the work of one
        call.  Coroutine functions get the stepping wrapper.
        """
        totals = self._totals.setdefault(name, SpanTotals())
        if inspect.iscoroutinefunction(fn):
            return self._wrap_coroutine(name, fn, totals)
        stack, clock, close = self._stack, self._clock, self._close

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(totals, frame, clock() - t0)
                if units is not None:
                    totals.units += units(*args, **kwargs)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_coroutine(self, name: str, fn, totals: SpanTotals):
        tracer = self

        class Stepped:
            """Awaitable driving ``fn``'s coroutine one step at a time."""

            __slots__ = ("_coro",)

            def __init__(self, coro):
                self._coro = coro

            def __await__(self):
                inner = self._coro.__await__()
                stack, clock = tracer._stack, tracer._clock
                busy = child = 0.0
                value = error = None
                try:
                    while True:
                        frame = [name, 0.0]
                        stack.append(frame)
                        t0 = clock()
                        try:
                            if error is None:
                                yielded = inner.send(value)
                            else:
                                yielded = inner.throw(error)
                        except StopIteration as stop:
                            return stop.value
                        finally:
                            busy += clock() - t0
                            stack.pop()
                            child += frame[1]
                        error = None
                        try:
                            value = yield yielded
                        except BaseException as exc:  # re-raised inside fn
                            error = exc
                finally:
                    # One call, however many steps it took.  A coroutine
                    # span never charges its time to a parent: between
                    # steps the event loop runs unrelated tasks.
                    totals.calls += 1
                    totals.total_s += busy
                    totals.child_s += child
                    totals.callers[ROOT] = totals.callers.get(ROOT, 0) + 1

        def traced(*args, **kwargs):
            return Stepped(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ---------------------------------------------------

    def install(self, name: str, owner, attr: str, units=None) -> None:
        """Replace ``owner.attr`` (module function or class method) with
        its timing wrapper; remembered for :meth:`uninstall`."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if any(o is owner and a == attr for o, a, _ in self._patched):
            raise RuntimeError(f"{name}: {attr} is already traced")
        setattr(owner, attr, self.wrap(name, original, units))
        self._patched.append((owner, attr, original))

    def install_path(self, name: str, module: str, path: str,
                     units=None) -> None:
        """:meth:`install` by import path: ``path`` is ``"function"`` or
        ``"Class.method"`` inside ``module``."""
        owner = import_module(module)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        self.install(name, owner, attr, units)

    def uninstall(self) -> None:
        """Put every original callable back (newest patch first)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def snapshot(self) -> dict[str, dict]:
        """Totals per span name, as plain dicts."""
        return {name: t.as_dict() for name, t in self._totals.items()}


def delta(after: dict[str, dict], before: dict[str, dict]) -> dict[str, dict]:
    """Span totals accumulated between two :meth:`Tracer.snapshot`\\ s."""
    out = {}
    for name, a in after.items():
        b = before.get(name, {})
        out[name] = {
            key: a[key] - b.get(key, 0)
            for key in ("calls", "total_s", "self_s", "units")}
    return out
