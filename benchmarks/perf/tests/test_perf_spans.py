"""Span arithmetic: self time, callers, coroutine busy time, restore."""

import asyncio
import types

import pytest

from spans import ROOT, Tracer, delta


class ScriptedClock:
    """Advances only when told to, so durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_is_total_minus_children():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def leaf():
        clock.spend(2.0)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        clock.spend(1.0)
        leaf()
        leaf()
        clock.spend(0.5)

    middle = tracer.wrap("middle", middle)

    def top():
        clock.spend(0.25)
        middle()
        leaf()

    tracer.wrap("top", top)()
    got = tracer.snapshot()
    assert got["leaf"]["calls"] == 3
    assert got["leaf"]["total_s"] == got["leaf"]["self_s"] == 6.0
    assert got["middle"]["total_s"] == 5.5
    assert got["middle"]["self_s"] == 1.5
    assert got["top"]["total_s"] == 7.75
    assert got["top"]["self_s"] == 0.25
    # Self times partition the root span exactly.
    assert sum(t["self_s"] for t in got.values()) == got["top"]["total_s"]
    assert got["leaf"]["callers"] == {"middle": 2, "top": 1}
    assert got["top"]["callers"] == {ROOT: 1}


def test_span_closes_when_the_callable_raises():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    def boom():
        clock.spend(1.0)
        raise ValueError("x")

    outer_calls = []

    def outer():
        try:
            tracer.wrap("boom", boom)()
        except ValueError:
            outer_calls.append(1)
        clock.spend(1.0)

    tracer.wrap("outer", outer)()
    got = tracer.snapshot()
    assert outer_calls == [1]
    assert got["boom"]["total_s"] == 1.0
    assert got["outer"]["self_s"] == 1.0


def test_units_are_counted_per_call():
    tracer = Tracer(ScriptedClock())
    fn = tracer.wrap("f", lambda xs: None, units=lambda xs: len(xs))
    fn([1, 2, 3])
    fn([4])
    assert tracer.snapshot()["f"]["units"] == 4


def test_coroutine_span_counts_busy_time_not_suspension():
    clock = ScriptedClock()
    tracer = Tracer(clock)

    async def read(gate: asyncio.Event):
        clock.spend(1.0)          # busy before the wait
        await gate.wait()         # suspended: someone else's time
        clock.spend(2.0)          # busy after
        return "frame"

    traced = tracer.wrap("read", read)

    async def scenario():
        gate = asyncio.Event()
        task = asyncio.ensure_future(traced(gate))
        await asyncio.sleep(0)
        clock.spend(100.0)        # the loop runs other work meanwhile
        gate.set()
        return await task

    assert asyncio.run(scenario()) == "frame"
    got = tracer.snapshot()["read"]
    assert got["calls"] == 1
    assert got["total_s"] == 3.0


def test_coroutine_span_survives_cancellation():
    tracer = Tracer(ScriptedClock())

    async def forever():
        await asyncio.Event().wait()

    traced = tracer.wrap("forever", forever)

    async def scenario():
        task = asyncio.ensure_future(traced())
        await asyncio.sleep(0)
        task.cancel()
        with pytest.raises(asyncio.CancelledError):
            await task

    asyncio.run(scenario())
    assert tracer.snapshot()["forever"]["calls"] == 1


def test_install_and_uninstall_restore_the_original_objects():
    module = types.ModuleType("m")

    def fn(x):
        return x + 1

    class Thing:
        def method(self, x):
            return x * 2

    module.fn, module.Thing = fn, Thing
    original_method = Thing.__dict__["method"]
    tracer = Tracer()
    tracer.install("m.fn", module, "fn")
    tracer.install("m.method", Thing, "method")
    assert module.fn is not fn
    assert module.fn(1) == 2 and Thing().method(3) == 6
    with pytest.raises(RuntimeError):
        tracer.install("m.fn", module, "fn")
    tracer.uninstall()
    assert module.fn is fn
    assert Thing.__dict__["method"] is original_method
    got = tracer.snapshot()
    assert got["m.fn"]["calls"] == 1 and got["m.method"]["calls"] == 1


def test_delta_subtracts_snapshots():
    clock = ScriptedClock()
    tracer = Tracer(clock)
    fn = tracer.wrap("f", lambda: clock.spend(1.0))
    fn()
    before = tracer.snapshot()
    fn()
    fn()
    got = delta(tracer.snapshot(), before)
    assert got["f"]["calls"] == 2 and got["f"]["self_s"] == 2.0
