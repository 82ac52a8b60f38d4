"""Self-time arithmetic of the outside-in tracer, on synthetic call trees."""

from __future__ import annotations

import sys
import types

import pytest

from perf.trace import Hook, Tracer, totals_between


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def tracer(clock: FakeClock) -> Tracer:
    return Tracer(clock)


def hook(span: str, layer: str = "layer", **options) -> Hook:
    return Hook("unused", "unused", span, layer, **options)


def test_nesting_subtracts_children_and_records_parents(tracer, clock):
    def leaf():
        clock.spend(2.0)

    traced_leaf = tracer.wrap(leaf, hook("leaf", "low"))

    def outer():
        clock.spend(1.0)
        traced_leaf()
        clock.spend(1.0)
        traced_leaf()
        clock.spend(0.5)

    tracer.wrap(outer, hook("outer", "high"))()

    totals = tracer.totals()
    assert totals["outer"].self_s == pytest.approx(2.5)
    assert totals["leaf"].self_s == pytest.approx(4.0)
    assert (totals["outer"].calls, totals["leaf"].calls) == (1, 2)
    assert totals["outer"].layer == "high"
    # Self times partition the root span's duration.
    assert sum(t.self_s for t in totals.values()) == pytest.approx(6.5)
    assert tracer.span_parent == [-1, 0, 0]
    assert [tracer.names[i] for i in tracer.span_name] == ["outer", "leaf", "leaf"]
    assert (tracer.span_start[0], tracer.span_end[0]) == (0.0, 6.5)
    assert (tracer.span_start[2], tracer.span_end[2]) == (4.0, 6.0)


def test_recursion_counts_every_frame_once(tracer, clock):
    def countdown(n):
        clock.spend(1.0)
        if n:
            traced(n - 1)
        clock.spend(0.25)

    traced = tracer.wrap(countdown, hook("countdown"))
    traced(3)

    total = tracer.totals()["countdown"]
    assert total.calls == 4
    assert total.self_s == pytest.approx(5.0)  # not 4 + 3 + 2 + 1 frames' durations
    assert tracer.span_parent == [-1, 0, 1, 2]


def test_exception_closes_the_span_and_propagates(tracer, clock):
    def failing():
        clock.spend(1.0)
        raise KeyError("boom")

    traced_failing = tracer.wrap(failing, hook("failing"))

    def outer():
        clock.spend(1.0)
        try:
            traced_failing()
        finally:
            clock.spend(1.0)

    traced_outer = tracer.wrap(outer, hook("outer"))
    with pytest.raises(KeyError):
        traced_outer()

    totals = tracer.totals()
    assert totals["failing"].self_s == pytest.approx(1.0)
    assert totals["outer"].self_s == pytest.approx(2.0)
    assert tracer.span_end == [3.0, 2.0]
    # The stack unwound: the next span is a root again.
    tracer.wrap(lambda: None, hook("after"))()
    assert tracer.span_parent[-1] == -1
    # A raising call returned nothing, so it is not counted as a None return.
    assert totals["failing"].none_returns == 0


def test_operation_ids_follow_the_outermost_op_span(tracer):
    inner = tracer.wrap(lambda: 0, hook("query", op=True))
    child = tracer.wrap(lambda: 0, hook("child"))

    def point():
        inner()
        inner()
        child()

    traced_point = tracer.wrap(point, hook("point", op=True))
    child()
    traced_point()
    traced_point()
    inner()

    assert tracer.span_op == [-1, 0, 0, 0, 0, 1, 1, 1, 1, 2]


def test_work_none_returns_and_after_callback(tracer):
    seen = []
    rows = tracer.wrap(lambda self, table, stored: None, hook("rows", work=2))
    events = tracer.wrap(lambda: 7, hook("events", work="result"))
    probed = tracer.wrap(
        lambda owner: "r", hook("probed", after=lambda t, args, result: seen.append((args, result)))
    )

    rows(object(), "t", [1, 2, 3])
    rows(object(), "t", [4])
    events()
    events()
    probed("owner")

    totals = tracer.totals()
    assert (totals["rows"].work, totals["rows"].none_returns) == (4, 2)
    assert (totals["events"].work, totals["events"].none_returns) == (14, 0)
    assert seen == [(("owner",), "r")]


def test_totals_between_isolates_one_call(tracer, clock):
    traced = tracer.wrap(lambda: clock.spend(1.0), hook("step"))
    traced()
    before = tracer.totals()
    traced()
    traced()
    late = tracer.wrap(lambda: clock.spend(0.5), hook("late"))
    late()
    delta = totals_between(before, tracer.totals())
    assert (delta["step"].calls, delta["step"].self_s) == (2, pytest.approx(2.0))
    assert (delta["late"].calls, delta["late"].self_s) == (1, pytest.approx(0.5))


@pytest.fixture
def target(monkeypatch) -> types.ModuleType:
    module = types.ModuleType("perf_trace_target")

    class Base:
        def inherited(self):
            return "base"

    class Thing(Base):
        def method(self):
            return "method"

        @classmethod
        def build(cls):
            return cls.__name__

        @staticmethod
        def helper():
            return "helper"

    module.Base, module.Thing = Base, Thing
    module.function = lambda: "function"
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_missing_hook_targets_are_skipped_and_counted(tracer, target):
    original = target.function
    tracer.install(
        [
            Hook("perf_trace_target", "function", "function", "x"),
            Hook("perf_trace_target", "gone", "gone", "x"),
            Hook("perf_trace_target", "Thing.gone", "gone", "x"),
            Hook("perf_trace_target", "Gone.method", "gone", "x"),
            Hook("perf_trace_no_such_module", "function", "gone", "x"),
        ]
    )
    assert tracer.missing == [
        "perf_trace_target:gone",
        "perf_trace_target:Thing.gone",
        "perf_trace_target:Gone.method",
        "perf_trace_no_such_module:function",
    ]
    assert target.function() == "function"
    assert tracer.totals()["function"].calls == 1
    tracer.uninstall()
    assert target.function is original


def test_install_wraps_every_kind_of_attribute_and_uninstall_restores(tracer, target):
    thing = target.Thing
    before = dict(vars(thing))
    tracer.install(
        [
            Hook("perf_trace_target", "Thing.method", "method", "x"),
            Hook("perf_trace_target", "Thing.build", "build", "x"),
            Hook("perf_trace_target", "Thing.helper", "helper", "x"),
            Hook("perf_trace_target", "Thing.inherited", "inherited", "x"),
        ]
    )
    assert tracer.missing == []
    instance = thing()
    assert (instance.method(), thing.build(), thing.helper(), instance.inherited()) == (
        "method", "Thing", "helper", "base",
    )
    # Wrapping the inherited method on the subclass leaves the base untouched.
    assert target.Base().inherited() == "base"
    assert {name: total.calls for name, total in tracer.totals().items()} == {
        "method": 1, "build": 1, "helper": 1, "inherited": 1,
    }
    tracer.uninstall()
    assert dict(vars(thing)) == before
    assert instance.inherited() == "base"
    assert tracer.totals()["inherited"].calls == 1
