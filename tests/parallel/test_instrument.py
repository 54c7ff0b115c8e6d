"""Instrumented regions as spans: floors, rounds, attrs, nesting."""

import pytest

from repro.equitruss.kernels import KernelBreakdown
from repro.errors import InvalidParameterError
from repro.obs.trace import Tracer
from repro.parallel import ExecutionContext, SimulatedMachine
from repro.parallel.context import region_spans


def _only_region(ctx):
    (region,) = region_spans(ctx.tracer)
    return region


def test_region_defaults_record_unit_work_and_rounds():
    ctx = ExecutionContext()
    with ctx.region("k") as sp:
        pass
    assert _only_region(ctx) is sp
    assert (sp.attrs["work"], sp.attrs["rounds"]) == (1, 1)
    assert sp.attrs["parallel"] is True
    assert sp.attrs["intensity"] == "mixed"
    assert sp.seconds >= 0.0


def test_add_round_accumulates_work_and_rounds():
    ctx = ExecutionContext()
    # the incremental-discovery pattern: open with work=0, rounds=0
    with ctx.region("sv", work=0, rounds=0):
        ctx.add_round(5)
        ctx.add_round(3)
        ctx.add_round(0)
    region = _only_region(ctx)
    assert region.attrs["work"] == 8
    assert region.attrs["rounds"] == 3


def test_add_round_on_top_of_preset_totals():
    ctx = ExecutionContext()
    with ctx.region("k", work=10, rounds=2):
        ctx.add_round(4)
    region = _only_region(ctx)
    assert region.attrs["work"] == 14
    assert region.attrs["rounds"] == 3


def test_empty_incremental_region_clamps_to_one():
    ctx = ExecutionContext()
    with ctx.region("k", work=0, rounds=0) as sp:
        sp.set(work=-3)  # a late update below the floor is floored too
    region = _only_region(ctx)
    assert (region.attrs["work"], region.attrs["rounds"]) == (1, 1)


def test_add_round_outside_region_is_a_noop():
    ctx = ExecutionContext()
    ctx.add_round(100)
    ctx.annotate(ignored=True)
    assert len(ctx.tracer) == 0
    with ctx.tracer.span("Wrapper"):  # a plain span is not a region
        ctx.add_round(100)
    (wrapper,) = ctx.tracer.roots
    assert wrapper.attrs == {}
    assert region_spans(ctx.tracer) == []


def test_annotate_targets_innermost_region():
    ctx = ExecutionContext()
    with ctx.region("outer"):
        ctx.annotate(level="outer")
        with ctx.region("inner"):
            ctx.annotate(level="inner", workers=3)
    inner, outer = region_spans(ctx.tracer)
    assert inner.attrs["level"] == "inner" and inner.attrs["workers"] == 3
    assert outer.attrs["level"] == "outer" and "workers" not in outer.attrs


def test_by_name_first_seen_ordering_and_aggregation():
    tracer = Tracer()
    for name, seconds in (("b", 1.0), ("a", 2.0), ("b", 3.0)):
        tracer.add(name, seconds, work=1, rounds=1, intensity="mixed", parallel=True)
    agg = KernelBreakdown.from_trace(tracer).seconds
    assert list(agg) == ["b", "a"]
    assert agg["b"] == pytest.approx(4.0)
    assert agg["a"] == pytest.approx(2.0)


def test_extend_concatenates_regions_and_grafts_tracer():
    a, b = ExecutionContext(), ExecutionContext()
    with a.region("x"):
        pass
    with b.region("y"):
        pass
    a.tracer.graft(b.tracer)
    assert [sp.name for sp in region_spans(a.tracer)] == ["x", "y"]
    assert [sp.name for sp, _ in a.tracer.walk()] == ["x", "y"]


def test_totals_split_serial_and_parallel():
    tracer = Tracer()
    tracer.add("p", 1.0, work=10, rounds=2, intensity="mixed", parallel=True)
    tracer.add("s", 2.0, work=99, rounds=9, intensity="mixed", parallel=False)
    assert KernelBreakdown.from_trace(tracer).total == pytest.approx(3.0)
    machine = SimulatedMachine()
    # the serial region keeps its 2.0 s at any thread count
    assert machine.predicted_time(tracer, 1) == pytest.approx(3.0)
    assert 2.0 < machine.predicted_time(tracer, 64) < 2.5


def test_region_records_even_on_exception():
    ctx = ExecutionContext()
    with pytest.raises(ValueError):
        with ctx.region("boom", work=0, rounds=0):
            ctx.add_round(7)
            raise ValueError("x")
    region = _only_region(ctx)
    assert region.name == "boom"
    assert region.attrs["work"] == 7
    ctx.add_round(1)  # the failed region is no longer the target
    assert region.attrs["work"] == 7


def test_nested_regions_nest_in_the_tracer():
    ctx = ExecutionContext()
    with ctx.region("outer"):
        with ctx.region("inner"):
            ctx.add_round(5)
        ctx.add_round(3)
    # regions in close order: inner first
    assert [r.name for r in region_spans(ctx.tracer)] == ["inner", "outer"]
    (root,) = ctx.tracer.roots
    assert root.name == "outer"
    assert [c.name for c in root.children] == ["inner"]
    assert root.attrs["work"] == 4
    assert root.children[0].attrs["work"] == 6


def test_region_attrs_mirrored_onto_span():
    ctx = ExecutionContext()
    with ctx.region("k", work=0, rounds=0, intensity="compute"):
        ctx.add_round(5)
    (root,) = ctx.tracer.roots
    assert root.attrs == {
        "work": 5, "rounds": 1, "intensity": "compute", "parallel": True,
        "ws_peak": 0,
    }


def test_invalid_intensity_rejected():
    machine = SimulatedMachine()
    for bad in ({"intensity": "gpu", "rounds": 1}, {"intensity": "mixed", "rounds": 0}):
        tracer = Tracer()
        tracer.add("x", 0.1, work=1, parallel=True, **bad)
        with pytest.raises(InvalidParameterError):
            machine.predicted_time(tracer, 4)
