"""Unit tests for region spans and the machine model."""

import pytest

from repro.equitruss.kernels import KernelBreakdown
from repro.errors import InvalidParameterError
from repro.obs.trace import Tracer
from repro.parallel import ExecutionContext, MachineProfile, SimulatedMachine
from repro.parallel.context import region_spans


def add_region(tracer, name, seconds, work=1, rounds=1, intensity="mixed", parallel=True):
    """A hand-built region span, as ``ExecutionContext.region`` records it."""
    return tracer.add(
        name, seconds, work=work, rounds=rounds, intensity=intensity, parallel=parallel
    )


def make_trace():
    tr = Tracer()
    add_region(tr, "setup", 0.1, parallel=False)
    add_region(tr, "kernel", 1.0, work=10_000, rounds=10, intensity="memory")
    add_region(tr, "merge", 0.2, work=1_000, rounds=1, intensity="compute")
    return tr


def test_region_validation():
    machine = SimulatedMachine()
    tr = Tracer()
    add_region(tr, "x", 1.0, intensity="quantum")
    with pytest.raises(InvalidParameterError):
        machine.predicted_time(tr, 2)
    tr = Tracer()
    add_region(tr, "x", 1.0, rounds=0)
    with pytest.raises(InvalidParameterError):
        machine.scaling_curve(tr)


def test_region_span_measures_time():
    ctx = ExecutionContext()
    with ctx.region("r", work=5):
        pass
    regions = region_spans(ctx.tracer)
    assert len(regions) == 1
    assert regions[0].seconds >= 0
    assert regions[0].attrs["work"] == 5


def test_region_handle_add_round():
    ctx = ExecutionContext()
    with ctx.region("r", work=0, rounds=0):
        ctx.add_round(100)
        ctx.add_round(50)
    (r,) = region_spans(ctx.tracer)
    assert r.attrs["work"] == 150 and r.attrs["rounds"] == 2


def test_trace_aggregates():
    tr = make_trace()
    regions = region_spans(tr)
    assert sum(r.seconds for r in regions if not r.attrs["parallel"]) == pytest.approx(0.1)
    assert KernelBreakdown.from_trace(tr).total == pytest.approx(1.3)
    assert sum(r.attrs["work"] for r in regions if r.attrs["parallel"]) == 11_000
    names = KernelBreakdown.from_trace(tr).seconds
    assert list(names) == ["setup", "kernel", "merge"]


def test_wrapper_and_worker_spans_are_not_regions():
    machine = SimulatedMachine()
    flat = make_trace()
    nested = Tracer()
    with nested.span("BuildIndex", variant="afforest"):
        add_region(nested, "setup", 0.1, parallel=False)
        with nested.span("Level", k=3):
            with nested.span(
                "kernel", work=10_000, rounds=10, intensity="memory", parallel=True
            ) as kernel:
                for i in range(2):
                    nested.add(f"Worker[{i}]", 0.4, worker_id=i, work=5_000)
        kernel.seconds = 1.0
        add_region(nested, "merge", 0.2, work=1_000, rounds=1, intensity="compute")
    assert [r.name for r in region_spans(nested)] == ["setup", "kernel", "merge"]
    for p in (1, 2, 16, 128):
        assert machine.predicted_time(nested, p) == machine.predicted_time(flat, p)
    assert set(machine.kernel_curves(nested)) == {"setup", "kernel", "merge"}


def test_predicted_time_monotone_decreasing():
    machine = SimulatedMachine()
    tr = make_trace()
    times = [machine.predicted_time(tr, p) for p in (1, 2, 4, 8, 16, 32, 64, 128)]
    assert times[0] == pytest.approx(1.3)
    for a, b in zip(times, times[1:]):
        assert b < a


def test_serial_fraction_bounds_speedup():
    machine = SimulatedMachine()
    tr = make_trace()
    t128 = machine.predicted_time(tr, 128)
    # serial 0.1s can never be beaten
    assert t128 > 0.1


def test_efficiency_decreases():
    machine = SimulatedMachine()
    curve = machine.scaling_curve(make_trace())
    eff = curve.efficiencies()
    assert eff[0] == pytest.approx(100.0)
    assert all(a >= b - 1e-9 for a, b in zip(eff, eff[1:]))
    assert eff[-1] < 50.0


def test_compute_regions_scale_better_than_memory():
    machine = SimulatedMachine()
    mem = Tracer()
    add_region(mem, "k", 1.0, intensity="memory")
    cpu = Tracer()
    add_region(cpu, "k", 1.0, intensity="compute")
    assert machine.predicted_time(cpu, 128) < machine.predicted_time(mem, 128)


def test_kernel_curves_grouping():
    machine = SimulatedMachine()
    curves = machine.kernel_curves(make_trace())
    assert set(curves) == {"setup", "kernel", "merge"}
    assert curves["setup"].seconds[0] == pytest.approx(0.1)


def test_profile_validation():
    with pytest.raises(InvalidParameterError):
        MachineProfile(max_threads=0)
    with pytest.raises(InvalidParameterError):
        MachineProfile(bandwidth_fraction={"compute": 2.0, "mixed": 0.5, "memory": 0.5})
    with pytest.raises(InvalidParameterError):
        MachineProfile(bandwidth_fraction={"mixed": 0.5, "memory": 0.5})


def test_scaling_curve_respects_max_threads():
    machine = SimulatedMachine(MachineProfile(max_threads=8))
    curve = machine.scaling_curve(make_trace())
    assert max(curve.threads) == 8
