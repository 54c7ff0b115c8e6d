"""A build's breakdown and machine model read region spans only.

The build's tracer also holds the ``BuildIndex`` and ``Level`` wrapper
spans and, under the process backend, one ``Worker[i]`` span per task.
None of them may reach ``BuildResult.breakdown`` or
``SimulatedMachine``.
"""

import pytest

from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.generators import erdos_renyi_gnm
from repro.parallel import ExecutionContext, SimulatedMachine
from repro.parallel.shm import ProcessBackend, process_backend_available

KERNELS = ["Support", "TrussDecomp", "Init", "SpNode", "SpEdge", "SmGraph", "SpNodeRemap"]


def _graph():
    return CSRGraph.from_edgelist(erdos_renyi_gnm(300, 2600, seed=11))


def _check(result):
    seconds = result.breakdown.seconds
    assert list(seconds) == KERNELS
    assert sum(seconds.values()) == result.seconds
    names = {sp.name for sp, _ in result.tracer.walk()}
    assert {"BuildIndex", "Level"} <= names
    machine = SimulatedMachine()
    # at one thread the model is the plain sum of region seconds: any
    # wrapper or worker span counted on top would show up here
    assert machine.predicted_time(result.tracer, 1) == pytest.approx(result.seconds)
    assert list(machine.kernel_curves(result.tracer, (1, 4))) == KERNELS


def test_serial_build_breakdown_is_region_spans_only():
    result = build_index(_graph(), "afforest", ctx=ExecutionContext())
    _check(result)


@pytest.mark.process_backend
@pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)
def test_process_build_breakdown_is_region_spans_only():
    with ExecutionContext(
        backend=ProcessBackend(min_items=0), num_workers=2
    ) as ctx:
        result = build_index(_graph(), "afforest", ctx=ctx)
    workers = [sp for sp, _ in result.tracer.walk() if "worker_id" in sp.attrs]
    assert workers, "the process build fanned out no worker tasks"
    _check(result)
