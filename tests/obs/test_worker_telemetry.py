"""Cross-process telemetry: task envelopes, span shipping, bit-exact
counter reduction, and the lossless export round-trip."""

import json

import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_example_graph
from repro.obs import metrics as metrics_mod
from repro.obs.export import (
    read_trace_jsonl,
    spans_from_records,
    trace_records,
    write_trace_jsonl,
)
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.trace import Tracer
from repro.obs.worker import (
    WORKER_ENVELOPE_VERSION,
    capture_task,
    merge_envelope,
)
from repro.parallel.shm import process_backend_available

needs_fork = pytest.mark.skipif(
    not process_backend_available(),
    reason="fork or POSIX shared memory unavailable",
)

#: Counters whose process-run registry totals must equal the serial
#: totals bit-exactly, wherever the increments happen.
WORKER_COUNTERS = (
    "repro.triangles.support_updates",
    "repro.truss.support_decrements",
    "repro.equitruss.superedge_candidates",
)

#: With ``min_items=0`` every increment of these counters happens
#: *inside a worker task*, so their per-worker span partials must also
#: reduce to the serial totals.
WORKER_SPAN_COUNTERS = WORKER_COUNTERS


def _noisy_fn(x):
    from repro.obs.trace import current_tracer

    metrics_mod.inc("repro.test.units", x)
    metrics_mod.observe("repro.test.task_part", float(x))
    with current_tracer().span("inner"):
        pass
    return x * 2


# ----------------------------------------------------------------------
# capture_task / merge_envelope units (no fork required: the envelope
# protocol is identical inline and cross-process)
# ----------------------------------------------------------------------

def test_capture_task_isolates_and_ships_telemetry():
    outer = MetricsRegistry()
    with use_registry(outer):
        out, seconds, env = capture_task("MyKernel", _noisy_fn, (21,))
    assert out == 42
    assert seconds >= 0
    assert env["version"] == WORKER_ENVELOPE_VERSION
    assert isinstance(env["pid"], int)
    # nothing leaked into the caller's registry...
    assert outer.names() == []
    # ...everything landed in the envelope
    assert env["metrics"]["counters"]["repro.test.units"] == 21
    names = [r["name"] for r in env["spans"] if r["type"] == "span"]
    assert names == ["MyKernel", "inner"]


def test_merge_envelope_grafts_spans_and_reduces_metrics():
    _, _, env = capture_task("K", _noisy_fn, (5,))
    _, _, env2 = capture_task("K", _noisy_fn, (7,))
    tracer = Tracer()
    registry = MetricsRegistry()
    parent = tracer.add("Worker[0]", 0.01, worker_id=0)
    merge_envelope(env, parent, registry)
    merge_envelope(env2, tracer.add("Worker[1]", 0.01, worker_id=1), registry)
    assert [c.name for c in parent.children] == ["K"]
    assert parent.attrs["pid"] == env["pid"]
    assert parent.attrs["counters"] == {"repro.test.units": 5}
    # counters add across envelopes, histograms merge exactly
    assert registry.counter("repro.test.units").value == 12
    h = registry.histogram("repro.test.task_part")
    assert h.count == 2 and h.total == 12.0


def test_worker_spans_survive_jsonl_round_trip_bit_identically(tmp_path):
    """Export → import → re-export of a grafted trace is byte-stable."""
    tracer = Tracer()
    registry = MetricsRegistry()
    for i, x in enumerate((3, 4)):
        _, seconds, env = capture_task("K", _noisy_fn, (x,))
        parent = tracer.add(f"Worker[{i}]", seconds, worker_id=i, n_tasks=2)
        merge_envelope(env, parent, registry)

    records = trace_records(tracer)
    path = write_trace_jsonl(tracer, tmp_path / "t.jsonl")
    loaded = read_trace_jsonl(path)

    rebuilt = Tracer()
    rebuilt.roots.extend(spans_from_records(loaded))
    records2 = trace_records(rebuilt)
    assert records2 == records
    # and the files themselves are byte-identical
    path2 = write_trace_jsonl(rebuilt, tmp_path / "t2.jsonl")
    assert path2.read_bytes() == path.read_bytes()


def test_envelope_is_json_serializable():
    _, _, env = capture_task("K", _noisy_fn, (9,))
    json.dumps(env)  # no numpy scalars, no exotic types


# ----------------------------------------------------------------------
# the acceptance run: 4 fork workers on the Fig. 3 graph
# ----------------------------------------------------------------------

def _build_with_registry(backend_name, workers):
    from repro.equitruss import build_index
    from repro.parallel.context import ExecutionContext

    g = CSRGraph.from_edgelist(paper_example_graph())
    registry = MetricsRegistry()
    with use_registry(registry):
        if backend_name == "process":
            from repro.parallel.shm import ProcessBackend

            backend = ProcessBackend(min_items=0)
        else:
            backend = backend_name
        ctx = ExecutionContext(backend=backend, num_workers=workers)
        try:
            result = build_index(g, ctx=ctx)
        finally:
            if backend_name == "process":
                ctx.close()
    return result, ctx, registry


@pytest.mark.process_backend
@needs_fork
def test_four_worker_build_ships_spans_and_reduces_counters_bit_exactly():
    serial_res, serial_ctx, serial_reg = _build_with_registry("serial", 1)
    proc_res, proc_ctx, proc_reg = _build_with_registry("process", 4)

    # the four-worker index is bit-identical to the serial one
    assert proc_res.index == serial_res.index

    # every Worker[i] span contains >= 1 kernel span recorded inside the
    # worker process, attributed via worker_id/pid
    worker_spans = [
        s for s, _ in proc_ctx.tracer.walk() if "worker_id" in s.attrs
    ]
    assert worker_spans, "process run produced no worker fan-out spans"
    import os

    for s in worker_spans:
        assert s.children, f"{s.name} shipped no in-worker kernel spans"
        assert s.attrs["pid"] != os.getpid()
        assert s.attrs["n_tasks"] >= 1
        assert s.attrs["bytes_touched"] >= 0

    # worker-attributed counters reduce to the serial totals bit-exactly
    serial = serial_reg.as_dict()
    parallel = proc_reg.as_dict()
    for name in WORKER_COUNTERS:
        assert name in serial, f"serial run never incremented {name}"
        assert parallel.get(name) == serial[name]

    # the per-worker partials stamped onto the spans also sum exactly
    for name in WORKER_SPAN_COUNTERS:
        partial = sum(
            (s.attrs.get("counters") or {}).get(name, 0) for s in worker_spans
        )
        assert partial == serial[name]

    # the fan-out latency histogram observed one value per task
    task_ms = parallel["repro.parallel.task_ms"]
    assert task_ms["count"] == len(worker_spans)
    assert task_ms["buckets"]["counts"][-1] == 0  # nothing past 10 s
