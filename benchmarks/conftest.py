"""Shared benchmark configuration.

Run with::

    pytest benchmarks/ --benchmark-only

Each experiment prints its tables (add ``-s`` to see them live) and
writes them to ``benchmarks/results/<experiment>.txt``. Experiments run
once (``benchmark.pedantic(..., rounds=1)``) — they are full pipelines,
not microbenchmarks.

Trace dumps
-----------
Set ``REPRO_TRACE_DIR=/some/dir`` to write one JSONL span trace per
bench invocation whose workload returns something traceable (a
``BuildResult``, an ``ExecutionContext``, or a ``Tracer``), each with a
run-provenance manifest beside it. ``equitruss info --trace FILE``
prints a dumped trace's per-kernel breakdown.
"""

import os
import re
from pathlib import Path

import pytest


def _extract_tracer(result):
    """Pull a Tracer out of whatever a workload returned, if any."""
    from repro.obs.trace import Tracer

    if isinstance(result, Tracer):
        return result
    tracer = getattr(result, "tracer", None)
    return tracer if isinstance(tracer, Tracer) else None


def _maybe_dump_trace(result, test_name: str) -> None:
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir:
        return
    tracer = _extract_tracer(result)
    if tracer is None:
        return
    from repro.obs.export import write_trace_jsonl
    from repro.obs.manifest import collect_manifest, write_manifest

    out_dir = Path(trace_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    safe = re.sub(r"[^A-Za-z0-9_.-]+", "_", test_name)
    path = write_trace_jsonl(tracer, out_dir / f"{safe}.jsonl")
    # every dumped trace ships with its provenance record, so a dump
    # is attributable to its commit and host
    write_manifest(
        collect_manifest(extra={"experiment": test_name}),
        f"{path}.manifest.json",
    )


def once(benchmark, fn, test_name: str | None = None):
    """Run a heavyweight experiment exactly once under pytest-benchmark."""
    if test_name is not None and os.environ.get("REPRO_TRACE_DIR"):
        # Ambient tracer: run_variant grafts each build's span tree into
        # it, so experiments that return plain summary dicts still dump
        # a full trace.
        from repro.obs.trace import Tracer, use_tracer

        ambient = Tracer()
        with use_tracer(ambient):
            result = benchmark.pedantic(fn, rounds=1, iterations=1)
        _maybe_dump_trace(result if ambient.roots == [] else ambient, test_name)
        return result
    return benchmark.pedantic(fn, rounds=1, iterations=1)


@pytest.fixture
def run_once(request):
    def _run(benchmark, fn):
        return once(benchmark, fn, test_name=request.node.name)

    return _run
