"""CI benchmark smoke: process backend + cross-process telemetry check.

Builds the EquiTruss index on a small synthetic graph with the serial
backend and with ``--backend process --workers 4`` (forcing fan-out by
zeroing the min-items gate, so the worker pool really runs even though
the graph is tiny), then asserts the whole observability contract:

* the indexes are bit-identical;
* every ``Worker[i]`` span in the coordinator trace contains at least
  one kernel span recorded *inside* the worker process;
* the worker-attributed counters shipped back in the task envelopes
  reduce bit-exactly to the serial-backend totals.

Both runs are recorded in ``BENCH_pr6.json`` — the process run carries
the per-worker kernel breakdown (``w{id}.{kernel}`` seconds) — with a
run-provenance manifest attached, and the trace / metrics / Prometheus
/ manifest artifacts land in ``--artifacts-dir`` for CI upload. Exits
nonzero on any failure — wired into CI as the ``bench-smoke`` job.

Usage::

    PYTHONPATH=src python benchmarks/smoke_process_backend.py \
        [--out PATH] [--artifacts-dir DIR] [--workers N]
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

#: Counters whose per-worker partials must sum to the serial totals.
WORKER_COUNTERS = (
    "repro.triangles.support_updates",
    "repro.truss.support_decrements",
    "repro.equitruss.superedge_candidates",
)


def _build(graph, backend, workers):
    """One instrumented build under its own metrics registry."""
    from repro.equitruss.pipeline import build_index
    from repro.obs.metrics import MetricsRegistry, use_registry
    from repro.parallel.context import ExecutionContext

    registry = MetricsRegistry()
    ctx = ExecutionContext(backend=backend, num_workers=workers)
    with use_registry(registry):
        t0 = time.perf_counter()
        res = build_index(graph, "afforest", ctx=ctx, num_workers=workers)
        elapsed = time.perf_counter() - t0
    return res, elapsed, ctx, registry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=None,
                        help="snapshot path (default benchmarks/results/BENCH_pr6.json)")
    parser.add_argument("--artifacts-dir", default=None, metavar="DIR",
                        help="write trace/metrics/prometheus/manifest artifacts here")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    from repro.bench.snapshot import PerfSnapshot, load_snapshot
    from repro.graph.csr import CSRGraph
    from repro.graph.generators import erdos_renyi_gnm
    from repro.obs.manifest import collect_manifest, write_manifest
    from repro.obs.report import per_worker_kernels
    from repro.parallel.shm import ProcessBackend, process_backend_available

    graph = CSRGraph.from_edgelist(erdos_renyi_gnm(500, 5000, seed=42))
    print(f"smoke graph: {graph.num_vertices} vertices / {graph.num_edges} edges")

    serial, t_serial, serial_ctx, serial_reg = _build(graph, "serial", 1)

    if not process_backend_available():
        # the smoke job runs on Linux where fork + /dev/shm exist; a
        # missing backend there is a regression, not an environment quirk
        print("FAIL: process backend unavailable", file=sys.stderr)
        return 1

    backend = ProcessBackend(min_items=0)
    process, t_process, proc_ctx, proc_reg = _build(graph, backend, args.workers)

    failures = []
    if not (serial.index == process.index):
        failures.append("process-backend index differs from serial")

    # ---- worker span shipping: every Worker[i] has in-worker children
    worker_spans = [
        s for s, _ in proc_ctx.tracer.walk() if "worker_id" in s.attrs
    ]
    empty = [s.name for s in worker_spans if not s.children]
    if not worker_spans:
        failures.append("no Worker[i] spans in the process trace")
    if empty:
        failures.append(f"worker spans without in-worker kernel spans: {empty[:5]}")

    # ---- bit-exact counter reduction: sum(worker partials) == serial
    serial_metrics = serial_reg.as_dict()
    proc_metrics = proc_reg.as_dict()
    counters_exact = True
    for name in WORKER_COUNTERS:
        s, p = serial_metrics.get(name), proc_metrics.get(name)
        if s is None or s != p:
            counters_exact = False
            failures.append(f"counter {name}: serial={s} process={p}")
        else:
            print(f"counter {name}: {s} == {p} (bit-exact)")

    # rolling JSONL stream opt-in (REPRO_METRICS_INTERVAL/_PATH): flush
    # one final snapshot of the process run's registry
    from repro.obs.exporter import emitter_from_env

    emitter = emitter_from_env(registry=proc_reg)
    if emitter is not None:
        emitter.path.parent.mkdir(parents=True, exist_ok=True)
        emitter.emit_once()
        print(f"metrics stream -> {emitter.path}")

    per_worker = per_worker_kernels(proc_ctx.tracer)
    print(f"indexes {'bit-identical' if not failures else 'CHECK FAILED'}; "
          f"serial {t_serial:.3f}s, process[{args.workers}] {t_process:.3f}s, "
          f"{len(worker_spans)} worker spans, "
          f"{len(per_worker)} per-worker kernel rows")

    # ---- snapshot: fig6-style sweep rows + per-worker kernel breakdown
    snap = PerfSnapshot("pr6", path=args.out)
    snap.add_run("ci_smoke", "gnm_500_5000", "afforest", "serial", 1,
                 t_serial, mode="measured",
                 kernels=serial.breakdown.seconds)
    snap.add_run("ci_smoke", "gnm_500_5000", "afforest", "process", args.workers,
                 t_process, mode="measured",
                 kernels={**process.breakdown.seconds, **per_worker},
                 identical_to_serial=not failures,
                 worker_spans=len(worker_spans))
    snap.derive("pr6.worker_counters_bit_exact", counters_exact)
    snap.derive("pr6.worker_spans_with_children",
                len(worker_spans) - len(empty))
    manifest = collect_manifest(ctx=proc_ctx, graph=graph,
                                dataset="gnm_500_5000",
                                extra={"experiment": "ci_smoke"})
    snap.attach_manifest(manifest)
    path = snap.write()
    load_snapshot(path)  # schema validation round trip
    print(f"snapshot OK -> {path}")

    # ---- artifacts for CI upload
    if args.artifacts_dir:
        from repro.obs.export import write_metrics_json, write_trace_jsonl
        from repro.obs.exporter import render_prometheus

        art = Path(args.artifacts_dir)
        art.mkdir(parents=True, exist_ok=True)
        write_trace_jsonl(proc_ctx.tracer, art / "smoke_trace.jsonl")
        write_metrics_json(proc_reg, art / "smoke_metrics.json")
        (art / "smoke_metrics.prom").write_text(
            render_prometheus(proc_reg), encoding="utf-8"
        )
        write_manifest(manifest, art / "smoke_manifest.json")
        print(f"artifacts -> {art}")

    serial_ctx.close()
    proc_ctx.close()
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
