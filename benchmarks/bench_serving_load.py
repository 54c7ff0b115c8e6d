"""Serving-frontend load bench: throughput vs tail latency curves.

Boots a real :class:`~repro.serve.frontend.ServingFrontend` (TCP +
shard worker subprocesses mmap-attaching one persistent store) over a
generated graph, then drives it with both standard traffic models from
:mod:`repro.serve.loadgen`:

* **closed-loop sweep** — 1..N concurrent clients at full tilt; the
  largest run's achieved QPS is taken as measured capacity;
* **open-loop sweep** — fixed arrival rates at fractions of that
  capacity (coordinated-omission-free), tracing the throughput-vs-p99
  knee that the closed loop hides.

Before any load, a differential spot-check replays a sample of
``(vertex, k)`` queries through the wire and compares bit-for-bit
against an in-process :class:`~repro.serve.engine.QueryEngine` on the
same store — a bench run on a frontend that answers wrong is worthless.

Results land in ``BENCH_pr8.json`` (schema-validated, run manifest
attached) with ``pr8.closed_peak_qps`` / ``pr8.open_curve`` derived
summaries; ``--artifacts-dir`` additionally dumps the merged
Prometheus exposition, the JSON metrics snapshot, and final server
stats for CI upload.

Usage::

    PYTHONPATH=src python benchmarks/bench_serving_load.py \
        [--smoke] [--shards N] [--out PATH] [--artifacts-dir DIR] \
        [--vertices N] [--edges M] [--seconds S] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path


def _build_store(n: int, m: int, seed: int, variant: str, workdir: Path):
    """Generate a graph, build the index, persist the store; (graph, path)."""
    from repro.equitruss.pipeline import build_index
    from repro.graph.csr import CSRGraph
    from repro.graph.generators import erdos_renyi_gnm

    graph = CSRGraph.from_edgelist(erdos_renyi_gnm(n, m, seed=seed))
    store_path = workdir / f"gnm_{n}_{m}.eqtsidx"
    t0 = time.perf_counter()
    build_index(graph, variant, store_path=store_path)
    print(
        f"graph: {graph.num_vertices} vertices / {graph.num_edges} edges; "
        f"store built in {time.perf_counter() - t0:.2f}s "
        f"({store_path.stat().st_size / 1e6:.1f} MB)"
    )
    return graph, store_path


def _differential_spotcheck(host, port, store_path, ks, samples, seed) -> int:
    """Wire answers vs in-process engine on ``samples`` random queries."""
    import random

    from repro.serve.client import ServeClient
    from repro.serve.protocol import serialize_communities
    from repro.store import attach_store

    rng = random.Random(seed)
    mismatches = 0
    with attach_store(store_path) as store:
        engine = store.engine(cache_size=0)
        n = store.graph.num_vertices
        with ServeClient(host, port) as client:
            for _ in range(samples):
                vertex = rng.randrange(n)
                k = rng.choice(ks)
                expected = serialize_communities(engine.query(vertex, k, record=False))
                if client.query(vertex, k) != expected:
                    mismatches += 1
                    print(f"MISMATCH at vertex={vertex} k={k}", file=sys.stderr)
    return mismatches


def _notes(report) -> dict:
    """LoadReport summary as ``add_run`` notes (drop clashing kwargs)."""
    return {
        key: value
        for key, value in report.as_dict().items()
        if key not in ("mode", "seconds")
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized graph and ~seconds-long load windows")
    parser.add_argument("--out", default=None,
                        help="snapshot path (default benchmarks/results/BENCH_pr8.json)")
    parser.add_argument("--artifacts-dir", default=None, metavar="DIR")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--edges", type=int, default=None)
    parser.add_argument("--variant", default="afforest")
    parser.add_argument("--seconds", type=float, default=None,
                        help="load window per sweep point")
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-pending", type=int, default=4096)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args(argv)

    from repro.bench.snapshot import PerfSnapshot, load_snapshot
    from repro.obs.manifest import collect_manifest
    from repro.serve.frontend import FrontendConfig, FrontendThread
    from repro.serve.loadgen import (
        closed_loop,
        default_ks,
        discover_universe,
        open_loop,
    )

    n = args.vertices or (600 if args.smoke else 20_000)
    m = args.edges or (4_000 if args.smoke else 300_000)
    seconds = args.seconds or (1.5 if args.smoke else 10.0)
    client_sweep = [1, 2] if args.smoke else [1, 2, 4, 8]
    dataset = f"gnm_{n}_{m}"

    workdir = Path(tempfile.mkdtemp(prefix="bench_serving_"))
    try:
        graph, store_path = _build_store(
            n, m, args.seed, args.variant, workdir
        )
        config = FrontendConfig(
            store_path=store_path,
            num_shards=args.shards,
            max_batch=args.max_batch,
            max_pending=args.max_pending,
        )
        snap = PerfSnapshot("pr8", path=args.out)
        exp_closed = "serving_closed_smoke" if args.smoke else "serving_closed"
        exp_open = "serving_open_smoke" if args.smoke else "serving_open"

        with FrontendThread(config) as server:
            host, port = server.host, server.port
            print(f"frontend up at {host}:{port} with {args.shards} shards")
            num_vertices, kmax = discover_universe(host, port)
            ks = default_ks(kmax)
            print(f"universe: {num_vertices} vertices, kmax={kmax}, ks={ks}")

            spot = 40 if args.smoke else 200
            mismatches = _differential_spotcheck(
                host, port, store_path, ks, spot, args.seed
            )
            if mismatches:
                print(f"FAIL: {mismatches}/{spot} differential mismatches",
                      file=sys.stderr)
                return 1
            print(f"differential spot-check: {spot} queries bit-identical")

            # ---- closed-loop sweep: capacity at rising concurrency
            closed_reports = []
            for clients in client_sweep:
                rep = closed_loop(
                    host, port, clients=clients, seconds=seconds,
                    num_vertices=num_vertices, ks=ks, seed=args.seed,
                )
                closed_reports.append(rep)
                p50, p99 = rep.percentile_ms(50), rep.percentile_ms(99)
                print(
                    f"closed x{clients}: {rep.achieved_qps:8.1f} qps  "
                    f"p50 {p50 if p50 is None else round(p50, 2)} ms  "
                    f"p99 {p99 if p99 is None else round(p99, 2)} ms  "
                    f"({rep.ok} ok / {rep.rejected} rejected)"
                )
                snap.add_run(
                    exp_closed, f"{dataset}_c{clients}", args.variant,
                    "frontend", args.shards, rep.seconds, mode="measured",
                    **_notes(rep),
                )
            peak_qps = max(r.achieved_qps for r in closed_reports)

            # ---- open-loop sweep: p99 vs offered rate up to capacity
            open_reports = []
            for frac in (0.25, 0.5, 0.75, 1.0):
                rate = max(1.0, peak_qps * frac)
                rep = open_loop(
                    host, port, rate=rate, seconds=seconds,
                    num_vertices=num_vertices, ks=ks, seed=args.seed,
                )
                open_reports.append(rep)
                p99 = rep.percentile_ms(99)
                print(
                    f"open @{rate:8.1f} qps offered: "
                    f"{rep.achieved_qps:8.1f} achieved  "
                    f"p99 {p99 if p99 is None else round(p99, 2)} ms  "
                    f"({rep.ok} ok / {rep.rejected} rejected)"
                )
                snap.add_run(
                    exp_open, f"{dataset}_f{int(frac * 100)}", args.variant,
                    "frontend", args.shards, rep.seconds, mode="measured",
                    **_notes(rep),
                )

            # ---- artifacts: merged metrics + stats off the live server
            from repro.serve.client import ServeClient

            with ServeClient(host, port) as client:
                prom_text = client.metrics_prometheus()
                metrics_json = client.metrics_json()
                final_stats = client.stats()

        curve = [
            {"offered_qps": r.offered_qps, "achieved_qps": r.achieved_qps,
             "p50_ms": r.percentile_ms(50), "p99_ms": r.percentile_ms(99),
             "rejected": r.rejected}
            for r in open_reports
        ]
        snap.derive("pr8.closed_peak_qps", round(peak_qps, 1))
        snap.derive("pr8.open_curve", curve)
        snap.derive("pr8.differential_spotcheck", True)
        snap.derive("pr8.shards", args.shards)
        best_p99 = min(
            (r.percentile_ms(99) for r in closed_reports if r.percentile_ms(99)),
            default=None,
        )
        if best_p99 is not None:
            snap.derive("pr8.closed_best_p99_ms", round(best_p99, 3))
        snap.attach_manifest(collect_manifest(
            graph=graph, dataset=dataset,
            extra={"experiment": exp_closed, "shards": args.shards,
                   "max_batch": args.max_batch},
        ))
        path = snap.write()
        load_snapshot(path)  # schema round trip
        print(f"snapshot OK -> {path}")

        if args.artifacts_dir:
            art = Path(args.artifacts_dir)
            art.mkdir(parents=True, exist_ok=True)
            (art / "serving_metrics.prom").write_text(prom_text, encoding="utf-8")
            (art / "serving_metrics.json").write_text(
                json.dumps(metrics_json, indent=2, sort_keys=True),
                encoding="utf-8",
            )
            (art / "serving_stats.json").write_text(
                json.dumps(final_stats, indent=2, sort_keys=True),
                encoding="utf-8",
            )
            if path.parent.resolve() != art.resolve():  # --out may point here
                shutil.copy2(path, art / path.name)
            print(f"artifacts -> {art}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
