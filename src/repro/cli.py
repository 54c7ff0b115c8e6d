"""Command-line interface: ``python -m repro`` / ``equitruss``.

Subcommands
-----------
generate
    Materialize a synthetic dataset stand-in or a generator model to a
    graph file (``.npz`` or SNAP text).
index
    Build the EquiTruss index for a graph file and persist it as an
    ``.eqtsidx`` store, the one index file every other command reads.
query
    Answer local community queries from a store.
serve
    Run the sharded TCP serving frontend over a persisted store.
loadgen
    Drive open/closed-loop load against a running frontend.
info
    Summarize a graph or store file, or (``--trace``) print the
    per-kernel breakdown of a saved JSONL trace.

Every command that fails on a library error or an unreadable file
prints ``FAILED: <message>`` on stderr and exits 1.

``index`` accepts ``--trace-out``/``--metrics-out`` to export the run's
span trace (JSONL) and metrics snapshot (JSON); the global
``--log-level`` flag enables structured key=value logging.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro import __version__


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.graph import generators, io
    from repro.graph.datasets import DATASETS, load_dataset

    if args.model in DATASETS:
        edges = load_dataset(args.model, scale_factor=args.scale_factor)
    elif args.model == "rmat":
        edges = generators.rmat_graph(args.scale, args.edge_factor, seed=args.seed)
    elif args.model == "gnm":
        edges = generators.erdos_renyi_gnm(args.n, args.m, seed=args.seed)
    else:
        print(f"unknown model {args.model!r}", file=sys.stderr)
        return 2
    out = Path(args.out)
    if out.suffix == ".npz":
        io.save_npz(edges, out)
    else:
        io.write_snap_text(edges, out)
    print(f"wrote {edges.num_vertices} vertices / {edges.num_edges} edges -> {out}")
    return 0


def _make_context(args: argparse.Namespace):
    """ExecutionContext from the shared --backend/--workers/--dtype flags.

    ``--backend process`` degrades to the serial backend (with a warning
    on stderr) where ``fork`` or POSIX shared memory is unavailable, so
    scripted invocations keep working across platforms.
    """
    from repro.parallel.context import ExecutionContext

    backend = getattr(args, "backend", "serial")
    if backend == "process":
        from repro.parallel.shm import process_backend_available

        if not process_backend_available():
            print(
                "warning: process backend unavailable on this platform "
                "(no fork or POSIX shared memory); using serial backend",
                file=sys.stderr,
            )
            backend = "serial"
    return ExecutionContext(
        backend=backend,
        num_workers=getattr(args, "workers", 1) or 1,
        dtype=getattr(args, "dtype", "auto"),
    )


def _cmd_index(args: argparse.Namespace) -> int:
    from repro.equitruss import build_index
    from repro.graph.io import load_graph
    from repro.obs.logging import get_logger, kv
    from repro.obs.metrics import get_registry, reset_metrics
    from repro.obs.report import format_bytes

    log = get_logger("cli")
    reset_metrics()  # the metrics file reflects this run only
    ctx = _make_context(args)
    graph = load_graph(args.graph, ctx=ctx)
    log.info(kv("load_graph", path=args.graph, vertices=graph.num_vertices,
                edges=graph.num_edges, dtype=graph.index_dtype.name))
    result = build_index(
        graph, variant=args.variant, ctx=ctx,
        store_path=args.out, store_generation=args.store_generation,
    )
    index = result.index
    index.validate()
    stats = index.stats()
    size = Path(result.store_path).stat().st_size
    print(
        f"wrote store (gen {args.store_generation}, "
        f"{format_bytes(size)}) -> {result.store_path}"
    )
    log.info(kv("build_index", variant=args.variant, seconds=f"{result.seconds:.4f}",
                supernodes=stats["num_supernodes"],
                superedges=stats["num_superedges"]))
    print(
        f"built {args.variant} index in {result.seconds:.3f}s: "
        f"{stats['num_supernodes']} supernodes, {stats['num_superedges']} superedges, "
        f"kmax={stats['kmax']}"
    )
    registry = get_registry()
    ws_peak = registry.gauge("repro.mem.workspace_high_water").value
    print(
        f"dtype={ctx.edge_dtype(graph.num_edges).name} "
        f"(policy {ctx.dtype.name}), peak workspace {format_bytes(ws_peak)}"
    )
    if args.breakdown:
        for name, secs in result.breakdown.seconds.items():
            print(f"  {name:<12} {secs:8.4f}s")
    if args.trace_out:
        from repro.obs.export import write_trace_jsonl

        path = write_trace_jsonl(result.tracer, args.trace_out)
        print(f"wrote trace -> {path}")
        log.info(kv("trace_out", path=str(path), spans=len(result.tracer)))
    if args.metrics_out:
        from repro.obs.export import write_metrics_json

        registry = get_registry()
        path = write_metrics_json(registry, args.metrics_out)
        print(f"wrote metrics ({len(registry.names())} names) -> {path}")
        log.info(kv("metrics_out", path=str(path), names=len(registry.names())))
    if args.prom_out:
        from repro.obs.exporter import render_prometheus

        Path(args.prom_out).write_text(
            render_prometheus(get_registry()), encoding="utf-8"
        )
        print(f"wrote prometheus exposition -> {args.prom_out}")
    manifest_out = args.manifest_out
    if manifest_out is None and args.trace_out:
        # every exported trace ships with its provenance record
        manifest_out = f"{args.trace_out}.manifest.json"
    if manifest_out:
        from repro.obs.manifest import collect_manifest, write_manifest

        doc = collect_manifest(
            ctx=ctx, graph=graph, dataset=str(args.graph),
            extra={"command": "index", "variant": args.variant},
        )
        path = write_manifest(doc, manifest_out)
        print(f"wrote manifest -> {path}")
        log.info(kv("manifest_out", path=str(path)))
    ctx.close()  # release worker processes / shared segments promptly
    return 0


def _parse_batch_file(path: str, default_k: int | None) -> list[tuple[int, int]]:
    """Read ``vertex [k]`` request lines; blank lines and # comments ok."""
    requests: list[tuple[int, int]] = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (1, 2):
            raise ValueError(f"{path}:{lineno}: expected 'vertex [k]', got {raw!r}")
        vertex = int(parts[0])
        k = int(parts[1]) if len(parts) == 2 else default_k
        if k is None:
            raise ValueError(
                f"{path}:{lineno}: no k on the line and no --k default given"
            )
        requests.append((vertex, k))
    return requests


def _query_by_k(engine, requests: list[tuple[int, int]]) -> list:
    """One ``engine.query_many`` per distinct k; answers in request order."""
    by_k: dict[int, list[int]] = {}
    for i, (_, k) in enumerate(requests):
        by_k.setdefault(k, []).append(i)
    answers: list = [None] * len(requests)
    for k, idxs in by_k.items():
        batch = engine.query_many([requests[i][0] for i in idxs], k)
        for i, communities in zip(idxs, batch):
            answers[i] = communities
    return answers


def _print_communities(communities, label: str) -> None:
    for i, c in enumerate(communities):
        verts = c.vertices()
        head = ", ".join(map(str, verts[:12].tolist()))
        more = "" if verts.size <= 12 else f", ... ({verts.size} total)"
        print(f"[{i}] k={c.k} edges={c.num_edges} vertices={{{head}{more}}}")
    if not communities:
        print(f"{label}: no community at the requested level")


def _cmd_query(args: argparse.Namespace) -> int:
    import time

    from repro.community import (
        max_k_communities,
        search_communities,
        top_r_communities,
    )
    from repro.store import attach_store

    use_components = args.engine == "components"
    if use_components and (args.max_k or args.top_r is not None):
        print("--max-k/--top-r require --engine bfs", file=sys.stderr)
        return 2
    requests = None
    if args.batch_file:
        if args.vertex is not None:
            print("--batch-file and --vertex are mutually exclusive", file=sys.stderr)
            return 2
        try:
            requests = _parse_batch_file(args.batch_file, args.k)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    elif args.vertex is None:
        print("either --vertex or --batch-file is required", file=sys.stderr)
        return 2
    if requests is None and not args.max_k and args.top_r is None and args.k is None:
        print("either --k, --top-r, or --max-k is required", file=sys.stderr)
        return 2

    with _make_context(args) as ctx:  # its close releases the mapping
        store = attach_store(args.index, ctx=ctx)
        index = store.index
        engine = None
        if use_components:
            # the stored component tables: no union-find sweep at startup
            engine = store.engine()
            if args.warm_cache:
                print(f"warmed {engine.warm()} communities")

        if requests is not None:
            t0 = time.perf_counter()
            with ctx.region("ServeBatch", work=len(requests), parallel=False):
                if use_components:
                    answers = _query_by_k(engine, requests)
                else:
                    answers = [search_communities(index, v, k, ctx=ctx) for v, k in requests]
            elapsed = time.perf_counter() - t0
            for (v, k), communities in zip(requests, answers):
                sizes = ",".join(str(c.num_edges) for c in communities)
                print(f"vertex {v} k={k}: {len(communities)} communities [{sizes}]")
            qps = len(requests) / elapsed if elapsed > 0 else float("inf")
            print(
                f"served {len(requests)} queries in {elapsed:.4f}s "
                f"({qps:.0f} q/s, engine={args.engine})"
            )
        elif args.max_k:
            k, communities = max_k_communities(index, args.vertex)
            if communities:
                print(f"vertex {args.vertex}: maximum cohesion k={k}")
                _print_communities(communities, f"vertex {args.vertex}")
            else:
                print(f"vertex {args.vertex}: no k-truss community")
        else:
            if args.top_r is not None:
                communities = top_r_communities(index, args.vertex, args.top_r)
            elif use_components:
                communities = engine.query(args.vertex, args.k)
            else:
                communities = search_communities(index, args.vertex, args.k, ctx=ctx)
            _print_communities(communities, f"vertex {args.vertex}")

        if engine is not None:
            s = engine.stats()
            print(
                f"cache: {s['cache_hits']} hits / {s['cache_misses']} misses, "
                f"{s['materialized_communities']} communities materialized"
            )
        if args.trace_out:
            from repro.obs.export import write_trace_jsonl

            path = write_trace_jsonl(ctx.tracer, args.trace_out)
            print(f"wrote trace -> {path}")
    return 0


def _cmd_attach(args: argparse.Namespace) -> int:
    """mmap-attach a store and report what was mapped."""
    from repro.obs.report import format_bytes
    from repro.store import attach_store

    with _make_context(args) as ctx:  # its close releases the mapping
        store = attach_store(args.store, verify=args.verify, ctx=ctx)
        tables = "stored component tables" if store.components is not None \
            else "no component tables (sweep on demand)"
        print(
            f"attached {args.store} in {store.attach_ms:.2f} ms "
            f"(gen {store.generation}, {format_bytes(store.bytes_mapped)} mapped, "
            f"{tables})"
        )
        if args.refresh:
            report = store.refresh()
            what = "re-attached after swap" if report.swapped else \
                f"replayed {report.applied} journal entries"
            print(f"refresh: {what} (gen {report.generation})")
        else:
            lag = store.pending_updates()
            if lag:
                print(f"journal lag: {lag} unapplied update batches (--refresh applies)")
        return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the sharded serving frontend over a persisted store."""
    import asyncio

    from repro.serve.frontend import FrontendConfig, run_frontend

    config = FrontendConfig(
        store_path=args.store,
        num_shards=args.shards,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
        auto_refresh=args.auto_refresh,
    )

    def on_ready(frontend) -> None:
        print(
            f"serving {args.store} at {frontend.host}:{frontend.port} "
            f"with {args.shards} shards "
            f"(max batch {args.max_batch}, "
            f"admission limit {args.max_pending})"
        )
        if args.endpoint_file:
            Path(args.endpoint_file).write_text(
                f"{frontend.host} {frontend.port}\n", encoding="utf-8"
            )
        sys.stdout.flush()

    try:
        asyncio.run(
            run_frontend(config, duration=args.duration, on_ready=on_ready)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        pass
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    """Drive open/closed-loop load against a running frontend."""
    import json

    from repro.errors import ServeError
    from repro.serve.loadgen import (
        closed_loop,
        default_ks,
        discover_universe,
        open_loop,
    )

    try:
        num_vertices, kmax = discover_universe(args.host, args.port)
    except (ServeError, OSError) as exc:
        print(f"FAILED: no frontend at {args.host}:{args.port} ({exc})",
              file=sys.stderr)
        return 1
    ks = default_ks(kmax)
    if args.mode == "closed":
        report = closed_loop(
            args.host, args.port, clients=args.clients, seconds=args.seconds,
            num_vertices=num_vertices, ks=ks, seed=args.seed,
        )
    else:
        if args.rate is None:
            print("--mode open requires --rate", file=sys.stderr)
            return 2
        report = open_loop(
            args.host, args.port, rate=args.rate, seconds=args.seconds,
            num_vertices=num_vertices, ks=ks, seed=args.seed,
        )
    summary = report.as_dict()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    offered = "closed loop" if report.offered_qps is None else \
        f"{report.offered_qps:.1f} qps offered"
    print(
        f"{report.mode} load ({offered}, {report.clients} clients, "
        f"{report.seconds:.1f}s): {report.achieved_qps:.1f} qps achieved"
    )
    print(
        f"  {report.ok} ok / {report.rejected} rejected / "
        f"{report.shard_errors + report.other_errors} errors"
    )
    for q in (50, 95, 99):
        p = summary[f"p{q}_ms"]
        if p is not None:
            print(f"  p{q} {p:.2f} ms")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Inspect / verify a store file without serving from it."""
    import json

    from repro.store import inspect_store, verify_store

    if args.store_command == "verify":
        report = verify_store(args.store)
        print(
            f"OK: {report['sections']} sections, "
            f"{report['payload_bytes']} payload bytes, "
            f"generation {report['generation']}, checksums + fingerprint match"
        )
        return 0
    info = inspect_store(args.store)
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"store {info['path']} (format v{info['format_version']})")
    print(
        f"  generation {info['generation']}, "
        f"{info['num_vertices']} vertices / {info['num_edges']} edges, "
        f"dataset sha256 {info['dataset_sha256'][:12]}…"
    )
    print(
        f"  payload {info['payload_bytes']} bytes in "
        f"{len(info['sections'])} sections, components="
        f"{'yes' if info['has_components'] else 'no'}, "
        f"git {info['git_sha'] or 'unknown'}"
    )
    for name, entry in info["sections"].items():
        print(
            f"    {name:<28} {entry['dtype']:<5} "
            f"shape={entry['shape']} ({entry['nbytes']} bytes)"
        )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    if args.trace:
        from repro.equitruss.kernels import KERNELS, TRUSS_DECOMP
        from repro.errors import GraphFormatError
        from repro.obs.export import read_trace_jsonl
        from repro.obs.report import breakdown_table, flamegraph

        try:
            spans = read_trace_jsonl(args.trace)
        except GraphFormatError as exc:
            if "empty trace file" in str(exc):
                # a run that recorded nothing is a degenerate trace, not
                # an error — report it and exit cleanly
                print(f"{args.trace}: empty trace (no spans recorded)")
                return 0
            raise
        if not spans:
            print(f"{args.trace}: trace has no spans")
            return 0
        print(breakdown_table(spans, include=(*KERNELS, TRUSS_DECOMP),
                              title=f"per-kernel breakdown: {args.trace}"))
        if args.flame:
            print()
            print(flamegraph(spans))
        return 0
    if args.file is None:
        print("either a graph/store file or --trace is required", file=sys.stderr)
        return 2
    from repro.store import STORE_MAGIC, attach_store

    with open(args.file, "rb") as fh:
        is_store = fh.read(len(STORE_MAGIC)) == STORE_MAGIC
    if is_store:
        with attach_store(args.file) as store:
            print(f"EquiTruss index over {store.graph.num_vertices} vertices / "
                  f"{store.graph.num_edges} edges")
            for key, value in store.index.stats().items():
                print(f"  {key}: {value}")
    else:
        from repro.graph.io import load_graph
        from repro.graph.properties import summarize

        graph = load_graph(args.file)
        s = summarize(graph.edges)
        print(f"graph: {s.num_vertices} vertices, {s.num_edges} edges, "
              f"max degree {s.max_degree}, mean degree {s.mean_degree:.2f}, "
              f"{s.num_isolated} isolated")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from repro.equitruss.verify import verify_index_semantics
    from repro.store import attach_store

    with _make_context(args) as ctx:
        store = attach_store(args.index, ctx=ctx)
        verify_index_semantics(store.graph, store.index, ctx=ctx)
        print(
            f"OK: {store.index.num_supernodes} supernodes / "
            f"{store.index.num_superedges} superedges satisfy Definitions 8 and 9"
        )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.__main__ import main as lint_main

    forwarded: list[str] = list(args.paths)
    if args.baseline is not None:
        forwarded.append("--baseline")
        if args.baseline != "":
            forwarded.append(args.baseline)
    if args.write_baseline is not None:
        forwarded.append("--write-baseline")
        if args.write_baseline != "":
            forwarded.append(args.write_baseline)
    if args.rules:
        forwarded.extend(["--rules", args.rules])
    if args.format != "text":
        forwarded.extend(["--format", args.format])
    if args.list_rules:
        forwarded.append("--list-rules")
    return lint_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equitruss",
        description="Parallel EquiTruss index construction and local community search",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--log-level", default=None, choices=["debug", "info", "warning", "error"],
        help="enable structured key=value logging at this level",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="materialize a synthetic graph")
    gen.add_argument("model", help="dataset name (amazon..friendster) or rmat|gnm")
    gen.add_argument("--out", required=True, help="output file (.npz or .txt)")
    gen.add_argument("--scale-factor", type=float, default=1.0)
    gen.add_argument("--scale", type=int, default=10, help="rmat: log2(vertices)")
    gen.add_argument("--edge-factor", type=int, default=8, help="rmat: edges per vertex")
    gen.add_argument("--n", type=int, default=1000, help="gnm: vertices")
    gen.add_argument("--m", type=int, default=5000, help="gnm: edges")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_generate)

    def add_context_flags(p: argparse.ArgumentParser) -> None:
        """The shared ExecutionContext flags (--backend/--workers/--dtype)."""
        p.add_argument("--backend", default="serial",
                       choices=["serial", "process"],
                       help="execution backend for the kernels (process = "
                            "persistent fork workers over shared memory)")
        p.add_argument("--workers", type=int, default=1,
                       help="worker count for the chosen backend")
        p.add_argument("--dtype", default="auto", choices=["auto", "int32", "int64"],
                       help="index dtype policy (auto narrows to int32 when safe)")

    idx = sub.add_parser("index", help="build an EquiTruss index and write its store")
    idx.add_argument("graph", help="graph file (.npz or SNAP text)")
    idx.add_argument("--out", required=True,
                     help="output .eqtsidx store (atomic swap; includes the "
                          "precomputed serving tables)")
    idx.add_argument("--variant", default="afforest",
                     choices=["baseline", "coptimal", "afforest"])
    add_context_flags(idx)
    idx.add_argument("--breakdown", action="store_true",
                     help="print the per-kernel timing breakdown")
    idx.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the hierarchical span trace as JSONL")
    idx.add_argument("--metrics-out", default=None, metavar="PATH",
                     help="write the run's metrics snapshot as JSON")
    idx.add_argument("--prom-out", default=None, metavar="PATH",
                     help="write the metrics in Prometheus text exposition format")
    idx.add_argument("--manifest-out", default=None, metavar="PATH",
                     help="write a run-provenance manifest (defaults to "
                          "<trace-out>.manifest.json when --trace-out is given)")
    idx.add_argument("--store-generation", type=int, default=1,
                     help="journal epoch of the store artifact (bump past "
                          "absorbed journal entries when swapping a live store)")
    idx.set_defaults(func=_cmd_index)

    att = sub.add_parser(
        "attach",
        help="mmap-attach a store, optionally verifying or refreshing it",
    )
    att.add_argument("store", help="store file from index --out")
    att.add_argument("--verify", action="store_true",
                     help="check every section checksum before serving")
    att.add_argument("--refresh", action="store_true",
                     help="replay journal entries / re-attach after a swap "
                          "before answering")
    add_context_flags(att)
    att.set_defaults(func=_cmd_attach)

    srv = sub.add_parser(
        "serve",
        help="run the sharded TCP serving frontend over a persisted store",
    )
    srv.add_argument("store", help="persisted .eqtsidx store file")
    srv.add_argument("--shards", type=int, default=2,
                     help="shard worker processes (default 2)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0,
                     help="TCP port (0 picks an ephemeral one)")
    srv.add_argument("--max-batch", type=int, default=64,
                     help="most requests one shard batch carries")
    srv.add_argument("--max-pending", type=int, default=1024,
                     help="admission limit before backpressure rejections")
    srv.add_argument("--cache-size", type=int, default=1024,
                     help="per-shard engine LRU result-cache entries")
    srv.add_argument("--auto-refresh", action="store_true",
                     help="shards check the update journal before every batch")
    srv.add_argument("--duration", type=float, default=None,
                     help="serve for this many seconds (default: forever)")
    srv.add_argument("--endpoint-file", default=None, metavar="PATH",
                     help="write 'host port' here once the socket is bound")
    srv.set_defaults(func=_cmd_serve)

    lg = sub.add_parser(
        "loadgen", help="drive open/closed-loop load against a frontend"
    )
    lg.add_argument("--host", default="127.0.0.1")
    lg.add_argument("--port", type=int, required=True)
    lg.add_argument("--mode", choices=["closed", "open"], default="closed")
    lg.add_argument("--clients", type=int, default=4,
                    help="closed-loop concurrent connections")
    lg.add_argument("--rate", type=float, default=None,
                    help="open-loop offered arrival rate (qps)")
    lg.add_argument("--seconds", type=float, default=5.0)
    lg.add_argument("--seed", type=int, default=0)
    lg.add_argument("--json", action="store_true",
                    help="print the report as JSON instead of text")
    lg.set_defaults(func=_cmd_loadgen)

    st = sub.add_parser("store", help="inspect or verify a persisted store file")
    st_sub = st.add_subparsers(dest="store_command", required=True)
    st_inspect = st_sub.add_parser(
        "inspect", help="print the header: generation, sections, provenance"
    )
    st_inspect.add_argument("store")
    st_inspect.add_argument("--json", action="store_true",
                            help="machine-readable header dump")
    st_inspect.set_defaults(func=_cmd_store)
    st_verify = st_sub.add_parser(
        "verify", help="full integrity check: section checksums + fingerprint"
    )
    st_verify.add_argument("store")
    st_verify.set_defaults(func=_cmd_store)

    q = sub.add_parser("query", help="local community search from a store")
    q.add_argument("index", help="store file from index --out")
    q.add_argument("--vertex", type=int, default=None)
    q.add_argument("--k", type=int, default=None)
    q.add_argument("--top-r", type=int, default=None,
                   help="return the r most cohesive communities")
    q.add_argument("--max-k", action="store_true",
                   help="query at the vertex's maximum cohesion level")
    q.add_argument("--engine", default="bfs", choices=["bfs", "components"],
                   help="bfs: per-query supergraph BFS; components: the "
                        "serving engine over the stored component tables")
    q.add_argument("--batch-file", default=None, metavar="PATH",
                   help="serve a batch: one 'vertex [k]' request per line "
                        "(k falls back to --k)")
    q.add_argument("--warm-cache", action="store_true",
                   help="components engine: materialize communities up "
                        "front, until the memo budget is full, before serving")
    q.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write the per-request span trace as JSONL")
    add_context_flags(q)
    q.set_defaults(func=_cmd_query)

    info = sub.add_parser("info", help="summarize a graph, store, or trace file")
    info.add_argument("file", nargs="?", default=None)
    info.add_argument("--trace", default=None, metavar="PATH",
                      help="print the per-kernel breakdown of a saved JSONL trace")
    info.add_argument("--flame", action="store_true",
                      help="with --trace: also print the span-tree flamegraph")
    info.set_defaults(func=_cmd_info)

    ver = sub.add_parser(
        "verify", help="deep semantic verification of a stored index"
    )
    ver.add_argument("index", help="store file from index --out (embeds its graph)")
    add_context_flags(ver)
    ver.set_defaults(func=_cmd_verify)

    lint = sub.add_parser(
        "lint",
        help="run the contract linter (alias of python -m repro.analysis)",
    )
    lint.add_argument("paths", nargs="*", default=[],
                      help="files or directories (default: src/repro)")
    lint.add_argument("--baseline", nargs="?", const="", default=None,
                      metavar="PATH",
                      help="only findings absent from the baseline fail")
    lint.add_argument("--write-baseline", nargs="?", const="", default=None,
                      metavar="PATH", help="grandfather the current findings")
    lint.add_argument("--rules", default=None, metavar="REP001,REP003",
                      help="comma-separated rule ids to run")
    lint.add_argument("--format", default="text",
                      choices=["text", "json"])
    lint.add_argument("--list-rules", action="store_true",
                      help="print every rule id with its contract")
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        from repro.obs.logging import setup_logging

        setup_logging(args.log_level)
    from repro.errors import ReproError

    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
