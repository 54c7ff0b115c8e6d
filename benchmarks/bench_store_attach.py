"""Store attach vs rebuild: the latency the persistent store buys.

Measures, on a generated graph:

* **rebuild** — ``build_index`` + the union-find component sweep + an
  engine bind: what a serving process pays without a store;
* **write** — the atomic store write (amortized once per rebuild);
* **warm attach** — ``attach_store`` + engine with the file in page
  cache: the steady-state fleet restart cost;
* **cold attach** — same after asking the kernel to drop the file's
  cached pages (``posix_fadvise DONTNEED``, best-effort);
* **concurrent attach** — N forked processes attaching the same file
  at once, sharing one page-cache copy.

Every attach is checked bit-identical to the in-memory build, and the
first-query answers are compared against the BFS reference. Results
land in ``BENCH_pr7.json`` (schema-validated, manifest attached) with
the headline ``pr7.attach_speedup_vs_rebuild`` derived ratio; the
acceptance floor (attach >= 20x faster than rebuild) is asserted on
full-size runs, reported-only under ``--smoke``.

Usage::

    PYTHONPATH=src python benchmarks/bench_store_attach.py \
        [--smoke] [--out PATH] [--artifacts-dir DIR] \
        [--vertices N] [--edges M] [--procs K] [--repeat R]
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

#: Full-run acceptance floor: attach must beat rebuild by this factor.
SPEEDUP_FLOOR = 20.0


def _drop_page_cache(path: Path) -> bool:
    """Ask the kernel to evict the file's cached pages (best-effort)."""
    if not hasattr(os, "posix_fadvise"):  # pragma: no cover - non-POSIX
        return False
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
        os.posix_fadvise(fd, 0, 0, os.POSIX_FADV_DONTNEED)
        return True
    except OSError:  # pragma: no cover - fs without fadvise support
        return False
    finally:
        os.close(fd)


def _time_rebuild(graph, variant, repeat):
    """Serving stack from scratch: build + sweep + engine bind."""
    from repro.equitruss.pipeline import build_index
    from repro.serve.components import LevelComponents
    from repro.serve.engine import QueryEngine

    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = build_index(graph, variant)
        components = LevelComponents(result.index)
        QueryEngine(result.index, components=components)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _time_attach(path, expect_index, *, cold, repeat):
    """Attach + engine bind; returns (best seconds, queries-per-attach)."""
    import numpy as np

    from repro.store import attach_store

    best = float("inf")
    for _ in range(repeat):
        if cold and not _drop_page_cache(Path(path)):
            return None
        t0 = time.perf_counter()
        store = attach_store(path)
        store.engine()
        elapsed = time.perf_counter() - t0
        if not np.array_equal(store.index.trussness, expect_index.trussness):
            raise SystemExit("FAIL: attached index differs from the build")
        store.close()
        best = min(best, elapsed)
    return best


def _concurrent_attach(path, procs):
    """Fork ``procs`` children that attach simultaneously; max seconds."""
    if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
        return None
    import multiprocessing as mp

    ctx = mp.get_context("fork")

    def _child(p, q):
        from repro.store import attach_store

        t0 = time.perf_counter()
        store = attach_store(p)
        store.engine()
        q.put(time.perf_counter() - t0)
        store.close()

    queue = ctx.Queue()
    workers = [
        ctx.Process(target=_child, args=(path, queue)) for _ in range(procs)
    ]
    barrier_t0 = time.perf_counter()
    for w in workers:
        w.start()
    times = [queue.get(timeout=120) for _ in workers]
    for w in workers:
        w.join(timeout=120)
    wall = time.perf_counter() - barrier_t0
    if any(w.exitcode != 0 for w in workers):
        raise SystemExit("FAIL: a concurrent attach process died")
    return max(times), wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized graph; speedup floor reported, not asserted")
    parser.add_argument("--out", default=None,
                        help="snapshot path (default benchmarks/results/BENCH_pr7.json)")
    parser.add_argument("--artifacts-dir", default=None, metavar="DIR")
    parser.add_argument("--vertices", type=int, default=None)
    parser.add_argument("--edges", type=int, default=None)
    parser.add_argument("--variant", default="afforest")
    parser.add_argument("--procs", type=int, default=4,
                        help="concurrent-attach process count")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    import numpy as np

    from repro.bench.snapshot import PerfSnapshot, load_snapshot
    from repro.graph.csr import CSRGraph
    from repro.graph.generators import erdos_renyi_gnm
    from repro.obs.manifest import collect_manifest
    from repro.store import attach_store
    from repro.store.reader import verify_store
    from repro.store.writer import write_store

    n = args.vertices or (2_000 if args.smoke else 60_000)
    m = args.edges or (20_000 if args.smoke else 900_000)
    dataset = f"gnm_{n}_{m}"
    graph = CSRGraph.from_edgelist(erdos_renyi_gnm(n, m, seed=42))
    print(f"graph: {graph.num_vertices} vertices / {graph.num_edges} edges")

    t_rebuild, result = _time_rebuild(graph, args.variant, args.repeat)
    print(f"rebuild (build + sweep + engine): {t_rebuild:.4f}s")

    workdir = Path(tempfile.mkdtemp(prefix="bench_store_"))
    store_path = workdir / f"{dataset}.eqtsidx"
    from repro.serve.components import LevelComponents

    components = LevelComponents(result.index)
    t0 = time.perf_counter()
    write_store(result.index, store_path, components=components,
                dataset=dataset)
    t_write = time.perf_counter() - t0
    print(f"store write: {t_write:.4f}s "
          f"({store_path.stat().st_size / 1e6:.1f} MB)")
    verify_store(store_path)

    # ---- bit-identical + reference answers through the attached engine
    from repro.community import search_communities

    with attach_store(store_path, verify=True) as store:
        for field in ("trussness", "edge_supernode", "supernode_trussness",
                      "supernode_indptr", "supernode_edges", "superedges"):
            if not np.array_equal(getattr(store.index, field),
                                  getattr(result.index, field)):
                print(f"FAIL: section {field} not bit-identical", file=sys.stderr)
                return 1
        engine = store.engine()
        for q in range(0, graph.num_vertices, max(1, graph.num_vertices // 16)):
            expected = search_communities(result.index, q, 3)
            got = engine.query(q, 3)
            assert len(expected) == len(got), q
            for e, c in zip(expected, got):
                assert np.array_equal(e.edge_ids, c.edge_ids), q
    print("attached index bit-identical; engine matches BFS reference")

    t_warm = _time_attach(store_path, result.index, cold=False,
                          repeat=args.repeat)
    print(f"warm attach + engine: {t_warm * 1e3:.2f} ms")
    t_cold = _time_attach(store_path, result.index, cold=True,
                          repeat=args.repeat)
    if t_cold is not None:
        print(f"cold attach + engine: {t_cold * 1e3:.2f} ms")

    conc = _concurrent_attach(str(store_path), args.procs)
    if conc is not None:
        t_conc_max, t_conc_wall = conc
        print(f"concurrent attach x{args.procs}: slowest {t_conc_max * 1e3:.2f} ms, "
              f"wall {t_conc_wall * 1e3:.2f} ms")

    speedup = t_rebuild / t_warm if t_warm > 0 else float("inf")
    print(f"attach speedup vs rebuild: {speedup:.1f}x "
          f"(floor {SPEEDUP_FLOOR:.0f}x, "
          f"{'advisory' if args.smoke else 'enforced'})")

    # ---- snapshot
    snap = PerfSnapshot("pr7", path=args.out)
    exp = "store_attach_smoke" if args.smoke else "store_attach"
    snap.add_run(exp, dataset, args.variant, "serial", 1, t_rebuild,
                 mode="measured", kernels={"Rebuild": t_rebuild},
                 store_bytes=store_path.stat().st_size)
    snap.add_run(exp, dataset, args.variant, "mmap_warm", 1, t_warm,
                 mode="measured", kernels={"Attach": t_warm})
    if t_cold is not None:
        snap.add_run(exp, dataset, args.variant, "mmap_cold", 1, t_cold,
                     mode="measured", kernels={"Attach": t_cold})
    if conc is not None:
        snap.add_run(exp, dataset, args.variant, "mmap_concurrent",
                     args.procs, t_conc_max, mode="measured",
                     wall_seconds=t_conc_wall)
    snap.add_run(exp, dataset, args.variant, "store_write", 1, t_write,
                 mode="measured")
    snap.derive("pr7.attach_speedup_vs_rebuild", round(speedup, 2))
    snap.derive("pr7.attach_bit_identical", True)
    snap.derive("pr7.attach_warm_ms", round(t_warm * 1e3, 3))
    if t_cold is not None:
        snap.derive("pr7.attach_cold_ms", round(t_cold * 1e3, 3))
    snap.attach_manifest(collect_manifest(graph=graph, dataset=dataset,
                                          extra={"experiment": exp}))
    path = snap.write()
    load_snapshot(path)  # schema round trip
    print(f"snapshot OK -> {path}")

    if args.artifacts_dir:
        art = Path(args.artifacts_dir)
        art.mkdir(parents=True, exist_ok=True)
        shutil.copy2(store_path, art / store_path.name)
        if path.parent.resolve() != art.resolve():  # --out may point here
            shutil.copy2(path, art / path.name)
        print(f"artifacts -> {art}")

    shutil.rmtree(workdir, ignore_errors=True)

    if not args.smoke and speedup < SPEEDUP_FLOOR:
        print(f"FAIL: attach speedup {speedup:.1f}x below the "
              f"{SPEEDUP_FLOOR:.0f}x floor", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
