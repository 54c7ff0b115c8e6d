"""Ablation — query serving: batched component engine vs per-query BFS.

Two sections:

1. the comparison motivating the index at all (paper §5): EquiTruss BFS
   query vs TCP-Index vs index-free online recomputation, on a modest
   query sample (TCP and online are pure Python and slow);
2. the *serving* ablation this repo adds on top: the
   :class:`repro.serve.QueryEngine` (precomputed per-level components,
   vectorized batch anchor resolution, LRU result cache) against the
   per-query BFS path on a 1000-query workload at varying batch sizes,
   with every answer checked identical to the BFS reference.

``python benchmarks/bench_ablation_query.py [--smoke]`` runs it as a
script; ``--smoke`` shrinks the workload for CI and writes its table
under the working directory instead of over the checked-in
``benchmarks/results`` snapshot.
"""

import time
from pathlib import Path

import numpy as np

from repro.bench import ResultWriter, TextTable, get_workload
from repro.community import TCPIndex, online_communities, search_communities
from repro.community.model import as_edge_set_family
from repro.equitruss import build_index
from repro.serve import QueryEngine

NETWORK = "amazon"  # TCP construction is pure Python — keep it modest
NUM_QUERIES = 30
K = 4
SERVE_QUERIES = 1000
BATCH_SIZES = (1, 16, 128, 1000)


def run_ablation():
    writer = ResultWriter("ablation_query")
    w = get_workload(NETWORK)
    t0 = time.perf_counter()
    index = build_index(
        w.graph, "afforest", decomp=w.decomp, triangles=w.triangles
    ).index
    t_build_eq = time.perf_counter() - t0
    t0 = time.perf_counter()
    tcp = TCPIndex(w.graph, decomp=w.decomp)
    t_build_tcp = time.perf_counter() - t0

    rng = np.random.default_rng(0)
    deg = w.graph.degrees()
    candidates = np.flatnonzero(deg >= 3)
    queries = rng.choice(candidates, size=NUM_QUERIES, replace=False)

    times = {"equitruss": 0.0, "tcp": 0.0, "online": 0.0}
    for q in queries.tolist():
        t0 = time.perf_counter()
        a = search_communities(index, q, K)
        times["equitruss"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        b = tcp.query(q, K)
        times["tcp"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        c = online_communities(w.graph, q, K, decomp=w.decomp)
        times["online"] += time.perf_counter() - t0
        assert as_edge_set_family(a) == as_edge_set_family(c)
        assert as_edge_set_family(b) == as_edge_set_family(c)

    table = TextTable(
        ["engine", "build s", f"total query s ({NUM_QUERIES} queries)", "per-query ms"],
        title=f"Query ablation ({NETWORK}, k={K}): all engines return identical communities",
    )
    table.add_row("equitruss-index", t_build_eq, times["equitruss"], 1000 * times["equitruss"] / NUM_QUERIES)
    table.add_row("tcp-index", t_build_tcp, times["tcp"], 1000 * times["tcp"] / NUM_QUERIES)
    table.add_row("online (no index)", 0.0, times["online"], 1000 * times["online"] / NUM_QUERIES)
    writer.add(table)
    writer.write()
    return times


def _same(a, b) -> bool:
    return len(a) == len(b) and all(
        x.k == y.k and np.array_equal(x.edge_ids, y.edge_ids) for x, y in zip(a, b)
    )


def run_serving(
    num_queries=SERVE_QUERIES, batch_sizes=BATCH_SIZES, network=NETWORK, results_dir=None
):
    """Serving ablation: QueryEngine batching/caching vs per-query BFS.

    The table goes to ``results_dir`` (default ``benchmarks/results``).
    """
    writer = ResultWriter("ablation_query_serving", results_dir)
    w = get_workload(network)
    index = build_index(
        w.graph, "afforest", decomp=w.decomp, triangles=w.triangles
    ).index

    rng = np.random.default_rng(1)
    deg = w.graph.degrees()
    candidates = np.flatnonzero(deg >= 3)
    # repeat traffic, like real serving: vertices drawn with replacement
    queries = rng.choice(candidates, size=num_queries, replace=True).astype(np.int64)

    t0 = time.perf_counter()
    reference = [search_communities(index, int(q), K) for q in queries.tolist()]
    t_bfs = time.perf_counter() - t0

    table = TextTable(
        ["engine", "batch", f"total s ({num_queries} queries)", "q/s", "speedup vs bfs"],
        title=f"Query serving ({network}, k={K}): all paths identical to the BFS reference",
    )
    table.add_row("bfs (search_communities)", 1, t_bfs, num_queries / t_bfs, 1.0)

    results = {"bfs": t_bfs, "batched": {}}
    t0 = time.perf_counter()
    precompute_engine = QueryEngine(index, cache_size=0)
    t_precompute = time.perf_counter() - t0
    for bs in batch_sizes:
        engine = QueryEngine(index, cache_size=0)  # cold: no result reuse
        t0 = time.perf_counter()
        answers = []
        for lo in range(0, num_queries, bs):
            answers.extend(engine.query_many(queries[lo : lo + bs], K))
        t = time.perf_counter() - t0
        assert all(_same(a, b) for a, b in zip(reference, answers))
        results["batched"][bs] = t
        table.add_row("components (uncached)", bs, t, num_queries / t, t_bfs / t)

    cached = QueryEngine(index, cache_size=4 * num_queries)
    cached.query_many(queries, K)  # first pass fills the LRU
    t0 = time.perf_counter()
    answers = cached.query_many(queries, K)
    t_hot = time.perf_counter() - t0
    assert all(_same(a, b) for a, b in zip(reference, answers))
    results["cached"] = t_hot
    table.add_row("components (LRU hot)", num_queries, t_hot, num_queries / t_hot, t_bfs / t_hot)

    writer.add(table)
    writer.add(f"component precompute (one-time, per index build): {t_precompute:.4f}s")
    writer.write()
    assert precompute_engine.components.levels.size >= 1
    return results


def test_ablation_query(benchmark, run_once):
    times = run_once(benchmark, run_ablation)
    # the index must beat recomputing truss communities per query
    assert times["equitruss"] < times["online"]


def test_serving_batched_beats_bfs(benchmark, run_once):
    results = run_once(benchmark, run_serving)
    # acceptance bar: batched component engine >= 5x single-query BFS
    best_batched = min(results["batched"].values())
    assert results["bfs"] / best_batched >= 5.0, results
    assert results["cached"] < results["bfs"]


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="query-serving ablation")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast run (CI smoke)")
    args = parser.parse_args()
    if args.smoke:
        out = run_serving(num_queries=40, batch_sizes=(1, 16, 40), results_dir=Path.cwd())
    else:
        run_ablation()
        out = run_serving()
    print(f"bfs/batched best speedup: "
          f"{out['bfs'] / min(out['batched'].values()):.1f}x")
