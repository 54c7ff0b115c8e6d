"""The benchmark's calls into each repro layer, each inside a span.

Every function here calls only public functions of the program and
times them from outside; counters come from what the program already
exports (``BuildResult.breakdown``, ``QueryEngine.stats()``, the
``UpdateStats`` of a dynamic update, the store's ``RefreshReport``).
"""

from __future__ import annotations

import dataclasses
import time
from pathlib import Path

import numpy as np

from repro.equitruss.dynamic import DynamicEquiTruss
from repro.equitruss.pipeline import build_index
from repro.errors import StoreError
from repro.graph.csr import CSRGraph
from repro.graph.datasets import DATASETS
from repro.graph.io import load_graph, save_npz
from repro.serve.components import LevelComponents
from repro.serve.protocol import encode_frame, ok_response, serialize_communities
from repro.store import attach_store, verify_store
from repro.store.journal import StoreJournal, default_journal_path
from repro.store.writer import write_store
from repro.triangles.enumerate import enumerate_triangles
from repro.truss.decompose import truss_decomposition

VARIANT = "afforest"

#: ``BuildResult.breakdown`` kernel name -> per-layer metric suffix
KERNELS = {
    "Init": "init_s", "SpNode": "spnode_s", "SpEdge": "spedge_s",
    "SmGraph": "smgraph_s", "SpNodeRemap": "spnode_remap_s",
}

_INDEX_ARRAYS = (
    "trussness", "edge_supernode", "supernode_trussness",
    "supernode_indptr", "supernode_edges", "superedges",
)


def note(rec, **attrs) -> None:
    """Attach counters to a span (no-op when tracing is off)."""
    if rec is not None:
        rec["attrs"].update(attrs)


def dataset_edges(name: str, seed: int):
    """The stand-in edge list of ``name``, generated from ``seed``."""
    return dataclasses.replace(DATASETS[name], seed=seed).generate()


def write_graph_file(name: str, seed: int, path: Path) -> Path:
    save_npz(dataset_edges(name, seed), path)
    return path


# ----------------------------------------------------------------------
# Build half
# ----------------------------------------------------------------------


def index_graph(graph: CSRGraph, spans):
    """Triangles -> truss decomposition -> ``build_index``, one span each."""
    with spans.span("triangles.enumerate") as rec:
        triangles = enumerate_triangles(graph)
    note(rec, count=int(triangles.count))
    with spans.span("truss.decompose") as rec:
        decomp = truss_decomposition(graph, triangles=triangles)
    note(rec, peel_rounds=int(decomp.peel_rounds))
    with spans.span("equitruss.index") as rec:
        result = build_index(graph, VARIANT, decomp=decomp, triangles=triangles)
    seconds = result.breakdown.seconds
    note(rec, supernodes=int(result.index.num_supernodes),
         superedges=int(result.index.num_superedges),
         **{suffix: seconds.get(kernel, 0.0) for kernel, suffix in KERNELS.items()})
    return result, triangles, decomp


def write(index, store: Path, spans) -> None:
    """Component sweep + atomic store write (what ``store_path=`` does)."""
    with spans.span("components.sweep"):
        components = LevelComponents(index)
    with spans.span("store.write") as rec:
        write_store(index, store, components=components)
    note(rec, bytes=store.stat().st_size)


def build_store(graph_file: Path, store: Path, spans):
    """Graph file -> ``.eqtsidx``; returns the in-memory index.

    Untraced, this is the one call a user makes. Traced, the same
    kernels are called one by one so that each layer gets its own span.
    """
    if not spans.enabled:
        return build_index(load_graph(graph_file), VARIANT, store_path=store).index
    with spans.span("build", file=graph_file.name):
        with spans.span("graph.load"):
            graph = load_graph(graph_file)
        result, _, _ = index_graph(graph, spans)
        write(result.index, store, spans)
    return result.index


def same_index(a, b) -> bool:
    """Array-for-array equality of two indexes and their graphs."""
    ga, gb = a.graph, b.graph
    pairs = [(ga.indptr, gb.indptr), (ga.indices, gb.indices),
             (ga.edge_ids, gb.edge_ids), (ga.edges.u, gb.edges.u),
             (ga.edges.v, gb.edges.v)]
    pairs += [(getattr(a, f), getattr(b, f)) for f in _INDEX_ARRAYS]
    return all(np.array_equal(x, y) for x, y in pairs)


def check_store(store: Path, index, spans) -> bool:
    """``verify_store`` plus attached-equals-in-memory, array for array."""
    try:
        with spans.span("store.verify"):
            verify_store(store)
    except StoreError:
        return False
    with attach(store, spans) as attached:
        return same_index(attached.index, index)


def attach(store: Path, spans):
    t0 = time.perf_counter()
    attached = attach_store(store)
    spans.add("store.attach", t0, time.perf_counter())
    return attached


# ----------------------------------------------------------------------
# Serve half, in process
# ----------------------------------------------------------------------


def encode_answers(answers, spans) -> None:
    """Wire-encode engine answers (``serialize_communities`` +
    ``encode_frame``) inside a ``protocol.encode`` span."""
    with spans.span("protocol.encode", answers=len(answers)):
        for i, answer in enumerate(answers):
            encode_frame(ok_response(i, communities=serialize_communities(answer)))


def engine_batch(engine, vertices, k: int, spans, rid=None) -> tuple[list, float]:
    """One ``query_many`` batch; returns (answers, seconds)."""
    t0 = time.perf_counter()
    answers = engine.query_many(vertices, k)
    t1 = time.perf_counter()
    spans.add("engine.query_many", t0, t1, rid=rid, k=k, batch=len(vertices))
    return answers, t1 - t0


def engine_counters(engine) -> dict:
    stats = engine.stats()
    return {"hits": int(stats["cache_hits"]), "misses": int(stats["cache_misses"]),
            "materialized": int(stats["materialized_communities"])}


# ----------------------------------------------------------------------
# Update half: a journalled writer and an attached reader
# ----------------------------------------------------------------------


class Updates:
    """A ``DynamicEquiTruss`` writer publishing to a store's journal, and
    an ``AttachedStore`` reader of that store in the same process."""

    def __init__(self, graph: CSRGraph, store: Path, spans) -> None:
        with spans.span("updates.setup"):
            result, triangles, decomp = index_graph(graph, spans)
            self.writer = DynamicEquiTruss(
                graph, VARIANT, triangles=triangles,
                trussness=decomp.trussness, index=result.index,
            )
            write(result.index, store, spans)
            self.log = StoreJournal.for_store(store)
            self.writer.publish_to(self.log)
            self.reader = attach(store, spans)
            self.engine = self.reader.engine()
        self.journal = default_journal_path(store)

    def write_step(self, insert_picks, remove_picks, spans, rid) -> float:
        """One insert batch then one remove batch; returns seconds.

        Picks are fractions in [0, 1) mapped onto the current graph, so
        the edges follow from the seed alone. Each insert closes a wedge
        a-b-c (triadic closure), so every insert batch creates triangles
        and costs the same kind of update; removals are uniform edges.
        """
        with spans.span("mixed.write", rid=rid):
            graph = self.writer.graph
            picks = np.asarray(insert_picks)
            e = (picks[:, 0] * graph.num_edges).astype(np.int64)
            a, b = graph.edges.u[e], graph.edges.v[e]
            deg = graph.indptr[b + 1] - graph.indptr[b]
            c = graph.indices[graph.indptr[b] + (picks[:, 1] * deg).astype(np.int64)]
            t0 = time.perf_counter()
            stats = self.writer.insert_edges(a[c != a], c[c != a])
            t1 = time.perf_counter()
            spans.add("dynamic.insert", t0, t1, affected=stats.affected_edges)
            edges = self.writer.graph.edges
            ids = np.unique((np.asarray(remove_picks) * edges.num_edges).astype(np.int64))
            stats = self.writer.remove_edges(edges.u[ids], edges.v[ids])
            t2 = time.perf_counter()
            spans.add("dynamic.remove", t1, t2, affected=stats.affected_edges)
        return t2 - t0

    def refresh(self, spans, rid) -> tuple[float, bool]:
        """Reader catch-up; returns (seconds, reached the writer's generation)."""
        t0 = time.perf_counter()
        report = self.reader.refresh(variant=VARIANT)
        t1 = time.perf_counter()
        spans.add("store.refresh", t0, t1, rid=rid, replayed=report.applied,
                  journal_bytes=self.journal.stat().st_size)
        return t1 - t0, report.generation == self.log.generation

    def sweep(self, spans) -> None:
        """Time the component sweep on the reader's refreshed index."""
        with spans.span("components.sweep", refreshed=True):
            LevelComponents(self.reader.index)

    def close(self) -> None:
        self.reader.close()
