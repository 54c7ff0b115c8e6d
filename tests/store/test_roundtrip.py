"""Differential store correctness: write → attach is bit-identical.

Every index array that goes through the binary container must come back
byte for byte, on every construction variant, and the attached
:class:`QueryEngine` must answer exactly like the BFS reference over the
in-memory index. Sections hold the store's one narrow dtype, so "bit
identical" means equal values in the header's ``store_dtype``. The
attach path is also pinned as zero-copy: the returned arrays are views
into the mapping, not copies.
"""

import numpy as np
import pytest

from repro.community import search_communities
from repro.community.search import query_candidate_ks
from repro.equitruss.index import EquiTrussIndex
from repro.equitruss.pipeline import build_index
from repro.graph import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.graph.generators import (
    erdos_renyi_gnm,
    paper_example_graph,
    rmat_graph,
)
from repro.store import STORE_FORMAT_VERSION, attach_store
from repro.store.format import REQUIRED_SECTIONS, store_dtype
from repro.store.reader import inspect_store, verify_store
from repro.store.writer import write_store

GRAPHS = {
    "er": lambda: erdos_renyi_gnm(300, 2600, seed=11),
    "rmat": lambda: rmat_graph(8, 8, seed=5),
    "paper": paper_example_graph,
}
VARIANTS = ("baseline", "coptimal", "afforest")

INDEX_ARRAYS = (
    "trussness",
    "edge_supernode",
    "supernode_trussness",
    "supernode_indptr",
    "supernode_edges",
    "superedges",
)


def _graph(name):
    return CSRGraph.from_edgelist(GRAPHS[name]())


def assert_index_identical(expected, store, context=None):
    """Every attached array equals the in-memory one and holds the
    header's store dtype."""
    dtype = np.dtype(store.header["store_dtype"])
    got = store.index
    pairs = [(field, getattr(expected, field), getattr(got, field))
             for field in INDEX_ARRAYS]
    pairs += [(field, getattr(expected.graph, field), getattr(got.graph, field))
              for field in ("indptr", "indices", "edge_ids")]
    pairs += [(field, getattr(expected.graph.edges, field),
               getattr(got.graph.edges, field)) for field in ("u", "v")]
    for field, a, b in pairs:
        assert np.array_equal(a, b), (context, field)
        assert b.dtype == dtype, (context, field, b.dtype)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_write_attach_bit_identical(tmp_path, name, variant):
    g = _graph(name)
    result = build_index(g, variant, store_path=tmp_path / "g.eqtsidx")
    with attach_store(result.store_path, verify=True) as store:
        assert_index_identical(result.index, store, (name, variant))
        assert store.header["store_dtype"] == "<i4"
        assert store.components is not None
        assert store.generation == 1
        assert store.bytes_mapped == result.store_path.stat().st_size
        assert store.header["payload_bytes"] > 0


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_attached_engine_matches_bfs_reference(tmp_path, name):
    g = _graph(name)
    result = build_index(g, "afforest", store_path=tmp_path / "g.eqtsidx")
    with attach_store(result.store_path) as store:
        engine = store.engine()
        for q in range(0, g.num_vertices, 3):
            ks = [int(k) for k in query_candidate_ks(result.index, q).tolist()]
            for k in [k for k in ks if k >= 3] or [3]:
                expected = search_communities(result.index, q, k)
                got = engine.query(q, k)
                assert len(expected) == len(got), (name, q, k)
                for e, c in zip(expected, got):
                    assert e.k == c.k, (name, q, k)
                    assert np.array_equal(e.edge_ids, c.edge_ids), (name, q, k)


def test_attach_is_zero_copy(tmp_path):
    g = _graph("er")
    result = build_index(g, "afforest", store_path=tmp_path / "g.eqtsidx")
    store = attach_store(result.store_path)
    # every index array and graph array must be a view into the mapping
    for field in INDEX_ARRAYS:
        assert np.shares_memory(getattr(store.index, field), store._buf), field
        assert not getattr(store.index, field).flags.writeable, field
    levels = store.components.levels
    suffixes = [store.components.suffix(k)[1] for k in levels.tolist()]
    for arr in (store.graph.indptr, store.graph.indices, store.graph.edge_ids,
                store.graph.edges.u, store.graph.edges.v,
                levels, *suffixes):
        assert np.shares_memory(arr, store._buf)
        assert arr.dtype == np.int32
    store.close()


def test_index_init_accepts_readonly_views_without_copy():
    """Satellite regression: EquiTrussIndex must not eagerly copy
    contiguous int64 input — attach feeds it read-only mmap views."""
    g = _graph("paper")
    base = build_index(g, "afforest").index
    backing = {}
    views = {}
    for field in INDEX_ARRAYS:
        arr = np.ascontiguousarray(getattr(base, field))
        arr.setflags(write=False)
        backing[field] = arr
        views[field] = arr.reshape(-1) if field == "superedges" else arr
    rebuilt = EquiTrussIndex(graph=g, **views)
    for field in INDEX_ARRAYS:
        assert np.shares_memory(getattr(rebuilt, field), backing[field]), field
    narrow = {field: arr.astype(np.int32) for field, arr in views.items()}
    rebuilt = EquiTrussIndex(graph=g, **narrow)
    for field in INDEX_ARRAYS:
        got = getattr(rebuilt, field)
        assert got.dtype == np.int32, field
        assert np.shares_memory(got, narrow[field]), field


@pytest.mark.parametrize(
    "n, m, labels, dtype",
    [
        (2**31 - 1, 0, 0, "<i4"),
        (2**31, 0, 0, "<i8"),
        (10, 2**30 - 1, 0, "<i4"),  # 2m = 2^31 - 2
        (10, 2**30, 0, "<i8"),  # 2m = 2^31
        (2**31 - 1, 2**30 - 1, 2**31 - 1, "<i4"),
        (10, 10, 2**31, "<i8"),  # label offsets reach the label count
    ],
)
def test_store_dtype_rule_at_the_int32_boundary(n, m, labels, dtype):
    assert store_dtype(n, m, labels) == np.dtype(dtype)


def test_triangle_free_graph_roundtrip(tmp_path):
    # a path graph: no triangles, empty supernode universe
    u = np.arange(9, dtype=np.int64)
    v = u + 1
    g = CSRGraph.from_edgelist(EdgeList(u, v, 10))
    result = build_index(g, "afforest", store_path=tmp_path / "path.eqtsidx")
    assert result.index.num_supernodes == 0
    with attach_store(result.store_path, verify=True) as store:
        assert_index_identical(result.index, store)
        assert store.engine().query(0, 3) == []


def test_inspect_and_verify_report(tmp_path):
    g = _graph("rmat")
    result = build_index(g, "coptimal", store_path=tmp_path / "g.eqtsidx",
                         store_generation=7)
    info = inspect_store(result.store_path)
    assert info["generation"] == 7
    assert info["num_vertices"] == g.num_vertices
    assert info["num_edges"] == g.num_edges
    assert info["has_components"]
    assert set(REQUIRED_SECTIONS) <= set(info["sections"])
    assert info["format_version"] == info["schema_versions"]["store"] == 2
    assert STORE_FORMAT_VERSION == 2
    assert info["store_dtype"] == "<i4"
    assert {e["dtype"] for e in info["sections"].values()} == {"<i4"}
    report = verify_store(result.store_path)
    assert report["ok"] and report["generation"] == 7
    assert report["store_dtype"] == "<i4"


def test_store_without_component_tables(tmp_path):
    g = _graph("paper")
    index = build_index(g, "afforest").index
    path = write_store(index, tmp_path / "g.eqtsidx")
    with attach_store(path) as store:
        assert_index_identical(index, store)
        assert store.components is None  # written without serving tables
        assert store.engine().query(10, 3)  # sweep fallback still works
    assert verify_store(path)["ok"]
    assert inspect_store(path)["generation"] == 1


def test_variants_write_identical_payloads(tmp_path):
    """All variants build the same canonical index → byte-identical
    sections (creation time/manifest differ, payload must not)."""
    from repro.store.reader import read_header

    g = _graph("er")
    digests = set()
    for variant in VARIANTS:
        result = build_index(g, variant)
        path = write_store(result.index, tmp_path / f"{variant}.eqtsidx",
                           manifest=False)
        header = read_header(path)
        digests.add(tuple(
            (name, meta["sha256"])
            for name, meta in sorted(header["sections"].items())
        ))
    assert len(digests) == 1


# ----------------------------------------------------------------------
# Stores with the retired graph.edge_order section
# ----------------------------------------------------------------------

def test_store_with_retired_edge_order_section_still_serves(tmp_path, monkeypatch):
    """Earlier writers added a ``graph.edge_order`` section (the (v, u)
    edge permutation, in the store dtype). The reader ignores it: such a
    file attaches verified and answers exactly like one without it."""
    import repro.store.writer as writer_mod
    from repro.serve.components import LevelComponents

    g = _graph("er")
    result = build_index(g, "afforest", store_path=tmp_path / "new.eqtsidx")
    plain = writer_mod.store_sections

    def with_edge_order(index, components=None):
        sections = plain(index, components)
        order = np.argsort(np.asarray(index.graph.edges.v), kind="stable")
        sections["graph.edge_order"] = order.astype(sections["graph.u"].dtype)
        return sections

    monkeypatch.setattr(writer_mod, "store_sections", with_edge_order)
    old = write_store(result.index, tmp_path / "old.eqtsidx",
                      components=LevelComponents(result.index))
    monkeypatch.undo()
    assert "graph.edge_order" in inspect_store(old)["sections"]
    assert "graph.edge_order" not in inspect_store(result.store_path)["sections"]
    assert verify_store(old)["ok"]
    with attach_store(old, verify=True) as old_store, \
            attach_store(result.store_path, verify=True) as new_store:
        assert_index_identical(result.index, old_store)
        old_eng, new_eng = old_store.engine(), new_store.engine()
        for q in range(g.num_vertices):
            for k in query_candidate_ks(result.index, q):
                expected = new_eng.query(q, int(k))
                got = old_eng.query(q, int(k))
                assert len(got) == len(expected), (q, k)
                for e, c in zip(expected, got):
                    assert e.k == c.k, (q, k)
                    assert np.array_equal(e.edge_ids, c.edge_ids), (q, k)
