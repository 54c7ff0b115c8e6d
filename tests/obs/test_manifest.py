"""Run-provenance manifests: collect, validate, round-trip."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph
from repro.graph.generators import paper_example_graph
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    MANIFEST_SCHEMA_VERSION,
    collect_manifest,
    dataset_fingerprint,
    read_manifest,
    validate_manifest,
    write_manifest,
)
from repro.parallel.context import ExecutionContext
from repro.serve.protocol import PROTOCOL_VERSION


def test_collect_manifest_minimal_shape():
    doc = collect_manifest()
    validate_manifest(doc)
    assert doc["schema"] == MANIFEST_SCHEMA
    assert doc["version"] == MANIFEST_SCHEMA_VERSION
    assert doc["execution"] is None
    assert doc["dataset"] is None
    assert doc["host"]["cpu_count"] >= 1
    assert doc["host"]["numpy"] == np.__version__
    versions = doc["schema_versions"]
    assert set(versions) == {
        "trace", "metrics", "manifest", "store", "journal", "wire"
    }
    assert versions["wire"] == PROTOCOL_VERSION


def test_collect_manifest_with_context_and_graph():
    g = CSRGraph.from_edgelist(paper_example_graph())
    ctx = ExecutionContext(backend="serial", num_workers=1)
    ctx.workspace.take("probe", 128, "int64")  # leave a high-water mark
    doc = collect_manifest(
        ctx=ctx, graph=g, dataset="fig3", extra={"experiment": "unit"}
    )
    validate_manifest(doc)
    ex = doc["execution"]
    assert ex["backend"] == "serial"
    assert ex["num_workers"] == 1
    assert ex["dtype_policy"] == "auto"
    assert ex["ws_peak"] >= 128 * 8
    assert ex["shm_high_water"] == 0
    ds = doc["dataset"]
    assert ds["name"] == "fig3"
    assert ds["vertices"] == g.num_vertices
    assert ds["edges"] == g.num_edges
    assert len(ds["sha256"]) == 64
    assert doc["extra"]["experiment"] == "unit"


def test_dataset_fingerprint_is_content_based():
    g1 = CSRGraph.from_edgelist(paper_example_graph())
    g2 = CSRGraph.from_edgelist(paper_example_graph())
    assert dataset_fingerprint(g1)["sha256"] == dataset_fingerprint(g2)["sha256"]
    # an edge list fingerprinted directly matches its graph's fingerprint
    e = paper_example_graph()
    assert dataset_fingerprint(e)["edges"] == g1.num_edges


#: digests computed before fingerprints became dtype-independent: the
#: int64 edge lists of these graphs must keep hashing to them
PINNED_FINGERPRINTS = {
    "paper": "7687775d71d7e027ece698174587d7afde3c3ead5420cdff2809be5bfdd082d4",
    "rmat6": "d88e00001b5d2131876c9113a2f4df971c28597fbe899e6b67ceac81a50a6b1a",
}


@pytest.mark.parametrize("name", sorted(PINNED_FINGERPRINTS))
def test_dataset_fingerprint_is_pinned_and_dtype_independent(name):
    from repro.graph import EdgeList
    from repro.graph.generators import rmat_graph

    edges = paper_example_graph() if name == "paper" else rmat_graph(6, 6, seed=9)
    assert dataset_fingerprint(edges)["sha256"] == PINNED_FINGERPRINTS[name]
    narrow = EdgeList(edges.u.astype(np.int32), edges.v.astype(np.int32),
                      edges.num_vertices)
    assert narrow.u.dtype == np.int32
    assert dataset_fingerprint(narrow) == dataset_fingerprint(edges)


def test_manifest_round_trip(tmp_path):
    doc = collect_manifest(extra={"note": "rt"})
    path = write_manifest(doc, tmp_path / "run.manifest.json")
    loaded = read_manifest(path)
    assert loaded == doc


def test_validate_manifest_rejects_malformed():
    with pytest.raises(GraphFormatError):
        validate_manifest({"schema": "something.else"})
    doc = collect_manifest()
    doc["version"] = 99
    with pytest.raises(GraphFormatError):
        validate_manifest(doc)
    doc = collect_manifest()
    del doc["schema_versions"]["trace"]
    with pytest.raises(GraphFormatError):
        validate_manifest(doc)


def test_read_manifest_rejects_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(GraphFormatError):
        read_manifest(p)
