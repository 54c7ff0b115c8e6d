"""Keyed oracles: the ``u·n + v`` formulations the graph layer replaced.

* :func:`keyed_check` — the order check ``EdgeList`` ran before its
  keys became lazy. It validates exactly as the old constructor did, in
  the same order and with the same messages: materialize
  ``keys = u·n + v`` and require ``diff(keys) > 0``. ``EdgeList`` now
  checks the order with compares of neighbouring pairs and builds no
  keys; the property tests in ``test_edgelist_checks.py`` pin the two
  to the same verdicts.
* :func:`keyed_csr` — the pre-fusion two-pass Init: one 2m-element
  keyed stable sort of ``src·n + dst``. ``CSRGraph.from_edgelist``
  sorts only the backward half; the bit-identity tests and the serial
  floor guard in ``test_init_floor.py`` compare it against this build.
"""

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.csr import CSRGraph
from repro.graph.edgelist import EdgeList
from repro.utils.validation import check_array_1d


def keyed_check(u, v, num_vertices: int) -> np.ndarray:
    """Validate a canonical edge list the keyed way; return its keys."""
    u = check_array_1d("u", np.ascontiguousarray(u, dtype=np.int64), "iu")
    v = check_array_1d("v", np.ascontiguousarray(v, dtype=np.int64), "iu")
    if u.shape != v.shape:
        raise GraphConstructionError(
            f"endpoint arrays differ in length: {u.shape} vs {v.shape}"
        )
    if u.size:
        if int(u.min()) < 0:
            raise GraphConstructionError("negative vertex id in edge list")
        if int(v.max()) >= num_vertices:
            raise GraphConstructionError(
                f"vertex id {int(v.max())} >= num_vertices={num_vertices}"
            )
        if not np.all(u < v):
            raise GraphConstructionError("edges must be canonical (u < v)")
    keys = u * np.int64(num_vertices) + v
    if u.size and not np.all(np.diff(keys) > 0):
        raise GraphConstructionError(
            "edges must be sorted by (u, v) and free of duplicates"
        )
    return keys


def keyed_csr(edges: EdgeList, index_dtype=None) -> CSRGraph:
    """The pre-fusion two-pass build: one 2m-element keyed stable sort."""
    n, m = edges.num_vertices, edges.num_edges
    src = np.concatenate([edges.u, edges.v])
    dst = np.concatenate([edges.v, edges.u])
    eid = np.concatenate([np.arange(m, dtype=np.int64)] * 2)
    order = np.argsort(src * np.int64(max(n, 1)) + dst, kind="stable")
    src, dst, eid = src[order], dst[order], eid[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst, eid, edges, index_dtype=index_dtype)
