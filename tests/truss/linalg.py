"""Linear-algebra (GraphBLAS-style) truss decomposition.

The paper cites k-truss via sparse linear algebra on GPUs [14: Davis,
SuiteSparse:GraphBLAS; 46: Wang et al.]. The formulation: with boolean
adjacency A, the support of every present edge is ((A·A) ∘ A)[u, v]
(the number of length-2 paths closing each edge). Peeling repeats: drop
entries whose support is below k - 2, recompute. Entirely different
machinery from the incidence-based peeling in
:mod:`repro.truss.decompose`, kept as a cross-validation oracle for
``test_linalg.py``.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph
from repro.truss.decompose import TrussDecomposition


def truss_decomposition_linalg(graph: CSRGraph) -> TrussDecomposition:
    """Trussness per edge via repeated sparse matrix products."""
    import scipy.sparse as sp

    m = graph.num_edges
    n = graph.num_vertices
    tau = np.full(m, 2, dtype=np.int64)
    eu = graph.edges.u.copy()
    ev = graph.edges.v.copy()
    alive = np.ones(m, dtype=bool)
    support0: np.ndarray | None = None

    def alive_matrix() -> "sp.csr_array":
        ids = np.flatnonzero(alive)
        rows = np.concatenate([eu[ids], ev[ids]])
        cols = np.concatenate([ev[ids], eu[ids]])
        data = np.ones(rows.size, dtype=np.int64)
        return sp.csr_array((data, (rows, cols)), shape=(n, n))

    def alive_support() -> np.ndarray:
        """Support of each alive edge within the alive subgraph."""
        a = alive_matrix()
        s = ((a @ a).multiply(a)).tocsr()
        s.sort_indices()
        ids = np.flatnonzero(alive)
        out = np.zeros(m, dtype=np.int64)
        if s.nnz == 0:
            return out
        # keyed lookup of S[u, v] for each alive edge
        rows = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(s.indptr)
        )
        keys = rows * np.int64(n) + s.indices
        q = eu[ids] * np.int64(n) + ev[ids]
        pos = np.searchsorted(keys, q)
        pos_c = np.minimum(pos, keys.size - 1)
        found = keys[pos_c] == q
        vals = np.zeros(ids.size, dtype=np.int64)
        vals[found] = s.data[pos_c[found]]
        out[ids] = vals
        return out

    rounds = 0
    k = 3
    remaining = m
    while remaining > 0:
        sup = alive_support()
        if support0 is None:
            support0 = sup.copy()
        doomed = alive & (sup < k - 2)
        if not doomed.any():
            k += 1
            continue
        while doomed.any():
            rounds += 1
            tau[doomed] = k - 1
            alive[doomed] = False
            remaining -= int(doomed.sum())
            if remaining == 0:
                break
            sup = alive_support()  # full recomputation — the LA style
            doomed = alive & (sup < k - 2)
        k += 1
    if support0 is None:
        support0 = np.zeros(m, dtype=np.int64)
    return TrussDecomposition(trussness=tau, support=support0, peel_rounds=rounds)
