"""Triangle enumeration by keyed ``searchsorted``, as a reference.

This is the forward-algorithm expansion as it ran before
``enumerate_triangles`` looked the closing edge up in a
``scipy.sparse.csr_array``: the degree-ordered DAG is built by one
stable sort of ``tail·n + head`` keys, and each wedge (other, w) is
found with one ``searchsorted`` over those keys. It works in int64
throughout, so tests can require the production columns to equal it
element for element, order included.
"""

from __future__ import annotations

import numpy as np


def searchsorted_triangles(graph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(e_uv, e_uw, e_vw)`` int64 columns in enumeration order."""
    n = graph.num_vertices
    deg = graph.degrees()
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n, dtype=np.int64)
    u = graph.edges.u.astype(np.int64)
    v = graph.edges.v.astype(np.int64)
    u_first = rank[u] < rank[v]
    tails = np.where(u_first, u, v)
    heads = np.where(u_first, v, u)
    span = np.int64(max(n, 1))
    order = np.argsort(tails * span + heads, kind="stable")
    tails, heads = tails[order], heads[order]
    slot_eids = np.arange(graph.num_edges, dtype=np.int64)[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
    outdeg = np.diff(indptr)
    slot_keys = tails * span + heads

    cols: tuple[list, list, list] = ([], [], [])
    expand_head = outdeg[heads] <= outdeg[tails]
    slots_all = np.arange(heads.size, dtype=np.int64)
    for slots, from_head in ((slots_all[expand_head], True), (slots_all[~expand_head], False)):
        expand = heads[slots] if from_head else tails[slots]
        other = tails[slots] if from_head else heads[slots]
        counts = outdeg[expand]
        total = int(counts.sum())
        if total == 0:
            continue
        ends = np.cumsum(counts)
        w_pos = np.repeat(indptr[expand] - (ends - counts), counts) + np.arange(total)
        q = np.repeat(other, counts) * span + heads[w_pos]
        pos = np.minimum(np.searchsorted(slot_keys, q), heads.size - 1)
        found = slot_keys[pos] == q
        pivot = slot_eids[np.repeat(slots, counts)[found]]
        from_expand = slot_eids[w_pos[found]]
        from_other = slot_eids[pos[found]]
        cols[0].append(pivot)
        cols[1].append(from_other if from_head else from_expand)
        cols[2].append(from_expand if from_head else from_other)
    return tuple(
        np.concatenate(c) if c else np.empty(0, dtype=np.int64) for c in cols
    )
