"""GAP-style compressed-sparse-row adjacency with per-slot edge ids.

:class:`CSRGraph` stores the symmetric adjacency of an undirected graph in
CSR form with neighbor lists sorted ascending. Each adjacency slot also
carries the *dense edge id* of the canonical undirected edge it belongs
to, which is the paper's "C-Optimal" storage optimization: looking up
τ(u, w) for a neighbor w of u becomes a contiguous-buffer gather instead
of a hash-map probe (§3.3 of the paper).

The adjacency arrays are dtype-parameterized (int32 or int64, picked by
the :class:`~repro.parallel.context.DtypePolicy` of an execution
context): the kernels downstream are bandwidth-bound, so int32 halves
their memory traffic whenever ``|V|`` and ``2|E|`` fit. Keyed lookups
(``u·N + v``) resolve their dtype *separately* — the product wraps long
before the ids do, so :attr:`key_dtype` falls back to int64 once
``N² > 2³¹`` even when the index arrays are int32.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphConstructionError
from repro.graph.edgelist import EdgeList
from repro.utils.sorting import group_by


class CSRGraph:
    """Immutable undirected graph in CSR form.

    Attributes
    ----------
    indptr:
        ``index_dtype[n + 1]`` row offsets.
    indices:
        ``index_dtype[2m]`` neighbor ids, sorted ascending within each row.
    edge_ids:
        ``index_dtype[2m]`` canonical edge id for each adjacency slot,
        aligned with ``indices``.
    edges:
        The canonical :class:`EdgeList` this CSR was built from.
    """

    __slots__ = ("indptr", "indices", "edge_ids", "edges", "_slot_keys")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        edge_ids: np.ndarray,
        edges: EdgeList,
        index_dtype=None,
    ) -> None:
        dt = np.dtype(index_dtype) if index_dtype is not None else np.dtype(np.int64)
        if dt not in (np.dtype(np.int32), np.dtype(np.int64)):
            raise GraphConstructionError(f"index dtype must be int32/int64, got {dt}")
        # no CSR value exceeds max(n - 1, 2m): the bound a store's dtype obeys
        if dt == np.dtype(np.int32) and max(edges.num_vertices, 2 * edges.num_edges) > np.iinfo(np.int32).max:
            raise GraphConstructionError(
                f"graph with {edges.num_vertices} vertices / {edges.num_edges} "
                "edges does not fit int32 indices"
            )
        self.indptr = np.ascontiguousarray(indptr, dtype=dt)
        self.indices = np.ascontiguousarray(indices, dtype=dt)
        self.edge_ids = np.ascontiguousarray(edge_ids, dtype=dt)
        self.edges = edges
        if self.indptr.size != edges.num_vertices + 1:
            raise GraphConstructionError("indptr length must be num_vertices + 1")
        if self.indices.size != 2 * edges.num_edges:
            raise GraphConstructionError("indices length must be 2 * num_edges")
        if self.edge_ids.size != self.indices.size:
            raise GraphConstructionError("edge_ids must align with indices")
        self._slot_keys: np.ndarray | None = None
        for arr in (self.indptr, self.indices, self.edge_ids):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edgelist(cls, edges: EdgeList, ctx=None, index_dtype=None) -> "CSRGraph":
        """Build symmetric CSR adjacency from a canonical edge list.

        Fused single-pass Init: because the canonical edge list is
        already sorted by (u, v), the forward half of every row is in
        final order for free, and only the backward half needs a sort —
        one counting group-by (:func:`~repro.utils.sorting.group_by`) of
        the m destination ids instead of the old 2m-element keyed
        (``src·N + dst``) sort. Row r's slots are
        ``[cnt_b[r] backward neighbors u < r ascending | forward
        neighbors v > r ascending]``, which is exactly the old build's
        sorted row, so the three arrays are bit-identical.

        The index dtype comes from ``index_dtype`` when given, else from
        the context's dtype policy, else int64.
        """
        if index_dtype is None and ctx is not None:
            from repro.parallel.context import ExecutionContext

            index_dtype = ExecutionContext.ensure(ctx).index_dtype(
                edges.num_vertices, edges.num_edges
            )
        n, m = edges.num_vertices, edges.num_edges
        u, v = edges.u, edges.v
        order = group_by(v, n)[0]
        cnt_f = np.bincount(u, minlength=n)
        cnt_b = np.bincount(v, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(cnt_f + cnt_b, out=indptr[1:])
        eid = np.arange(m, dtype=np.int64)
        indices = np.empty(2 * m, dtype=np.int64)
        edge_ids = np.empty(2 * m, dtype=np.int64)
        # forward half: edge i is the (i - fstart[u_i])-th forward
        # neighbor of u_i (the canonical sort groups rows contiguously)
        fstart = np.zeros(n, dtype=np.int64)
        np.cumsum(cnt_f[:-1], out=fstart[1:])
        slot = indptr[u] + cnt_b[u] + (eid - fstart[u])
        indices[slot] = v
        edge_ids[slot] = eid
        # backward half: edges sorted by (v, u) fill each row's prefix
        bstart = np.zeros(n, dtype=np.int64)
        np.cumsum(cnt_b[:-1], out=bstart[1:])
        vo = v[order]
        slot = indptr[vo] + (eid - bstart[vo])
        indices[slot] = u[order]
        edge_ids[slot] = order
        return cls(indptr, indices, edge_ids, edges, index_dtype=index_dtype)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.edges.num_vertices

    @property
    def num_edges(self) -> int:
        return self.edges.num_edges

    @property
    def index_dtype(self) -> np.dtype:
        """Dtype of the adjacency arrays (int32 or int64)."""
        return self.indices.dtype

    @property
    def key_dtype(self) -> np.dtype:
        """Narrowest dtype that holds the ``u·N + v`` key without overflow.

        This deliberately ignores :attr:`index_dtype`: an int32 graph
        over more than ⌊√2³¹⌋ ≈ 46341 vertices still needs int64 keys.
        """
        n = max(self.num_vertices, 1)
        if n * n - 1 > np.iinfo(np.int32).max:
            return np.dtype(np.int64)
        return self.index_dtype

    @property
    def nbytes(self) -> int:
        """Bytes held by the CSR arrays, the edge list and built key arrays."""
        total = self.indptr.nbytes + self.indices.nbytes + self.edge_ids.nbytes
        total += self.edges.u.nbytes + self.edges.v.nbytes
        lazy = (self._slot_keys, self.edges._keys)
        total += sum(a.nbytes for a in lazy if a is not None)
        return int(total)

    def degrees(self) -> np.ndarray:
        """Undirected degree per vertex."""
        return np.diff(self.indptr)

    def degree(self, u: int) -> int:
        return int(self.indptr[u + 1] - self.indptr[u])

    def neighbors(self, u: int) -> np.ndarray:
        """Sorted neighbor ids of ``u`` (a zero-copy view)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def neighbor_edge_ids(self, u: int) -> np.ndarray:
        """Edge ids aligned with :meth:`neighbors`."""
        return self.edge_ids[self.indptr[u] : self.indptr[u + 1]]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"dtype={self.index_dtype.name})"
        )

    # ------------------------------------------------------------------
    # Batched membership (keyed searchsorted)
    # ------------------------------------------------------------------
    def edge_key_of(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Overflow-safe ``u·N + v`` scalar keys for (u, w) pairs.

        Computed in :attr:`key_dtype`, never the raw index dtype — the
        product wraps in int32 once ``N² > 2³¹`` even though every id
        fits, so narrow inputs are widened *before* multiplying.
        """
        kd = self.key_dtype
        us = np.asarray(us).astype(kd, copy=False)
        ws = np.asarray(ws).astype(kd, copy=False)
        return us * kd.type(max(self.num_vertices, 1)) + ws

    @property
    def slot_keys(self) -> np.ndarray:
        """Globally sorted ``row * n + col`` key per adjacency slot.

        Because rows appear in order and each row's columns are sorted,
        this flattened key array is strictly increasing, enabling batched
        adjacency membership tests with one ``searchsorted``. Stored in
        :attr:`key_dtype` (int64 whenever int32 keys would wrap).
        """
        if self._slot_keys is None:
            rows = np.repeat(
                np.arange(self.num_vertices, dtype=self.key_dtype),
                np.diff(self.indptr),
            )
            keys = self.edge_key_of(rows, self.indices)
            keys.setflags(write=False)
            self._slot_keys = keys
        return self._slot_keys

    def locate_slots(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """For each (u, w) pair return the adjacency-slot index, or -1.

        The slot index can be used to read :attr:`edge_ids` directly —
        this is the fast directed (u → w) lookup used by the triangle
        kernels.
        """
        keys = self.slot_keys
        q = self.edge_key_of(us, ws)
        pos = np.searchsorted(keys, q)
        pos_c = np.minimum(pos, max(keys.size - 1, 0))
        if keys.size == 0:
            return np.full(q.shape, -1, dtype=np.int64)
        found = keys[pos_c] == q
        return np.where(found, pos_c, -1)

    def has_edges(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Vectorized adjacency test for (u, w) pairs."""
        return self.locate_slots(us, ws) >= 0

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def astype(self, index_dtype) -> "CSRGraph":
        """Copy of this graph with the adjacency arrays in another dtype."""
        if np.dtype(index_dtype) == self.index_dtype:
            return self
        return CSRGraph(
            self.indptr, self.indices, self.edge_ids, self.edges,
            index_dtype=index_dtype,
        )

    def to_scipy(self):
        """Symmetric adjacency as ``scipy.sparse.csr_array`` of int8 ones."""
        import scipy.sparse as sp

        data = np.ones(self.indices.size, dtype=np.int8)
        return sp.csr_array(
            (data, self.indices.copy(), self.indptr.copy()),
            shape=(self.num_vertices, self.num_vertices),
        )

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (tests / small graphs)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        g.add_edges_from(zip(self.edges.u.tolist(), self.edges.v.tolist()))
        return g
