"""The EquiTruss summary-graph index G(V, E).

Canonical form (identical across all construction variants, enabling
byte-level equality in tests):

* supernodes carry dense ids ordered by ``(trussness, min member edge id)``;
* member edge ids are sorted within each supernode;
* superedges are canonical ``(lo, hi)`` dense-id pairs, lexicographically
  sorted and duplicate-free.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexIntegrityError, InvalidParameterError
from repro.graph.csr import CSRGraph
from repro.utils.sorting import group_by, unique_sorted


def _as_index_array(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a contiguous int32 or int64 array — aliasing, never
    copying, when the input already is one.

    This is the zero-copy guarantee the mmap attach path depends on: a
    read-only view into a mapped store file, int32 in a narrow store,
    must flow into the index *as that view* so N attached processes
    share one page-cache copy. Other dtypes and strided arrays are
    converted to int64.
    """
    a = np.asarray(arr)
    if a.dtype in (np.int32, np.int64) and a.flags["C_CONTIGUOUS"]:
        return a
    return np.ascontiguousarray(a, dtype=np.int64)


class EquiTrussIndex:
    """Summary graph: supernodes (edge groups) + superedges.

    Attributes
    ----------
    graph:
        The indexed :class:`CSRGraph`.
    trussness:
        ``int64[m]`` τ per edge id.
    edge_supernode:
        ``int64[m]`` dense supernode id per edge; ``-1`` for τ = 2 edges
        (triangle-free edges belong to no supernode).
    supernode_trussness:
        ``int64[S]`` τ of each supernode.
    supernode_indptr / supernode_edges:
        CSR mapping supernode id → sorted member edge ids.
    superedges:
        ``int64[SE, 2]`` canonical dense-id pairs.

    A build returns int64 arrays; an index attached from a narrow store
    holds int32 views into the mapping instead.
    """

    __slots__ = (
        "graph",
        "trussness",
        "edge_supernode",
        "supernode_trussness",
        "supernode_indptr",
        "supernode_edges",
        "superedges",
        "_sn_adj",
    )

    def __init__(
        self,
        graph: CSRGraph,
        trussness: np.ndarray,
        edge_supernode: np.ndarray,
        supernode_trussness: np.ndarray,
        supernode_indptr: np.ndarray,
        supernode_edges: np.ndarray,
        superedges: np.ndarray,
    ) -> None:
        self.graph = graph
        self.trussness = _as_index_array(trussness)
        self.edge_supernode = _as_index_array(edge_supernode)
        self.supernode_trussness = _as_index_array(supernode_trussness)
        self.supernode_indptr = _as_index_array(supernode_indptr)
        self.supernode_edges = _as_index_array(supernode_edges)
        self.superedges = _as_index_array(superedges).reshape(-1, 2)
        self._sn_adj: tuple[np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Construction from parallel-variant raw output
    # ------------------------------------------------------------------
    @classmethod
    def from_parents(
        cls,
        graph: CSRGraph,
        trussness: np.ndarray,
        parents: np.ndarray,
        raw_superedges: np.ndarray,
    ) -> "EquiTrussIndex":
        """Canonicalize CC output (this is the SpNodeRemap step).

        ``parents`` maps each edge to its component-root edge id (only
        meaningful where τ ≥ 3); ``raw_superedges`` holds root-id pairs
        (already deduplicated or not — duplicates are removed here).
        """
        m = graph.num_edges
        # a built index is int64 throughout, whatever the kernels' dtypes
        trussness = np.asarray(trussness, dtype=np.int64)
        member = trussness >= 3
        roots = parents[member]
        uniq_roots, inv = np.unique(roots, return_inverse=True)
        # canonical order: by (trussness of root edge, root id); np.unique
        # gives ascending root id, so a stable sort by trussness suffices.
        order = np.argsort(trussness[uniq_roots], kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        edge_supernode = np.full(m, -1, dtype=np.int64)
        edge_supernode[member] = rank[inv]

        sn_truss = trussness[uniq_roots][order]
        # supernode -> member edges CSR (sorted by (sn, edge id)): the
        # member ids ascend, so a stable group-by by supernode suffices
        member_ids = np.flatnonzero(member)
        csr_order, indptr = group_by(edge_supernode[member_ids], uniq_roots.size)
        sn_edges = member_ids[csr_order]

        # remap superedges root ids -> dense ids, canonicalize, dedupe
        raw = np.asarray(raw_superedges, dtype=np.int64).reshape(-1, 2)
        if raw.size:
            pos_a = rank[np.searchsorted(uniq_roots, raw[:, 0])]
            pos_b = rank[np.searchsorted(uniq_roots, raw[:, 1])]
            lo = np.minimum(pos_a, pos_b)
            hi = np.maximum(pos_a, pos_b)
            keys = unique_sorted(lo * np.int64(uniq_roots.size) + hi)
            superedges = np.stack(
                [keys // uniq_roots.size, keys % uniq_roots.size], axis=1
            )
        else:
            superedges = np.empty((0, 2), dtype=np.int64)
        return cls(
            graph=graph,
            trussness=trussness,
            edge_supernode=edge_supernode,
            supernode_trussness=sn_truss,
            supernode_indptr=indptr.astype(np.int64, copy=False),
            supernode_edges=sn_edges,
            superedges=superedges,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_supernodes(self) -> int:
        return self.supernode_trussness.size

    @property
    def num_superedges(self) -> int:
        return self.superedges.shape[0]

    def edges_of(self, supernode: int) -> np.ndarray:
        """Sorted member edge ids of a supernode (view)."""
        return self.supernode_edges[
            self.supernode_indptr[supernode] : self.supernode_indptr[supernode + 1]
        ]

    def supernode_sizes(self) -> np.ndarray:
        return np.diff(self.supernode_indptr)

    def supernodes_of_vertex(self, v: int, k_min: int = 3) -> np.ndarray:
        """Distinct supernodes containing an edge incident to vertex ``v``
        with trussness ≥ ``k_min`` — the community-search anchors."""
        if not 0 <= v < self.graph.num_vertices:
            raise InvalidParameterError(f"vertex {v} out of range")
        eids = self.graph.neighbor_edge_ids(v)
        sns = self.edge_supernode[eids]
        sns = sns[sns >= 0]
        if sns.size:
            sns = sns[self.supernode_trussness[sns] >= k_min]
        return np.unique(sns)

    def vertex_max_trussness(self) -> np.ndarray:
        """Per vertex, the largest τ ≥ 3 over its incident edges, 0 for a
        vertex on no triangle: the batch form of
        ``query_candidate_ks(index, v)[-1]``.

        A ``k``-truss community (``k ≥ 3``) containing ``v`` exists iff
        ``k <= table[v]``. The table holds the narrowest unsigned dtype
        that fits kmax; apart from a copy of τ in that dtype, it
        allocates nothing of size m.
        """
        tau = self.trussness
        dtype = np.min_scalar_type(int(tau.max()) if tau.size else 0)
        table = np.zeros(self.graph.num_vertices, dtype=dtype)
        tau = tau.astype(dtype)
        np.maximum.at(table, self.graph.edges.u, tau)
        np.maximum.at(table, self.graph.edges.v, tau)
        table[table < 3] = 0
        return table

    def supernode_adjacency(self) -> tuple[np.ndarray, np.ndarray]:
        """Symmetric CSR (indptr, neighbors) over supernodes (cached)."""
        if self._sn_adj is None:
            s = self.num_supernodes
            a = np.concatenate([self.superedges[:, 0], self.superedges[:, 1]])
            b = np.concatenate([self.superedges[:, 1], self.superedges[:, 0]])
            order = np.argsort(a * np.int64(max(s, 1)) + b, kind="stable")
            a, b = a[order], b[order]
            counts = np.bincount(a, minlength=s)
            indptr = np.zeros(s + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._sn_adj = (indptr, b)
        return self._sn_adj

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EquiTrussIndex):
            return NotImplemented
        return (
            np.array_equal(self.trussness, other.trussness)
            and np.array_equal(self.edge_supernode, other.edge_supernode)
            and np.array_equal(self.supernode_trussness, other.supernode_trussness)
            and np.array_equal(self.supernode_indptr, other.supernode_indptr)
            and np.array_equal(self.supernode_edges, other.supernode_edges)
            and np.array_equal(self.superedges, other.superedges)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EquiTrussIndex(supernodes={self.num_supernodes}, "
            f"superedges={self.num_superedges}, edges={self.trussness.size})"
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Structural integrity checks; raises :class:`IndexIntegrityError`."""
        m = self.graph.num_edges
        s = self.num_supernodes
        if self.trussness.size != m or self.edge_supernode.size != m:
            raise IndexIntegrityError("per-edge arrays must have length m")
        member = self.trussness >= 3
        if np.any(self.edge_supernode[member] < 0):
            raise IndexIntegrityError("edge with trussness >= 3 lacks a supernode")
        if np.any(self.edge_supernode[~member] != -1):
            raise IndexIntegrityError("trussness-2 edge assigned to a supernode")
        if self.edge_supernode.size and self.edge_supernode.max(initial=-1) >= s:
            raise IndexIntegrityError("supernode id out of range")
        if self.supernode_indptr.size != s + 1:
            raise IndexIntegrityError("supernode_indptr has wrong length")
        if int(member.sum()) != self.supernode_edges.size:
            raise IndexIntegrityError("supernode membership does not partition edges")
        for sn in range(s):
            eids = self.edges_of(sn)
            if eids.size == 0:
                raise IndexIntegrityError(f"empty supernode {sn}")
            if not np.all(self.edge_supernode[eids] == sn):
                raise IndexIntegrityError(f"CSR/membership mismatch at supernode {sn}")
            if not np.all(self.trussness[eids] == self.supernode_trussness[sn]):
                raise IndexIntegrityError(f"mixed trussness in supernode {sn}")
        if s and not np.all(np.diff(self.supernode_trussness) >= 0):
            raise IndexIntegrityError("supernodes not ordered by trussness")
        se = self.superedges
        if se.size:
            if se.min() < 0 or se.max() >= s:
                raise IndexIntegrityError("superedge endpoint out of range")
            if np.any(se[:, 0] == se[:, 1]):
                raise IndexIntegrityError("self-loop superedge")
            same_k = (
                self.supernode_trussness[se[:, 0]]
                == self.supernode_trussness[se[:, 1]]
            )
            if np.any(same_k):
                raise IndexIntegrityError(
                    "superedge between equal-trussness supernodes (Definition 9)"
                )
            keys = se[:, 0] * np.int64(s) + se[:, 1]
            if np.unique(keys).size != keys.size:
                raise IndexIntegrityError("duplicate superedges")

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int | float]:
        sizes = self.supernode_sizes()
        return {
            "num_supernodes": self.num_supernodes,
            "num_superedges": self.num_superedges,
            "num_indexed_edges": int(self.supernode_edges.size),
            "max_supernode_size": int(sizes.max()) if sizes.size else 0,
            "mean_supernode_size": float(sizes.mean()) if sizes.size else 0.0,
            "kmax": int(self.supernode_trussness.max()) if self.num_supernodes else 2,
        }
